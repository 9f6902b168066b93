package main

// file-stream: 4 client nodes, each with a kernel OS and ORFS mounted
// over a 4-server MX striped cluster (64 KB stripes, window 8). Each
// client works on its own file, seeded server-side during setup and
// larger than its page cache. Bytes dominate: it loads kernel, orfs,
// the rfsrv data path, fabric pools and hw DMA/link, with writes
// beside reads, and almost no namespace work.
//
// file-stream-sync runs the same mix over window-1 cluster views that
// ORFS sees only as a synchronous rfsrv.Client, so it issues no
// readahead and no write-behind. It keeps the kernel and ORFS paths
// without the in-flight prefetches the window-8 run needs to show its
// ORFS defects.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mx"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

const (
	fsServers   = 4
	fsClients   = 4
	fsOps       = 1040    // per client
	fsCachePgs  = 128     // page cache per client: 512 KB
	fsFileSize  = 1 << 20 // seeded size: twice the page cache
	fsMaxSize   = 2 << 20 // extending writes stop here
	fsHotRange  = 128 << 10
	fsChunk     = 64 << 10 // application request size
	fsHotChunk  = 16 << 10
	fsMinWrite  = 4 << 10
	fsSeedSalt  = 0x66696c65
	fsWriteSalt = 0x77726974
)

// fsClient is one client node: its cluster view, mount and open files,
// plus the model of what its file must hold.
type fsClient struct {
	idx      int
	node     *hw.Node
	cl       *rfsrv.Cluster // behind the buffered mount
	dcl      *rfsrv.Cluster // behind the O_DIRECT mount
	mx       *mx.MX
	os       *kernel.OS
	mount    *orfs.FS
	dmount   *orfs.FS
	buffered *kernel.File
	direct   *kernel.File
	as       *vm.AddressSpace
	rva, wva vm.VirtAddr
	ino      kernel.InodeID
	rng      *rand.Rand

	model   []byte // expected file content
	cursor  int64  // sequential read position
	scratch []byte
	writes  int
	plan    []opKind
	sizes   []int // planned write sizes
}

// fsMix is file-stream's op mix.
var fsMix = []weighted{
	{opSeqRead, 35}, {opDirectRead, 20}, {opHotRead, 15}, {opOverwrite, 20}, {opExtend, 10},
}

type fileStreamWL struct {
	window  int // session window of every cluster view; 1 mounts ORFS synchronously
	srv     *serverSet
	clients []*fsClient
	before  map[string]float64
}

func (w *fileStreamWL) setup(r *run, p *sim.Proc) error {
	var err error
	if w.srv, err = addServers(r.hwc, fsServers, 0); err != nil {
		return err
	}
	for i := 0; i < fsClients; i++ {
		c := &fsClient{idx: i, node: r.hwc.AddNode(fmt.Sprintf("client%d", i)), rng: rand.New(rand.NewSource(r.rng.Int63()))}
		c.plan = plan(c.rng, fsOps, fsMix)
		c.sizes = strata(c.rng, fsOps*30/100, fsMinWrite, fsChunk)
		c.model = make([]byte, fsFileSize)
		fill(c.model, uint64(r.seed)*fsSeedSalt+uint64(i), 0)
		w.clients = append(w.clients, c)
	}
	if err := w.seed(p); err != nil {
		return err
	}
	for _, c := range w.clients {
		c.mx = mx.Attach(c.node)
		if c.cl, err = newView(p, c.node, w.srv, viewOpts{window: w.window, replicas: 1, mx: c.mx}); err != nil {
			return err
		}
		// O_DIRECT gets a mount and cluster view of its own: on the
		// buffered mount, an O_DIRECT read behind in-flight readahead
		// never completes (the audit probes that case).
		if c.dcl, err = newView(p, c.node, w.srv, viewOpts{window: w.window, replicas: 1, mx: c.mx, epBase: 30}); err != nil {
			return err
		}
		c.os = kernel.NewOS(c.node, fsCachePgs)
		c.mount = orfs.New("orfs", w.client(c.cl))
		c.dmount = orfs.New("orfs-direct", w.client(c.dcl))
		c.os.Mount("/mnt", c.mount)
		c.os.Mount("/direct", c.dmount)
		if c.buffered, err = c.os.Open(p, fmt.Sprintf("/mnt/f%d", c.idx), kernel.ORDWR); err != nil {
			return err
		}
		if c.direct, err = c.os.Open(p, fmt.Sprintf("/direct/f%d", c.idx), kernel.ODirect); err != nil {
			return err
		}
		c.as = c.node.NewUserSpace("app")
		if c.rva, err = c.as.Mmap(fsChunk, "rbuf"); err != nil {
			return err
		}
		if c.wva, err = c.as.Mmap(fsChunk, "wbuf"); err != nil {
			return err
		}
		c.scratch = make([]byte, fsChunk)
	}
	return nil
}

// syncClient exposes only rfsrv.Client, so ORFS takes its synchronous
// path over it.
type syncClient struct{ rfsrv.Client }

// client is what ORFS mounts: the cluster view itself, which ORFS
// pipelines through, or over window-1 views a synchronous client. A
// 4-server view's window is the sum of its sessions' windows, so a
// window-1 view alone would still get readahead.
func (w *fileStreamWL) client(cl *rfsrv.Cluster) rfsrv.Client {
	if w.window > 1 {
		return cl
	}
	return syncClient{cl}
}

// seed lays every client's file out on the servers the way the striped
// cluster places it — the namespace replicated in one creation order
// (so inode numbers agree), stripe k on server k mod N — then extends
// every server's copy to the full size.
func (w *fileStreamWL) seed(p *sim.Proc) error {
	n := len(w.srv.fs)
	for j, fs := range w.srv.fs {
		node := w.srv.nodes[j]
		va, err := node.Kernel.Mmap(stripe, "seed")
		if err != nil {
			return err
		}
		for _, c := range w.clients {
			attr, err := fs.Create(p, fs.Root(), fmt.Sprintf("f%d", c.idx))
			if err != nil {
				return err
			}
			if j == 0 {
				c.ino = attr.Ino
			} else if attr.Ino != c.ino {
				return fmt.Errorf("seed inode divergence (%d vs %d)", attr.Ino, c.ino)
			}
			for k := j; k*stripe < fsFileSize; k += n {
				off := int64(k) * stripe
				if err := node.Kernel.WriteBytes(va, c.model[off:off+stripe]); err != nil {
					return err
				}
				if _, err := fs.WriteDirect(p, attr.Ino, off, kvec(node.Kernel, va, stripe)); err != nil {
					return err
				}
			}
			if err := fs.Truncate(p, attr.Ino, fsFileSize); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *fileStreamWL) start(r *run) {
	w.before = w.counters()
	for _, c := range w.clients {
		r.live++
		r.env.Spawn(fmt.Sprintf("fs-client%d", c.idx), func(p *sim.Proc) {
			defer func() { r.live-- }()
			for k, kind := range c.plan {
				c.op(r, p, k, kind)
			}
		})
	}
}

func (w *fileStreamWL) counters() map[string]float64 {
	var views []*rfsrv.Cluster
	var mounts []*orfs.FS
	var oses []*kernel.OS
	for _, c := range w.clients {
		views, mounts, oses = append(views, c.cl, c.dcl), append(mounts, c.mount, c.dmount), append(oses, c.os)
	}
	return rfCounters(w.srv, views, mounts, oses)
}

// op runs the client's k-th planned op.
func (c *fsClient) op(r *run, p *sim.Proc, k int, kind opKind) {
	size := int64(len(c.model))
	switch kind {
	case opSeqRead: // buffered sequential read: readahead
		if c.cursor >= size {
			c.cursor = 0
		}
		n := int(min(fsChunk, size-c.cursor))
		c.read(r, p, c.buffered, "seq-read", c.cursor, n)
		c.cursor += int64(n)
	case opDirectRead: // O_DIRECT stripe read
		off := c.rng.Int63n(size/stripe) * stripe
		c.read(r, p, c.direct, "direct-read", off, int(min(fsChunk, size-off)))
	case opHotRead: // re-read of a hot range that fits in the cache
		off := c.rng.Int63n(fsHotRange/fsHotChunk) * fsHotChunk
		c.read(r, p, c.buffered, "hot-read", off, fsHotChunk)
	default: // buffered write + fsync; extends at EOF until fsMaxSize
		n := c.sizes[c.writes%len(c.sizes)]
		if kind == opExtend && size < fsMaxSize {
			c.write(r, p, "extend", k, size, int(min(int64(n), fsMaxSize-size)))
			return
		}
		c.write(r, p, "overwrite", k, c.rng.Int63n(size-int64(n)+1), n)
	}
}

func (c *fsClient) read(r *run, p *sim.Proc, f *kernel.File, kind string, off int64, n int) {
	o := r.beginOp(p, c.idx, kind)
	sp := r.call(p, o, "kernel", "File.ReadAt")
	got, err := f.ReadAt(p, c.as, c.rva, n, off)
	r.tr.end(p, sp)
	if err == nil && got != n {
		err = fmt.Errorf("%s of f%d [%d,+%d) returned %d bytes", kind, c.idx, off, n, got)
	}
	r.endOp(p, o, int64(got), err)
	if err != nil {
		return
	}
	if err := c.as.ReadBytesInto(c.rva, c.scratch[:got]); err != nil {
		r.mismatch("client %d: read back buffer: %v", c.idx, err)
	} else if !bytes.Equal(c.scratch[:got], c.model[off:off+int64(got)]) {
		r.mismatch("client %d: %s of f%d [%d,+%d) returned wrong bytes", c.idx, kind, c.idx, off, got)
	}
}

func (c *fsClient) write(r *run, p *sim.Proc, kind string, k int, off int64, n int) {
	buf := c.scratch[:n]
	fill(buf, uint64(r.seed)*fsWriteSalt+uint64(c.idx)<<20+uint64(k), off)
	if err := c.as.WriteBytes(c.wva, buf); err != nil {
		r.mismatch("client %d: stage write buffer: %v", c.idx, err)
		return
	}
	o := r.beginOp(p, c.idx, kind)
	sp := r.call(p, o, "kernel", "File.WriteAt")
	got, err := c.buffered.WriteAt(p, c.as, c.wva, n, off)
	r.tr.end(p, sp)
	if err == nil && got != n {
		err = fmt.Errorf("%s of f%d [%d,+%d) wrote %d bytes", kind, c.idx, off, n, got)
	}
	if err == nil {
		sp = r.call(p, o, "kernel", "File.Fsync")
		err = c.buffered.Fsync(p)
		r.tr.end(p, sp)
	}
	r.endOp(p, o, int64(n), err)
	if err != nil {
		return
	}
	c.writes++
	if end := off + int64(n); end > int64(len(c.model)) {
		c.model = append(c.model, make([]byte, end-int64(len(c.model)))...)
	}
	copy(c.model[off:], buf)
}

// audit reads every file back through O_DIRECT and checks its bytes,
// and checks the size the cluster reports, against the model; then,
// over windowed views, it probes O_DIRECT behind readahead on one mount.
func (w *fileStreamWL) audit(r *run, p *sim.Proc) {
	if w.window > 1 {
		defer w.probeDirectBehindReadahead(r, p)
	}
	for _, c := range w.clients {
		resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: c.ino})
		if err != nil {
			r.mismatch("client %d: audit getattr: %v", c.idx, err)
		} else if resp.Attr.Size != int64(len(c.model)) {
			r.mismatch("client %d: f%d size %d, want %d", c.idx, c.idx, resp.Attr.Size, len(c.model))
		}
		size := int64(len(c.model))
		for off := int64(0); off < size; off += fsChunk {
			n := int(min(fsChunk, size-off))
			got, err := c.direct.ReadAt(p, c.as, c.rva, n, off)
			if err != nil || got != n {
				r.mismatch("client %d: audit read [%d,+%d): %d bytes (%v)", c.idx, off, n, got, err)
				continue
			}
			if err := c.as.ReadBytesInto(c.rva, c.scratch[:n]); err != nil || !bytes.Equal(c.scratch[:n], c.model[off:off+int64(n)]) {
				r.mismatch("client %d: f%d bytes [%d,+%d) differ from the model", c.idx, c.idx, off, n)
			}
		}
	}
}

// probeDirectBehindReadahead checks the configuration the measured
// phase keeps apart: an O_DIRECT read on the same mount as a buffered
// stream whose readahead is still in flight. A fresh cluster view, OS
// and mount on client 0's node start a readahead stream at offset 0,
// then read the next stripe with O_DIRECT; the read must complete.
func (w *fileStreamWL) probeDirectBehindReadahead(r *run, p *sim.Proc) {
	c := w.clients[0]
	view, err := newView(p, c.node, w.srv, viewOpts{window: w.window, replicas: 1, mx: c.mx, epBase: 50})
	if err != nil {
		r.mismatch("probe: cluster view: %v", err)
		return
	}
	osys := kernel.NewOS(c.node, fsCachePgs)
	osys.Mount("/mnt", orfs.New("orfs-probe", view))
	path := fmt.Sprintf("/mnt/f%d", c.idx)
	buffered, err := osys.Open(p, path, kernel.ORDWR)
	if err != nil {
		r.mismatch("probe: open %s: %v", path, err)
		return
	}
	direct, err := osys.Open(p, path, kernel.ODirect)
	if err != nil {
		r.mismatch("probe: open %s O_DIRECT: %v", path, err)
		return
	}
	done := sim.NewSignal(r.env)
	r.env.Spawn("fs-probe", func(q *sim.Proc) {
		if _, err := buffered.ReadAt(q, c.as, c.rva, fsChunk, 0); err != nil {
			r.mismatch("probe: buffered read: %v", err)
		}
		if _, err := direct.ReadAt(q, c.as, c.rva, fsChunk, stripe); err != nil {
			r.mismatch("probe: O_DIRECT read: %v", err)
		}
		done.Fire()
	})
	if !done.WaitTimeout(p, time.Second) {
		r.mismatch("client %d: an O_DIRECT read of %s [%d,+%d) behind in-flight readahead on the same mount never completes", c.idx, path, stripe, fsChunk)
	}
}

func (w *fileStreamWL) layers(m map[string]float64, ops float64) {
	writes := 0
	for _, c := range w.clients {
		writes += c.writes
	}
	clusterLayers(m, w.before, w.counters(), ops, float64(writes))
}
