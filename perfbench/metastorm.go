package main

// meta-storm: 4 clients on a 4-server, R=2 cluster with the sharded
// namespace. Each client runs a seeded mix of create, small write,
// lookup, getattr, readdir, rename (within and across directories),
// unlink and MetaBatch groups over its own directories, then the audit
// lists every directory and checks every size. It loads rfsrv routing,
// sharding, MetaBatch, server dispatch, the wire codec and the memfs
// namespace, with no page cache and little bulk data.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

const (
	msServers     = 4
	msReplicas    = 2
	msClients     = 4
	msWindow      = 8
	msOps         = 500 // per client
	msDirs        = 4   // per client
	msInitFiles   = 6   // per directory, created during setup
	msMinFiles    = 8   // unlinks stop below this many files per client
	msMaxWrite    = 16 << 10
	msMaxFileSize = 64 << 10
	msBufSize     = 256 << 10
	msWriteSalt   = 0x6d657461
	msNamePad     = 32 // name filler bytes drawn from [0, msNamePad)
)

type nsDir struct {
	name string
	ino  kernel.InodeID
}

type nsFile struct {
	dir  *nsDir
	name string
	ino  kernel.InodeID
	data []byte // expected content
}

// nsClient is one client of a sharded cluster and the model of the
// directories and files it owns. Files live in a slice, never a map, so
// every seeded pick is reproducible.
type nsClient struct {
	idx     int
	node    *hw.Node
	cl      *rfsrv.Cluster
	rng     *rand.Rand
	va      vm.VirtAddr
	scratch []byte

	dirs    []*nsDir
	files   []*nsFile
	serial  int
	writes  int
	plan    []opKind
	sizes   []int // planned write sizes
	sizeIdx int
}

// nsSetup builds one client view, its directories and initial files.
func nsSetup(r *run, p *sim.Proc, c *nsClient, s *serverSet, o viewOpts, dirs, filesPerDir int) error {
	var err error
	if c.cl, err = newView(p, c.node, s, o); err != nil {
		return err
	}
	if c.va, err = c.node.Kernel.Mmap(msBufSize, "bench-buf"); err != nil {
		return err
	}
	c.scratch = make([]byte, msBufSize)
	for k := 0; k < dirs; k++ {
		name := fmt.Sprintf("c%dd%d", c.idx, k)
		resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: name})
		if err != nil {
			return fmt.Errorf("mkdir %s: %w", name, err)
		}
		c.dirs = append(c.dirs, &nsDir{name: name, ino: resp.Attr.Ino})
	}
	for _, d := range c.dirs {
		for k := 0; k < filesPerDir; k++ {
			name := c.newName()
			resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: d.ino, Name: name})
			if err != nil {
				return fmt.Errorf("create %s/%s: %w", d.name, name, err)
			}
			c.files = append(c.files, &nsFile{dir: d, name: name, ino: resp.Attr.Ino})
		}
	}
	return nil
}

// newName returns a fresh entry name. Its length is seeded, 5 to about
// 40 bytes, as file names vary; the name travels in the request, so
// its length sets the op's wire time.
func (c *nsClient) newName() string {
	c.serial++
	return fmt.Sprintf("c%d-%d-%s", c.idx, c.serial, strings.Repeat("x", c.rng.Intn(msNamePad)))
}

func (c *nsClient) pickFile() *nsFile { return c.files[c.rng.Intn(len(c.files))] }
func (c *nsClient) pickDir() *nsDir   { return c.dirs[c.rng.Intn(len(c.dirs))] }

func (c *nsClient) removeFile(f *nsFile) {
	for i, g := range c.files {
		if g == f {
			c.files = append(c.files[:i], c.files[i+1:]...)
			return
		}
	}
}

// metaOp issues one Cluster.Meta call as one client op.
func (c *nsClient) metaOp(r *run, p *sim.Proc, kind string, req *rfsrv.Req) (*rfsrv.Resp, bool) {
	o := r.beginOp(p, c.idx, kind)
	sp := r.call(p, o, "rfsrv", "Cluster.Meta")
	resp, err := c.cl.Meta(p, req)
	r.tr.end(p, sp)
	if err == nil && resp.Status != rfsrv.StOK {
		err = rfsrv.ErrOf(resp.Status)
	}
	r.endOp(p, o, 0, err)
	return resp, err == nil
}

// opKind is one kind of client op in a seeded plan.
type opKind int

const (
	opCreate opKind = iota
	opSmallWrite
	opLookup
	opGetattr
	opReaddir
	opRename
	opUnlink
	opBatch
	opStripeRead
	opStripeWrite
	opSeqRead
	opDirectRead
	opHotRead
	opOverwrite
	opExtend
)

// weighted is an op kind's share of a plan: weight out of the sum of
// the mix's weights.
type weighted struct {
	kind   opKind
	weight int
}

// nsMix is meta-storm's op mix. It is a synthetic coverage mix, not
// measured traffic. The six single-entry kinds keep the dice of the
// torture harness's namespace mode (internal/torture, ModeNS: create
// 25, unlink 18, rename 15, readdir 14, lookup 16, getattr 12), which
// makes them 80% of the plan; small writes and MetaBatch groups, which
// ModeNS lacks, take the other 12% and 8%.
var nsMix = []weighted{
	{opCreate, 25}, {opUnlink, 18}, {opRename, 15}, {opReaddir, 14},
	{opLookup, 16}, {opGetattr, 12}, {opSmallWrite, 15}, {opBatch, 10},
}

// plan returns n op kinds in exact proportion to mix, in seeded order:
// every seed runs the same mix, so seeds differ in order, targets and
// sizes but not in how much of each kind of work they do.
func plan(rng *rand.Rand, n int, mix []weighted) []opKind {
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	out := make([]opKind, 0, n)
	for _, w := range mix {
		for k := 0; k < n*w.weight/total; k++ {
			out = append(out, w.kind)
		}
	}
	for len(out) < n {
		out = append(out, mix[0].kind)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// count returns how many ops of kind k a plan holds.
func count(plan []opKind, k opKind) int {
	n := 0
	for _, x := range plan {
		if x == k {
			n++
		}
	}
	return n
}

// strata returns n sizes in [lo, hi], one drawn from each of n equal
// strata, in seeded order.
func strata(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i, k := range rng.Perm(n) {
		out[i] = lo + int((float64(k)+rng.Float64())/float64(n)*float64(hi-lo+1))
	}
	return out
}

// nextSize pops the next planned write size.
func (c *nsClient) nextSize() int {
	n := c.sizes[c.sizeIdx%len(c.sizes)]
	c.sizeIdx++
	return n
}

// nsOp runs one namespace op of the given kind.
func (c *nsClient) nsOp(r *run, p *sim.Proc, kind opKind) {
	switch kind {
	case opCreate:
		c.create(r, p)
	case opSmallWrite:
		f := c.pickFile()
		off, n := c.writeRange(f, c.nextSize(), msMaxFileSize)
		c.write(r, p, "small-write", f, off, n)
	case opLookup:
		f := c.pickFile()
		if resp, ok := c.metaOp(r, p, "lookup", &rfsrv.Req{Op: rfsrv.OpLookup, Ino: f.dir.ino, Name: f.name}); ok && resp.Attr.Ino != f.ino {
			r.mismatch("client %d: lookup %s/%s = ino %d, want %d", c.idx, f.dir.name, f.name, resp.Attr.Ino, f.ino)
		}
	case opGetattr:
		f := c.pickFile()
		if resp, ok := c.metaOp(r, p, "getattr", &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: f.ino}); ok && resp.Attr.Size != int64(len(f.data)) {
			r.mismatch("client %d: getattr %s/%s size %d, want %d", c.idx, f.dir.name, f.name, resp.Attr.Size, len(f.data))
		}
	case opReaddir:
		d := c.pickDir()
		if resp, ok := c.metaOp(r, p, "readdir", &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: d.ino}); ok {
			c.checkListing(r, d, resp.Entries)
		}
	case opRename:
		c.rename(r, p)
	case opUnlink:
		if len(c.files) <= msMinFiles {
			c.create(r, p)
			return
		}
		f := c.pickFile()
		if _, ok := c.metaOp(r, p, "unlink", &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: f.dir.ino, Name: f.name}); ok {
			c.removeFile(f)
		}
	case opBatch:
		c.batch(r, p)
	}
}

// writeRange places a write of n bytes: an append while the file stays
// under maxSize, otherwise (and 40% of the time) an overwrite inside
// the file, so a write never leaves a hole.
func (c *nsClient) writeRange(f *nsFile, n, maxSize int) (int64, int) {
	size := int64(len(f.data))
	if size > 0 && (c.rng.Intn(100) < 40 || size+int64(n) > int64(maxSize)) {
		n = int(min(int64(n), size))
		return c.rng.Int63n(size - int64(n) + 1), n
	}
	return size, n
}

func (c *nsClient) create(r *run, p *sim.Proc) {
	d, name := c.pickDir(), c.newName()
	if resp, ok := c.metaOp(r, p, "create", &rfsrv.Req{Op: rfsrv.OpCreate, Ino: d.ino, Name: name}); ok {
		c.files = append(c.files, &nsFile{dir: d, name: name, ino: resp.Attr.Ino})
	}
}

// write stores seed-derived bytes at off through Cluster.Write.
func (c *nsClient) write(r *run, p *sim.Proc, kind string, f *nsFile, off int64, n int) {
	buf := c.scratch[:n]
	fill(buf, uint64(r.seed)*msWriteSalt+uint64(c.idx)<<24+uint64(c.serial)<<8+uint64(c.writes), off)
	if err := c.node.Kernel.WriteBytes(c.va, buf); err != nil {
		r.mismatch("client %d: stage write buffer: %v", c.idx, err)
		return
	}
	o := r.beginOp(p, c.idx, kind)
	sp := r.call(p, o, "rfsrv", "Cluster.Write")
	resp, err := c.cl.Write(p, f.ino, off, kvec(c.node.Kernel, c.va, n))
	r.tr.end(p, sp)
	if err == nil && int(resp.N) != n {
		err = fmt.Errorf("write %s/%s [%d,+%d) wrote %d bytes", f.dir.name, f.name, off, n, resp.N)
	}
	r.endOp(p, o, int64(n), err)
	c.writes++
	if err != nil {
		return
	}
	if end := off + int64(n); end > int64(len(f.data)) {
		f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
	}
	copy(f.data[off:], buf)
}

// rename moves a file to a new name, half the time into another of
// the client's directories (usually another owner group).
func (c *nsClient) rename(r *run, p *sim.Proc) {
	f, dst, name := c.pickFile(), c.pickDir(), c.newName()
	if c.rng.Intn(2) == 0 {
		dst = f.dir
	}
	o := r.beginOp(p, c.idx, "rename")
	sp := r.call(p, o, "rfsrv", "Cluster.Rename")
	resp, err := c.cl.Rename(p, f.dir.ino, f.name, dst.ino, name)
	r.tr.end(p, sp)
	if err == nil && resp.Status != rfsrv.StOK {
		err = rfsrv.ErrOf(resp.Status)
	}
	r.endOp(p, o, 0, err)
	if err == nil {
		f.dir, f.name = dst, name
	}
}

// batch issues two creates and two getattrs as one MetaBatch.
func (c *nsClient) batch(r *run, p *sim.Proc) {
	d1, d2 := c.pickDir(), c.pickDir()
	n1, n2 := c.newName(), c.newName()
	g1, g2 := c.pickFile(), c.pickFile()
	reqs := []*rfsrv.Req{
		{Op: rfsrv.OpCreate, Ino: d1.ino, Name: n1},
		{Op: rfsrv.OpGetattr, Ino: g1.ino},
		{Op: rfsrv.OpCreate, Ino: d2.ino, Name: n2},
		{Op: rfsrv.OpGetattr, Ino: g2.ino},
	}
	o := r.beginOp(p, c.idx, "metabatch")
	sp := r.call(p, o, "rfsrv", "Cluster.MetaBatch")
	resps, err := c.cl.MetaBatch(p, reqs)
	r.tr.end(p, sp)
	if err == nil {
		for i, resp := range resps {
			if resp.Status != rfsrv.StOK {
				err = fmt.Errorf("batch entry %d (%v): %w", i, reqs[i].Op, rfsrv.ErrOf(resp.Status))
				break
			}
		}
	}
	r.endOp(p, o, 0, err)
	if err != nil {
		return
	}
	c.files = append(c.files, &nsFile{dir: d1, name: n1, ino: resps[0].Attr.Ino}, &nsFile{dir: d2, name: n2, ino: resps[2].Attr.Ino})
	for i, g := range []*nsFile{g1, g2} {
		if got := resps[1+2*i].Attr.Size; got != int64(len(g.data)) {
			r.mismatch("client %d: batched getattr %s/%s size %d, want %d", c.idx, g.dir.name, g.name, got, len(g.data))
		}
	}
}

// checkListing compares a directory listing with the model.
func (c *nsClient) checkListing(r *run, d *nsDir, entries []kernel.DirEntry) {
	var want []string
	for _, f := range c.files {
		if f.dir == d {
			want = append(want, fmt.Sprintf("%s:%d", f.name, f.ino))
		}
	}
	got := make([]string, 0, len(entries))
	for _, e := range entries {
		got = append(got, fmt.Sprintf("%s:%d", e.Name, e.Ino))
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		r.mismatch("client %d: readdir %s lists %d entries %v, want %d %v", c.idx, d.name, len(got), trim(got), len(want), trim(want))
	}
}

func trim(xs []string) []string {
	if len(xs) > 6 {
		return append(xs[:6:6], "...")
	}
	return xs
}

// auditNS lists every directory and checks every file's size, and
// with content set also reads every file back and checks its bytes.
func (c *nsClient) auditNS(r *run, p *sim.Proc, content bool) {
	for _, d := range c.dirs {
		resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: d.ino})
		if err != nil {
			r.mismatch("client %d: audit readdir %s: %v", c.idx, d.name, err)
			continue
		}
		c.checkListing(r, d, resp.Entries)
	}
	for _, f := range c.files {
		resp, err := c.cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: f.ino})
		if err != nil {
			r.mismatch("client %d: audit getattr %s/%s: %v", c.idx, f.dir.name, f.name, err)
			continue
		}
		if resp.Attr.Size != int64(len(f.data)) {
			r.mismatch("client %d: %s/%s size %d, want %d", c.idx, f.dir.name, f.name, resp.Attr.Size, len(f.data))
		}
		if !content || len(f.data) == 0 {
			continue
		}
		n := len(f.data)
		rr, err := c.cl.Read(p, f.ino, 0, kvec(c.node.Kernel, c.va, n))
		if err != nil || int(rr.N) != n {
			var got uint32
			if rr != nil {
				got = rr.N
			}
			r.mismatch("client %d: audit read %s/%s: %d of %d bytes (%v)", c.idx, f.dir.name, f.name, got, n, err)
			continue
		}
		if err := c.node.Kernel.ReadBytesInto(c.va, c.scratch[:n]); err != nil || !bytes.Equal(c.scratch[:n], f.data) {
			r.mismatch("client %d: %s/%s bytes differ from the model", c.idx, f.dir.name, f.name)
		}
	}
}

type metaStormWL struct {
	srv     *serverSet
	clients []*nsClient
	before  map[string]float64
}

func (w *metaStormWL) setup(r *run, p *sim.Proc) error {
	var err error
	if w.srv, err = addServers(r.hwc, msServers, msReplicas); err != nil {
		return err
	}
	for i := 0; i < msClients; i++ {
		c := &nsClient{idx: i, node: r.hwc.AddNode(fmt.Sprintf("client%d", i)), rng: rand.New(rand.NewSource(r.rng.Int63()))}
		c.plan = plan(c.rng, msOps, nsMix)
		c.sizes = strata(c.rng, count(c.plan, opSmallWrite), 1, msMaxWrite)
		o := viewOpts{window: msWindow, replicas: msReplicas, sharded: true}
		if err := nsSetup(r, p, c, w.srv, o, msDirs, msInitFiles); err != nil {
			return err
		}
		w.clients = append(w.clients, c)
	}
	return nil
}

func (w *metaStormWL) start(r *run) {
	w.before = w.counters()
	for _, c := range w.clients {
		r.live++
		r.env.Spawn(fmt.Sprintf("ms-client%d", c.idx), func(p *sim.Proc) {
			defer func() { r.live-- }()
			for _, kind := range c.plan {
				c.nsOp(r, p, kind)
			}
		})
	}
}

func (w *metaStormWL) counters() map[string]float64 {
	views := make([]*rfsrv.Cluster, 0, len(w.clients))
	for _, c := range w.clients {
		views = append(views, c.cl)
	}
	return rfCounters(w.srv, views, nil, nil)
}

func (w *metaStormWL) audit(r *run, p *sim.Proc) {
	for _, c := range w.clients {
		c.auditNS(r, p, false)
	}
}

func (w *metaStormWL) layers(m map[string]float64, ops float64) {
	writes := 0
	for _, c := range w.clients {
		writes += c.writes
	}
	clusterLayers(m, w.before, w.counters(), ops, float64(writes))
}
