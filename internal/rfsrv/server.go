package rfsrv

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/sim"
	"repro/internal/vm"
)

// BackingFS is what the server serves: a filesystem whose data blocks
// have physical addresses (so read replies can be sent zero-copy,
// straight from the block store — the server-side analogue of the
// paper's physical-address primitives).
type BackingFS interface {
	kernel.FileSystem
	FrameAt(ino kernel.InodeID, idx int64) *mem.Frame
}

// Server is the ORFA/ORFS file server.
type Server struct {
	node *hw.Node
	fs   BackingFS
	zero *mem.Frame // shared zero page for holes

	// epochs is the per-inode size epoch, the server half of the
	// cluster's size-coherence protocol (DESIGN.md §9): bumped by every
	// exact size set (OpTruncate, OpSetSize in exact mode) and NEVER by
	// data writes or grow-mode reconciliation. Exact sets always fan out
	// to every alive server of a cluster while grow reconciliation may
	// skip servers whose local size is already current, so this bump
	// discipline keeps epochs replicated-identical across a cluster —
	// which is what lets a client treat ANY server's reply epoch as the
	// coherence signal. Every reply carries the epoch of the inode it
	// resolves (Resp.Epoch).
	epochs map[kernel.InodeID]uint64

	// layouts records each regular file's stripe-layout class
	// (DESIGN.md §10), set by a create hint or OpSetLayout. Absence
	// means LayoutStandard — unhinted creates never populate the map,
	// so a policy-free cluster costs no entries. The server itself
	// serves whatever byte ranges it is asked for regardless of class;
	// the class is authoritative placement metadata FOR CLIENTS, carried
	// in every reply that resolves the inode (Resp.Layout) so any round
	// trip teaches a cluster client where the file's data lives.
	layouts map[kernel.InodeID]LayoutClass

	// sessions is the per-client protocol state: one entry per (node,
	// endpoint) pair that has sent a request, tracking that client's
	// sliding window as seen from the server.
	sessions map[clientKey]*ClientSession

	// workFree recycles MX work records (and their header-scratch
	// buffers) between the dispatcher and the workers — one simulated
	// host, so a plain freelist needs no locking.
	workFree []*mxWork

	// Sharded-namespace state (see EnableSharding): when shard is set
	// this server owns only the directories whose routing residue falls
	// in [shardIdx, shardIdx+shardR) mod shardN and refuses namespace
	// mutations outside that slice with StNotOwner. sfs is fs narrowed
	// to the sharded verbs; renames holds the source-side marks of
	// in-flight two-phase renames (see OpRenamePrepare).
	shard    bool
	shardIdx int
	shardN   int
	shardR   int
	sfs      ShardBackingFS
	renames  map[renameKey]renameMark

	// member is the membership-view epoch this server last committed
	// (OpMember, DESIGN.md §13), stamped into every reply's MemberEpoch
	// so clients routing under an older view find out on their next
	// round trip. Zero for the fixed-membership clusters every
	// pre-elastic test and figure builds.
	member uint64

	// Requests counts served operations; Batched counts requests that
	// arrived packed behind another in one message (§3.3-style
	// combining, client side).
	Requests, Batched sim.Counter
}

// getWork takes a work record from the freelist (or allocates one).
func (s *Server) getWork() *mxWork {
	if k := len(s.workFree); k > 0 {
		w := s.workFree[k-1]
		s.workFree = s.workFree[:k-1]
		return w
	}
	return &mxWork{rawBuf: make([]byte, 4096)}
}

// putWork recycles a finished work record.
func (s *Server) putWork(w *mxWork) {
	w.req, w.raw, w.buf, w.sess = nil, nil, nil, nil
	s.workFree = append(s.workFree, w)
}

type clientKey struct {
	node hw.NodeID
	ep   uint8
}

// ClientSession is the server-side record of one client endpoint:
// how many of its requests are in the server right now (queued or
// being served) and the deepest window it has kept open. Workers use
// it for accounting; tests use it to verify pipelining reached the
// server.
type ClientSession struct {
	Node hw.NodeID
	EP   uint8

	Outstanding    int
	MaxOutstanding int
	Served         sim.Counter
}

// NewServer creates a server for fs on node.
func NewServer(node *hw.Node, fs BackingFS) *Server {
	zero, err := node.Mem.AllocFrame()
	if err != nil {
		panic(err)
	}
	return &Server{
		node: node, fs: fs, zero: zero,
		epochs:   make(map[kernel.InodeID]uint64),
		layouts:  make(map[kernel.InodeID]LayoutClass),
		sessions: make(map[clientKey]*ClientSession),
	}
}

// session returns (creating on first contact) the per-client state.
func (s *Server) session(src hw.NodeID, ep uint8) *ClientSession {
	k := clientKey{src, ep}
	cs := s.sessions[k]
	if cs == nil {
		cs = &ClientSession{Node: src, EP: ep}
		s.sessions[k] = cs
	}
	return cs
}

// Sessions returns the per-client session records (stats, tests) in
// (node, endpoint) order.
func (s *Server) Sessions() []*ClientSession {
	out := make([]*ClientSession, 0, len(s.sessions))
	for _, cs := range s.sessions {
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].EP < out[j].EP
	})
	return out
}

// handleMeta executes a metadata request against the backing store.
func (s *Server) handleMeta(p *sim.Proc, req *Req) *Resp {
	resp := &Resp{Seq: req.Seq}
	ino := req.Ino
	if ino == 0 {
		ino = s.fs.Root()
	}
	var err error
	//analyze:dispatch ops group=serve
	switch req.Op {
	case OpLookup:
		resp.Attr, err = s.fs.Lookup(p, ino, req.Name)
	case OpGetattr:
		resp.Attr, err = s.fs.Getattr(p, ino)
	case OpReaddir:
		resp.Entries, err = s.fs.Readdir(p, ino)
	case OpCreate:
		// Layout carries the creator's layout-class hint (zero is
		// LayoutStandard). Out-of-range hints are protocol violations.
		if !ValidLayout(req.Layout) {
			err = ErrInval
			break
		}
		if s.shard {
			resp.Attr, err = s.shardMakeNode(p, ino, req, kernel.RegularFile)
		} else {
			resp.Attr, err = s.fs.Create(p, ino, req.Name)
		}
		if err == nil {
			s.setLayout(resp.Attr.Ino, req.Layout)
		}
	case OpMkdir:
		if s.shard {
			resp.Attr, err = s.shardMakeNode(p, ino, req, kernel.Directory)
			break
		}
		resp.Attr, err = s.fs.Mkdir(p, ino, req.Name)
	case OpUnlink:
		if s.shard {
			// The sharded unlink replies with the victim's attributes:
			// the owner group is the only place the client can learn the
			// dead inode it must lazily scrub everywhere else.
			resp.Attr, err = s.shardUnlink(p, ino, req)
			break
		}
		// Resolve the victim first (a free map lookup) so its size-epoch
		// entry can be pruned with it — unpruned entries would leak for
		// the server's lifetime, and a backing store that recycled inode
		// numbers would hand a fresh file a stale epoch.
		victim, lerr := s.fs.Lookup(p, ino, req.Name)
		if err = s.fs.Unlink(p, ino, req.Name); err == nil && lerr == nil {
			delete(s.epochs, victim.Ino)
			delete(s.layouts, victim.Ino)
		}
	case OpRmdir:
		if s.shard {
			if !s.ownsDir(ino) {
				err = ErrNotOwner
				break
			}
			if s.renameMarked(ino, req.Name) {
				err = ErrBusy
				break
			}
		}
		err = s.fs.Rmdir(p, ino, req.Name)
	case OpTruncate:
		if req.Off < 0 {
			err = ErrInval // a negative size would corrupt the block map
		} else if err = s.fs.Truncate(p, ino, req.Off); err == nil {
			// An exact size set invalidates every cached view of the
			// file's size: bump the epoch (see the epochs field).
			s.epochs[ino]++
		}
	case OpSetSize:
		err = s.handleSetSize(p, ino, req, resp)
	case OpSetLayout:
		if !ValidLayout(req.Layout) {
			err = ErrInval
			break
		}
		// A sharded server may not hold the inode yet: the class flip
		// fans to every server, like an exact size set.
		s.materializeOnDemand(p, ino, kernel.RegularFile)
		if resp.Attr, err = s.fs.Getattr(p, ino); err != nil {
			break
		}
		s.setLayout(ino, req.Layout)
		// A layout change relocates data, so every cached (size, layout)
		// view of the file elsewhere is now wrong: bump the size epoch
		// and let the validated cache invalidate them, exactly like a
		// truncate (see Server.epochs).
		s.epochs[ino]++
	case OpLink:
		resp.Attr, err = s.handleLink(p, ino, req)
	case OpMaterialize:
		resp.Attr, err = s.handleMaterialize(p, ino, req)
	case OpScrub:
		err = s.handleScrub(p, ino, req)
	case OpRenamePrepare:
		resp.Attr, err = s.handleRenamePrepare(p, ino, req)
	case OpRenameFinalize:
		err = s.handleRenameFinalize(p, ino, req)
	case OpRenameAbort:
		err = s.handleRenameAbort(p, ino, req)
	case OpRenameLocal:
		resp.Attr, err = s.handleRenameLocal(p, ino, req)
	case OpMember:
		err = s.handleMember(p, req)
	case OpSyncEpoch:
		// Resync-only epoch alignment (see the opcode): set the inode's
		// size epoch so the replayed mutation that follows lands at the
		// epoch the rest of the cluster recorded.
		s.materializeOnDemand(p, ino, kernel.RegularFile)
		if req.Epoch == 0 {
			delete(s.epochs, ino)
		} else {
			s.epochs[ino] = req.Epoch
		}
		resp.Attr, err = s.fs.Getattr(p, ino)
	default:
		err = fmt.Errorf("rfsrv: bad op %v", req.Op)
	}
	resp.Status = StatusOf(err)
	// Every reply advertises the size epoch and layout class of the
	// inode it resolved (the looked-up child when the operation returned
	// one), so any round trip revalidates a cluster client's size cache
	// and teaches it the file's placement.
	if resp.Attr.Ino != 0 {
		resp.Epoch = s.epochs[resp.Attr.Ino]
		resp.Layout = s.layouts[resp.Attr.Ino]
	} else {
		resp.Epoch = s.epochs[ino]
		resp.Layout = s.layouts[ino]
	}
	resp.MemberEpoch = s.member
	return resp
}

// setLayout records an inode's layout class; LayoutStandard is the
// absence of an entry (see the layouts field).
func (s *Server) setLayout(ino kernel.InodeID, lc LayoutClass) {
	if lc == LayoutStandard {
		delete(s.layouts, ino)
	} else {
		s.layouts[ino] = lc
	}
}

// handleMember commits a new membership view on this server
// (DESIGN.md §13): it adopts the epoch for reply stamping and, in
// sharded mode, swaps the §11 ownership geometry (its own replication
// factor kept) and re-bases the backing store's minting partition past
// the mint floor so inodes minted under the new geometry route by
// (ino−2) mod N and never collide with old ones. A leaving server
// (position -1) only adopts the epoch.
func (s *Server) handleMember(p *sim.Proc, req *Req) error {
	pos, n := int(req.Off), int(req.Len)
	if req.Off < -1 || n <= 0 || pos >= n || s.shard && s.shardR > n {
		return ErrInval
	}
	s.member = req.Epoch
	if !s.shard || pos < 0 {
		return nil
	}
	s.shardIdx, s.shardN = pos, n
	if pf, ok := s.fs.(interface {
		SetInodePartitionFloor(index, count int, floor kernel.InodeID)
	}); ok {
		pf.SetInodePartitionFloor(pos, n, req.Ino)
	}
	return nil
}

// handleSetSize executes the size-coherence operation: a grow-only
// reconciliation (size = max(size, Off), epoch untouched) or an exact
// set (size = Off, epoch bumped), refused with StStale when the
// writer's observed epoch is behind — the reply then carries the
// authoritative (size, epoch) so the writer revalidates in one round
// trip.
func (s *Server) handleSetSize(p *sim.Proc, ino kernel.InodeID, req *Req, resp *Resp) error {
	if req.Off < 0 {
		return ErrInval // a negative size would corrupt the block map
	}
	if req.Len > SetSizeExact {
		return ErrInval // not a mode
	}
	// A sharded server may first hear of a foreign-owned inode through
	// a size publish or global truncate: materialize a stub (epoch 0,
	// matching what every fresh replica would hold) and proceed.
	s.materializeOnDemand(p, ino, kernel.RegularFile)
	if s.epochs[ino] != req.Epoch {
		// Stale writer: report, and let the getattr below fill the
		// authoritative attributes for revalidation.
		if a, aerr := s.fs.Getattr(p, ino); aerr == nil {
			resp.Attr = a
		}
		return ErrStaleEpoch
	}
	var err error
	if req.Len == SetSizeExact {
		if err = s.fs.Truncate(p, ino, req.Off); err == nil {
			s.epochs[ino]++
			resp.Attr, err = s.fs.Getattr(p, ino)
		}
		return err
	}
	resp.Attr, err = s.fs.Getattr(p, ino)
	if err == nil && req.Off > resp.Attr.Size {
		// Grow-only: idempotent, replayable against any subset of
		// servers, and deliberately epoch-neutral (see Server.epochs).
		if err = s.fs.Truncate(p, ino, req.Off); err == nil {
			resp.Attr, err = s.fs.Getattr(p, ino)
		}
	}
	return err
}

// readExtents builds the zero-copy reply extents for a read: physical
// runs of the file's block frames (the zero page for holes), clipped to
// EOF. It returns the response and the extents to transmit.
func (s *Server) readExtents(p *sim.Proc, req *Req) (*Resp, []mem.Extent) {
	resp := &Resp{Seq: req.Seq}
	// A negative or overflowing range is a protocol violation, not a
	// short read: reject it outright instead of clipping silently (the
	// clip below assumes a well-formed [Off, Off+Len) window).
	if req.Off < 0 || req.Off+int64(req.Len) < req.Off {
		resp.Status = StInval
		return resp, nil
	}
	attr, err := s.fs.Getattr(p, req.Ino)
	if err != nil {
		if s.shard && err == kernel.ErrNotFound {
			// Sharded data server that never saw this inode: nothing of
			// it lives here yet, which reads as EOF, not as an error —
			// the stripe layout is global but materialization is lazy.
			return resp, nil
		}
		resp.Status = StatusOf(err)
		return resp, nil
	}
	n := int64(req.Len)
	if req.Off >= attr.Size {
		n = 0
	} else if req.Off+n > attr.Size {
		n = attr.Size - req.Off
	}
	var xs []mem.Extent
	off := req.Off
	left := n
	for left > 0 {
		idx := off / mem.PageSize
		pgOff := int(off % mem.PageSize)
		chunk := int64(mem.PageSize - pgOff)
		if chunk > left {
			chunk = left
		}
		f := s.fs.FrameAt(req.Ino, idx)
		if f == nil {
			f = s.zero // hole
		}
		xs = append(xs, mem.Extent{Addr: f.Addr() + mem.PhysAddr(pgOff), Len: int(chunk)})
		off += chunk
		left -= chunk
	}
	resp.N = uint32(n)
	resp.Attr = attr
	resp.Epoch = s.epochs[req.Ino]
	resp.Layout = s.layouts[req.Ino]
	resp.MemberEpoch = s.member
	return resp, mem.MergeExtents(xs)
}

// handleWrite applies inline write data (already landed in the
// transport's bounce buffer, described by src).
func (s *Server) handleWrite(p *sim.Proc, req *Req, src core.Vector) *Resp {
	resp := &Resp{Seq: req.Seq}
	if req.Off < 0 || req.Off+int64(req.Len) < req.Off {
		resp.Status = StInval
		return resp
	}
	s.materializeOnDemand(p, req.Ino, kernel.RegularFile)
	n, err := s.fs.WriteDirect(p, req.Ino, req.Off, src)
	resp.Status = StatusOf(err)
	resp.N = uint32(n)
	if err == nil {
		if a, err2 := s.fs.Getattr(p, req.Ino); err2 == nil {
			resp.Attr = a
		}
	}
	// Data writes extend local sizes but never bump the size epoch
	// (see Server.epochs); the reply still advertises the current one,
	// and the layout class along with it.
	resp.Epoch = s.epochs[req.Ino]
	resp.Layout = s.layouts[req.Ino]
	resp.MemberEpoch = s.member
	return resp
}

// ---- MX transport ----

// mxWork is one received request message on its way from the receive
// dispatcher to the worker pool: the decoded leading request, the raw
// message (which may carry inline write data, or further packed
// metadata requests), and the pooled bounce buffer the message landed
// in (released once the worker is done with it).
type mxWork struct {
	req      *Req
	src      hw.NodeID
	raw      []byte // leading <=4096 bytes (header+name, or a packed batch)
	rawBuf   []byte // backing storage for raw, reused across recycles
	n        int    // full message length (write payload stays in buf)
	consumed int
	buf      *fabric.Buffer
	sess     *ClientSession
}

// ServeMX serves the protocol on MX kernel endpoint epID: one receive
// dispatcher keeps a request receive posted and feeds a shared queue
// that `workers` worker processes drain. Replacing the former
// one-synchronous-loop-per-worker shape, the dispatcher can accept a
// pipelined client's next request while every worker is still busy —
// the server half of the protocol's sliding window.
func (s *Server) ServeMX(m *mx.MX, epID uint8, workers int) (*mx.Endpoint, error) {
	ep, err := m.OpenEndpoint(epID, true)
	if err != nil {
		return nil, err
	}
	env := s.node.Cluster.Env
	queue := sim.NewChan[*mxWork](env)
	env.Spawn(fmt.Sprintf("%s-rfsrv-mx-rx", s.node.Name), func(p *sim.Proc) {
		s.mxDispatch(p, ep, queue)
	})
	for w := 0; w < workers; w++ {
		w := w
		env.Spawn(fmt.Sprintf("%s-rfsrv-mx-%d", s.node.Name, w), func(p *sim.Proc) {
			s.mxWorker(p, ep, queue)
		})
	}
	return ep, nil
}

// mxDispatch receives request messages into pooled bounce buffers and
// queues them for the workers. Each outstanding request holds its own
// buffer (returned to the pool when its worker finishes), so the
// queue depth is bounded only by the clients' aggregate window.
func (s *Server) mxDispatch(p *sim.Proc, ep *mx.Endpoint, queue *sim.Chan[*mxWork]) {
	kern := s.node.Kernel
	pool := fabric.PoolOf(s.node)
	bounceLen := MaxWriteChunk + HdrBufSize
	reqMatch := core.Match{Bits: reqTag, Mask: 15}
	for {
		buf, err := pool.Get(bounceLen)
		if err != nil {
			panic(err)
		}
		rr, err := ep.Recv(p, reqMatch, buf.KernelVec(bounceLen))
		if err != nil {
			panic(err)
		}
		st := rr.Wait(p)
		// Only the header (plus a possible packed batch) is decoded on
		// the host: requests are capped at 4096 bytes by the client, so
		// a longer message is a write whose payload stays in the bounce
		// buffer and is consumed in place by the worker. Copying all of
		// st.Len here would drag up to MaxWriteChunk through the kernel
		// for nothing.
		head := st.Len
		if head > 4096 {
			head = 4096
		}
		w := s.getWork()
		raw := w.rawBuf[:head]
		if err := kern.ReadBytesInto(buf.VA(), raw); err != nil {
			panic(err)
		}
		req, consumed, err := DecodeReq(raw)
		if err != nil {
			buf.Release()
			s.putWork(w)
			continue // malformed: drop
		}
		s.Requests.Add(st.Len)
		sess := s.session(st.Src, req.EP)
		sess.Outstanding++
		if sess.Outstanding > sess.MaxOutstanding {
			sess.MaxOutstanding = sess.Outstanding
		}
		w.req, w.src, w.raw, w.n, w.consumed, w.buf, w.sess = req, st.Src, raw, st.Len, consumed, buf, sess
		queue.Send(w)
	}
}

func (s *Server) mxWorker(p *sim.Proc, ep *mx.Endpoint, queue *sim.Chan[*mxWork]) {
	kern := s.node.Kernel
	hdrBuf, err := fabric.PoolOf(s.node).Get(HdrBufSize)
	if err != nil {
		panic(err)
	}
	hdrVA := hdrBuf.VA()
	encBuf := make([]byte, 0, respFixed)
	for {
		w := queue.Recv(p)
		s.node.CPU.VFS(p) // request dispatch
		//analyze:dispatch ops group=serve
		switch w.req.Op {
		case OpRead:
			resp, xs := s.readExtents(p, w.req)
			// Data first (zero-copy from the block store), then the
			// header. A zero-length data message is still sent so the
			// client's posted receive always completes.
			dataVec := physVec(xs)
			if len(dataVec) == 0 {
				dataVec = core.Of(core.PhysSeg(s.zero.Addr(), 0))
			}
			if _, err := ep.Send(p, w.src, w.req.EP, tag(w.req.Seq, w.req.EP, kindData), dataVec); err != nil {
				panic(err)
			}
			encBuf = s.replyMX(p, ep, kern, hdrVA, encBuf, w.src, w.req, resp)
		case OpWrite:
			src := core.Of(core.KernelSeg(kern, w.buf.VA()+vm.VirtAddr(w.consumed), w.n-w.consumed))
			resp := s.handleWrite(p, w.req, src)
			encBuf = s.replyMX(p, ep, kern, hdrVA, encBuf, w.src, w.req, resp)
		default:
			resp := s.handleMeta(p, w.req)
			encBuf = s.replyMX(p, ep, kern, hdrVA, encBuf, w.src, w.req, resp)
			// Trailing bytes after a metadata request are further
			// packed requests (client-side combining): answer each.
			for _, extra := range s.unpack(w.raw[w.consumed:]) {
				s.Batched.Add(1)
				w.sess.Served.Add(1)
				resp := s.handleMeta(p, extra)
				encBuf = s.replyMX(p, ep, kern, hdrVA, encBuf, w.src, extra, resp)
			}
		}
		w.sess.Served.Add(1)
		w.sess.Outstanding--
		w.buf.Release()
		s.putWork(w)
	}
}

// unpack decodes the metadata requests packed behind the first one in
// a combined message. A decode error drops the remainder (malformed
// trailing bytes), like any other malformed request.
func (s *Server) unpack(raw []byte) []*Req {
	var out []*Req
	for len(raw) >= reqFixed {
		req, consumed, err := DecodeReq(raw)
		if err != nil || req.Op == OpRead || req.Op == OpWrite {
			break
		}
		out = append(out, req)
		raw = raw[consumed:]
	}
	return out
}

// replyMX encodes resp into enc (a per-worker scratch, safe because
// the bytes are copied into the worker's header buffer before Send)
// and returns the scratch for reuse.
func (s *Server) replyMX(p *sim.Proc, ep *mx.Endpoint, kern *vm.AddressSpace, hdrVA vm.VirtAddr, enc []byte, dst hw.NodeID, req *Req, resp *Resp) []byte {
	hdr, err := EncodeRespInto(enc[:0], resp)
	if err != nil {
		resp = &Resp{Seq: req.Seq, Status: StIO}
		hdr, _ = EncodeRespInto(enc[:0], resp)
	}
	if err := kern.WriteBytes(hdrVA, hdr); err != nil {
		panic(err)
	}
	if _, err := ep.Send(p, dst, req.EP, tag(req.Seq, req.EP, kindHdr), core.Of(core.KernelSeg(kern, hdrVA, len(hdr)))); err != nil {
		panic(err)
	}
	return hdr
}

// ---- GM transport ----

// ServeGM starts a worker serving the protocol on GM kernel port
// portID. GM offers no vectors and a single event queue, so the server
// (like the client) juggles separate header and data messages and
// filters its completions out of the unique queue — the per-request
// overhead §5.2 blames for the ORFS/GM gap. The same unique queue is
// why GM keeps the ordered single-worker loop instead of the MX
// dispatcher/worker-pool split: completions must be drained by one
// consumer, so requests are served in arrival order (pipelined
// clients still overlap their requests' transfers with its work).
func (s *Server) ServeGM(g *gm.GM, portID uint8) (*gm.Port, error) {
	port, err := g.OpenPort(portID, true)
	if err != nil {
		return nil, err
	}
	env := s.node.Cluster.Env
	env.Spawn(fmt.Sprintf("%s-rfsrv-gm", s.node.Name), func(p *sim.Proc) {
		s.gmWorker(p, port)
	})
	return port, nil
}

// gmReplies tracks reply-header buffers whose send is still in the
// NIC: GM gathers the payload at DMA time, so a header buffer cannot
// be reused (or recycled) until its SendComplete event arrives. Each
// reply stages in its own pooled buffer; the event drain loop releases
// them. Without this, back-to-back replies to a pipelined client would
// overwrite one another's staging — the shared-buffer bug the
// synchronous protocol could never hit.
type gmReplies struct {
	pending map[uint64][]*fabric.Buffer // hdr send tag → staged buffers, FIFO
}

// sent records a reply buffer as in-flight under its send tag.
func (t *gmReplies) sent(tag uint64, buf *fabric.Buffer) {
	t.pending[tag] = append(t.pending[tag], buf)
}

// event releases the oldest staged buffer for a completed header send
// (same-tag sends complete in FIFO order on the NIC's transmit path).
func (t *gmReplies) event(ev gm.Event) {
	if ev.Type != gm.SendComplete {
		return
	}
	q := t.pending[ev.Tag]
	if len(q) == 0 {
		return
	}
	q[0].Release()
	if len(q) == 1 {
		delete(t.pending, ev.Tag)
	} else {
		t.pending[ev.Tag] = q[1:]
	}
}

func (s *Server) gmWorker(p *sim.Proc, port *gm.Port) {
	kern := s.node.Kernel
	pool := fabric.PoolOf(s.node)
	reqBuf, err := pool.Get(4096)
	if err != nil {
		panic(err)
	}
	reqVA, reqXS := reqBuf.VA(), reqBuf.Extents(4096)
	bounceBuf, err := pool.Get(MaxWriteChunk)
	if err != nil {
		panic(err)
	}
	bounceVA := bounceBuf.VA()
	replies := &gmReplies{pending: make(map[uint64][]*fabric.Buffer)}
	// Request bytes are decoded in place from this scratch each
	// iteration: DecodeReq copies everything it keeps (names included),
	// and the GM loop is strictly sequential, so reuse is safe.
	rawScratch := make([]byte, 4096)
	encBuf := make([]byte, 0, respFixed)
	for {
		if err := port.PostRecvPhysical(p, reqTag, reqXS); err != nil {
			panic(err)
		}
		ev := s.gmWaitRecv(p, port, replies, reqTag)
		raw := rawScratch[:ev.Len]
		if err := kern.ReadBytesInto(reqVA, raw); err != nil {
			panic(err)
		}
		req, consumed, err := DecodeReq(raw)
		if err != nil {
			continue
		}
		s.Requests.Add(ev.Len)
		sess := s.session(ev.Src, req.EP)
		sess.Outstanding++
		if sess.Outstanding > sess.MaxOutstanding {
			sess.MaxOutstanding = sess.Outstanding
		}
		s.node.CPU.VFS(p)
		//analyze:dispatch ops group=serve
		switch req.Op {
		case OpRead:
			resp, xs := s.readExtents(p, req)
			if len(xs) == 0 {
				xs = []mem.Extent{{Addr: s.zero.Addr(), Len: 0}}
			}
			// Data then header, as separate messages (no vectors in GM).
			if err := port.SendPhysical(p, ev.Src, req.EP, tag(req.Seq, req.EP, kindData), xs); err != nil {
				panic(err)
			}
			encBuf = s.replyGM(p, port, kern, replies, encBuf, ev.Src, req, resp)
		case OpWrite:
			// The data message follows the request; post the bounce now
			// (it has usually already arrived and sits in the
			// unexpected queue — GM's eager staging).
			n := int(req.Len)
			if n > MaxWriteChunk {
				encBuf = s.replyGM(p, port, kern, replies, encBuf, ev.Src, req, &Resp{Seq: req.Seq, Status: StIO})
				sess.Served.Add(1)
				sess.Outstanding--
				continue
			}
			bxs := bounceBuf.Extents(max(n, 1))
			if err := port.PostRecvPhysical(p, tag(req.Seq, req.EP, kindData), bxs); err != nil {
				panic(err)
			}
			s.gmWaitRecv(p, port, replies, tag(req.Seq, req.EP, kindData))
			resp := s.handleWrite(p, req, core.Of(core.KernelSeg(kern, bounceVA, n)))
			encBuf = s.replyGM(p, port, kern, replies, encBuf, ev.Src, req, resp)
		default:
			resp := s.handleMeta(p, req)
			encBuf = s.replyGM(p, port, kern, replies, encBuf, ev.Src, req, resp)
			for _, extra := range s.unpack(raw[consumed:]) {
				s.Batched.Add(1)
				sess.Served.Add(1)
				resp := s.handleMeta(p, extra)
				encBuf = s.replyGM(p, port, kern, replies, encBuf, ev.Src, extra, resp)
			}
		}
		sess.Served.Add(1)
		sess.Outstanding--
	}
}

// gmWaitRecv blocks on the unique event queue until the receive with
// the given tag completes, consuming (and paying for) the unrelated
// send completions that share the queue.
func (s *Server) gmWaitRecv(p *sim.Proc, port *gm.Port, replies *gmReplies, want uint64) gm.Event {
	for {
		ev := port.WaitEvent(p)
		replies.event(ev) // recycle reply staging whose send completed
		if ev.Type == gm.RecvComplete && ev.Tag == want {
			return ev
		}
	}
}

// replyGM encodes resp into enc (the worker's scratch — the bytes are
// copied into a pooled staging buffer before Send) and returns the
// scratch for reuse.
func (s *Server) replyGM(p *sim.Proc, port *gm.Port, kern *vm.AddressSpace, replies *gmReplies, enc []byte, dst hw.NodeID, req *Req, resp *Resp) []byte {
	hdr, err := EncodeRespInto(enc[:0], resp)
	if err != nil {
		resp = &Resp{Seq: req.Seq, Status: StIO}
		hdr, _ = EncodeRespInto(enc[:0], resp)
	}
	// Each reply stages in its own pooled buffer: GM gathers the
	// payload at DMA time, so the buffer stays reserved until its
	// SendComplete comes back through the event queue.
	buf, err := fabric.PoolOf(s.node).Get(HdrBufSize)
	if err != nil {
		panic(err)
	}
	if err := kern.WriteBytes(buf.VA(), hdr); err != nil {
		panic(err)
	}
	hdrTag := tag(req.Seq, req.EP, kindHdr)
	if err := port.SendPhysical(p, dst, req.EP, hdrTag, buf.Extents(len(hdr))); err != nil {
		panic(err)
	}
	replies.sent(hdrTag, buf)
	return hdr
}
