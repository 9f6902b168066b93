// Elastic membership (DESIGN.md §13): the layer that turns the
// cluster's construction-time server set into a mutable, epoch-stamped
// membership view. Two mechanisms live here. (1) Journaled resync:
// while a server is excluded, the cluster records the namespace
// mutations, exact size sets, layout changes, and data-stripe writes
// the server misses in a per-slot journal; Reinstate replays the
// journal — idempotently, on the grow-only/exact OpSetSize and fan-out
// semantics the protocol already has — instead of refusing, and spills
// to a full-slice resync (memfs slice export/import plus stripe
// re-copy) when the journal outgrows its bounds. (2) Live
// join/leave: Join/Retire rebuild the members position→slot map under
// a shared MemberView, migrating stripes to their new replica sets —
// online under load in the unsharded cluster, stop-world in the
// sharded one — and committing the new geometry on every server with
// OpMember so replies stamp the new membership epoch.
//
// Journals and the bulk-resync channel (slice export, ReadRange/
// WriteRange) are host-level bookkeeping: they cost no simulated time
// and allocate nothing on the fault-free path, so a static-membership
// cluster stays bit-identical. Everything a *returning or joining
// server* is sent during replay and online migration, by contrast, is
// real simulated traffic through the ordinary request path, competing
// with live load.
package rfsrv

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/sim"
)

const (
	// DefaultJournalOps is the default bound on journaled mutations
	// per excluded server before the journal spills to full-slice
	// resync.
	DefaultJournalOps = 4096

	// DefaultJournalBytes is the default bound on journaled dirty data
	// bytes per excluded server before the journal spills.
	DefaultJournalBytes = 8 << 20

	// memberFencePoll is how often a fenced operation re-checks the
	// membership view, and how often an operator re-checks that
	// in-flight operations have drained. Coarse enough not to spin,
	// fine enough that fence latency is negligible next to a request
	// round trip.
	memberFencePoll = 5 * time.Microsecond
)

// journalOp is one namespace mutation an excluded server missed: the
// request to replay, plus what the cluster observed the fan produce —
// the minted inode for creates (verified after replay, since an
// idempotent re-execution must converge on the same number) and the
// resulting size epoch for epoch-bumping ops (replay aligns the
// returning server to wantEpoch−1 with OpSyncEpoch first, so the
// replayed bump lands exactly at wantEpoch).
type journalOp struct {
	req       Req
	wantIno   kernel.InodeID
	wantEpoch uint64
}

// dirtyRange is a byte range of one file written while a server that
// holds (part of) it was excluded.
type dirtyRange struct {
	off int64
	n   int
}

// resyncJournal accumulates what one excluded server missed. ops
// replay in order (namespace mutations are order-sensitive); dirty
// data is a state copy — re-read from live replicas and re-written —
// so it needs no ordering, only coverage, and coalesces adjacent
// writes. Once spilled the journal records nothing further; Reinstate
// then rebuilds the server's whole slice instead.
type resyncJournal struct {
	ops     []journalOp
	dirty   map[kernel.InodeID][]dirtyRange
	order   []kernel.InodeID
	bytes   int64
	spilled bool
}

// SetJournalLimits bounds the per-excluded-server resync journal: at
// most ops mutations and bytes dirty data bytes (0 keeps the current
// value; the defaults are DefaultJournalOps/DefaultJournalBytes).
// Past either bound the journal spills: recording stops and the next
// Reinstate performs a full-slice resync through the peers wired with
// SetResyncPeers.
func (cl *Cluster) SetJournalLimits(ops int, bytes int64) {
	if ops > 0 {
		cl.journalOpCap = ops
	}
	if bytes > 0 {
		cl.journalByteCap = bytes
	}
}

// SetResyncPeers hands the cluster direct handles to its servers, in
// session-slot order, modeling the out-of-band bulk channel a real
// deployment would use for full-slice resync and membership-change
// store rebuilds. Without peers, a spilled journal makes Reinstate
// refuse (legacy behavior), and Join/Retire are unavailable.
func (cl *Cluster) SetResyncPeers(servers []*Server) error {
	if len(servers) != len(cl.sessions) {
		return fmt.Errorf("rfsrv: %d resync peers for %d sessions", len(servers), len(cl.sessions))
	}
	cl.peers = servers
	return nil
}

// JournalSpilled reports whether server slot i's resync journal
// overflowed its bounds, so the next Reinstate will need the
// full-slice resync path (and will refuse without resync peers).
func (cl *Cluster) JournalSpilled(i int) bool {
	return cl.journals != nil && cl.journals[i] != nil && cl.journals[i].spilled
}

// JournalOps returns how many mutations server slot i's resync
// journal currently holds (0 when the server is up or nothing was
// missed).
func (cl *Cluster) JournalOps(i int) int {
	if cl.journals == nil || cl.journals[i] == nil {
		return 0
	}
	return len(cl.journals[i].ops)
}

// JournalBytes returns how many dirty data bytes server slot i's
// resync journal currently holds (0 when the server is up, nothing
// was missed, or the journal spilled).
func (cl *Cluster) JournalBytes(i int) int64 {
	if cl.journals == nil || cl.journals[i] == nil {
		return 0
	}
	return cl.journals[i].bytes
}

func (cl *Cluster) journalOpLimit() int {
	if cl.journalOpCap > 0 {
		return cl.journalOpCap
	}
	return DefaultJournalOps
}

func (cl *Cluster) journalByteLimit() int64 {
	if cl.journalByteCap > 0 {
		return cl.journalByteCap
	}
	return DefaultJournalBytes
}

func (cl *Cluster) journalFor(i int) *resyncJournal {
	if cl.journals == nil {
		cl.journals = make([]*resyncJournal, len(cl.sessions))
	}
	if cl.journals[i] == nil {
		cl.journals[i] = &resyncJournal{}
	}
	return cl.journals[i]
}

func (cl *Cluster) resetJournal(i int) {
	if cl.journals != nil {
		cl.journals[i] = nil
	}
}

func (cl *Cluster) spillJournal(j *resyncJournal) {
	j.spilled = true
	j.ops, j.dirty, j.order, j.bytes = nil, nil, nil, 0
	cl.ResyncSpills.Add(0)
}

// journalMut records one missed mutation in excluded slot i's journal.
func (cl *Cluster) journalMut(i int, req *Req, wantIno kernel.InodeID, wantEpoch uint64) {
	j := cl.journalFor(i)
	if j.spilled {
		return
	}
	if len(j.ops) >= cl.journalOpLimit() {
		cl.spillJournal(j)
		return
	}
	j.ops = append(j.ops, journalOp{req: *req, wantIno: wantIno, wantEpoch: wantEpoch})
}

// journalMutationAll records a fanned mutation in every excluded
// member's journal (the unsharded hook: mutations fan to all members).
func (cl *Cluster) journalMutationAll(req *Req, wantIno kernel.InodeID, wantEpoch uint64) {
	for _, i := range cl.members {
		if cl.down[i] {
			cl.journalMut(i, req, wantIno, wantEpoch)
		}
	}
}

// journalGroup records a group-fanned mutation in the journals of the
// excluded members of owner position's replica group (the sharded
// hook). The request must be the idempotent per-server verb the fan
// actually delivered (OpLink, OpUnlink, OpScrub, ...), not the
// client-facing operation.
func (cl *Cluster) journalGroup(owner int, req *Req, wantIno kernel.InodeID, wantEpoch uint64) {
	n := len(cl.members)
	for j := 0; j < cl.replicas; j++ {
		if i := cl.members[(owner+j)%n]; cl.down[i] {
			cl.journalMut(i, req, wantIno, wantEpoch)
		}
	}
}

// journalDirty records that [off, off+n) of ino was written while
// slot i was excluded.
func (cl *Cluster) journalDirty(i int, ino kernel.InodeID, off int64, n int) {
	if n <= 0 {
		return
	}
	j := cl.journalFor(i)
	if j.spilled {
		return
	}
	if j.bytes+int64(n) > cl.journalByteLimit() {
		cl.spillJournal(j)
		return
	}
	if j.dirty == nil {
		j.dirty = make(map[kernel.InodeID][]dirtyRange)
	}
	rs := j.dirty[ino]
	if len(rs) == 0 {
		j.order = append(j.order, ino)
	}
	if k := len(rs) - 1; k >= 0 && rs[k].off+int64(rs[k].n) == off {
		rs[k].n += n
	} else {
		rs = append(rs, dirtyRange{off: off, n: n})
	}
	j.dirty[ino] = rs
	j.bytes += int64(n)
}

// journalRunDirty records a data write's byte ranges against every
// excluded replica of its runs. Called once per write after the fan,
// with the same run decomposition the write used, so the dirty map
// covers exactly the stripes each excluded server would have held.
func (cl *Cluster) journalRunDirty(ino kernel.InodeID, runs []run) {
	n := len(cl.members)
	for _, r := range runs {
		if r.n <= 0 {
			continue
		}
		for j := 0; j < cl.replicas; j++ {
			if i := cl.members[(r.owner+j)%n]; cl.down[i] {
				cl.journalDirty(i, ino, r.off, r.n)
			}
		}
	}
}

// anyDown reports whether any member is currently excluded — the
// cheap guard in front of every journal hook, so the fault-free path
// costs one slice scan and no allocation.
func (cl *Cluster) anyDown() bool {
	for _, i := range cl.members {
		if cl.down[i] {
			return true
		}
	}
	return false
}

// Reinstate re-admits server slot i after its transport heals. What
// ran during the exclusion decides the path: nothing → plain
// re-admission; a bounded amount → the resync journal is replayed
// against the returning server (namespace mutations in order with
// size epochs aligned via OpSyncEpoch, then missed data stripes
// re-read from live replicas and re-written — all real simulated
// traffic); an unbounded amount (spilled journal) → full-slice resync
// through the peers wired with SetResyncPeers, counted in
// ReinstateRefusals. A replay that fails (transport fault mid-replay,
// or a divergence the idempotent verbs cannot reconcile) leaves the
// server excluded with the journal intact, so the caller can heal the
// fault and call Reinstate again; replay is idempotent, so the retry
// re-runs the whole journal safely. On success the size-cache entries
// established during the exclusion are dropped, exactly as before.
func (cl *Cluster) Reinstate(p *sim.Proc, i int) error {
	if i < 0 || i >= len(cl.sessions) {
		return fmt.Errorf("rfsrv: reinstate server %d: no such server", i)
	}
	if !cl.down[i] {
		return nil
	}
	var j *resyncJournal
	if cl.journals != nil {
		j = cl.journals[i]
	}
	switch {
	case j != nil && j.spilled:
		cl.ReinstateRefusals.Add(0)
		if cl.peers == nil {
			return fmt.Errorf("rfsrv: reinstate server %d: resync journal spilled its bounds and no resync peers are wired; resync its backing store out of band first", i)
		}
		if err := cl.fullResync(p, i); err != nil {
			return fmt.Errorf("rfsrv: reinstate server %d: full-slice resync: %w", i, err)
		}
	case j != nil:
		if err := cl.replayJournal(p, i, j); err != nil {
			return fmt.Errorf("rfsrv: reinstate server %d: %w", i, err)
		}
	default:
		if cl.downNs[i] != cl.nsEpochs[i] {
			// Mutations ran but nothing was journaled — only possible
			// if a hook was bypassed. Refuse rather than readmit a
			// diverged server.
			cl.ReinstateRefusals.Add(0)
			return fmt.Errorf("rfsrv: reinstate server %d: %d namespace/size mutation(s) ran against its slice during its exclusion but were not journaled; resync its backing store out of band first", i, cl.nsEpochs[i]-cl.downNs[i])
		}
	}
	cl.Reinstates.Add(0)
	cl.down[i] = false
	cl.downNs[i] = cl.nsEpochs[i]
	cl.resetJournal(i)
	for ino, e := range cl.sizes {
		if e.downAt&(1<<i) != 0 {
			delete(cl.sizes, ino)
		}
	}
	return nil
}

func (cl *Cluster) replayJournal(p *sim.Proc, i int, j *resyncJournal) error {
	if err := cl.replayOps(p, i, j); err != nil {
		return err
	}
	for _, ino := range j.order {
		for _, r := range j.dirty[ino] {
			if err := cl.replayRange(p, i, ino, r); err != nil {
				return fmt.Errorf("replay data %d@[%d,%d): %w", ino, r.off, r.off+int64(r.n), err)
			}
		}
	}
	return nil
}

// replayOps replays the journaled metadata mutations in order. The
// fast path packs the whole journal — OpSyncEpoch epoch-rewind
// preludes included — into combined MetaBatch flights, so a long
// exclusion replays in a handful of wire rounds instead of one
// serial round trip per op (the server applies a combined flight on
// one worker, strictly in order, so journal order is preserved).
// Statuses are interpreted with the serial path's tolerance rules; a
// status that needs a verification lookup (the server already held a
// prefix of the journal) abandons the batch and re-runs the whole
// journal serially — replay is idempotent, so the re-run is safe and
// the lookups interleave exactly where they are needed.
func (cl *Cluster) replayOps(p *sim.Proc, i int, j *resyncJournal) error {
	if len(j.ops) == 0 {
		return nil
	}
	fallback, err := cl.replayOpsBatched(p, i, j)
	if err != nil {
		return err
	}
	if !fallback {
		for range j.ops {
			cl.ResyncOps.Add(0)
		}
		return nil
	}
	cl.ResyncFallbacks.Add(0)
	for k := range j.ops {
		op := &j.ops[k]
		if err := cl.replayOp(p, i, op); err != nil {
			return fmt.Errorf("replay op %d/%d (%s): %w", k+1, len(j.ops), opNames[op.req.Op], err)
		}
		cl.ResyncOps.Add(0)
	}
	return nil
}

// replayOpsBatched issues the whole journal as combined metadata
// batches against server i and interprets the per-op statuses. It
// returns fallback=true (and no error) when some status requires the
// serial path's verification lookups; transport failures and
// non-tolerated statuses are errors exactly as on the serial path —
// the journal stays intact for a Reinstate retry.
func (cl *Cluster) replayOpsBatched(p *sim.Proc, i int, j *resyncJournal) (fallback bool, err error) {
	reqs := make([]*Req, 0, len(j.ops)+len(j.ops)/2)
	idx := make([]int, 0, cap(reqs)) // journal index +1 per request; 0 marks an epoch prelude
	for k := range j.ops {
		// The flight stamps Seq/EP into each request, so both are copies.
		sync, req := replayForm(&j.ops[k])
		if sync != nil {
			reqs = append(reqs, sync)
			idx = append(idx, 0)
		}
		reqs = append(reqs, &req)
		idx = append(idx, k+1)
	}
	// Like replayRT, transport-level failures (fault, timeout, decode)
	// abort the replay; application statuses ride in the responses for
	// the verdicts below to interpret.
	resps, err := cl.sessions[i].MetaBatch(p, reqs)
	if err != nil {
		if fabric.IsFault(err) || len(resps) != len(reqs) {
			return false, err
		}
		for _, resp := range resps {
			if resp == nil {
				return false, err
			}
		}
	}
	for n, resp := range resps {
		k := idx[n]
		if k == 0 {
			if resp.Status != StOK {
				return false, fmt.Errorf("replay epoch sync: %w", ErrOf(resp.Status))
			}
			continue
		}
		op := &j.ops[k-1]
		verify, err := batchReplayVerdict(op, resp)
		if err != nil {
			return false, fmt.Errorf("replay op %d/%d (%s): %w", k, len(j.ops), opNames[op.req.Op], err)
		}
		if verify {
			return true, nil
		}
	}
	return false, nil
}

// batchReplayVerdict interprets one batched replay response with the
// serial path's tolerance rules (see replayOp). verify=true means the
// status signals an already-applied prefix and needs a verification
// lookup — the caller falls back to the serial path, which performs
// it in place.
func batchReplayVerdict(op *journalOp, resp *Resp) (verify bool, err error) {
	req := &op.req
	//analyze:dispatch ops -OpLookup -OpGetattr -OpReaddir -OpRead -OpWrite -OpRenamePrepare -OpSyncEpoch
	switch req.Op {
	case OpMember:
		return false, ErrOf(resp.Status)

	case OpSetSize, OpSetLayout, OpTruncate:
		if resp.Status == StNotFound {
			// The inode was unlinked later in the journal.
			return false, nil
		}
		return false, ErrOf(resp.Status)

	case OpCreate, OpMkdir:
		switch resp.Status {
		case StOK:
			if op.wantIno != 0 && resp.Attr.Ino != op.wantIno {
				return false, fmt.Errorf("replayed create of %q minted inode %d, cluster holds %d: server diverged", req.Name, resp.Attr.Ino, op.wantIno)
			}
			return false, nil
		case StExists:
			return true, nil
		}
		return false, ErrOf(resp.Status)

	case OpLink:
		switch resp.Status {
		case StOK:
			return false, nil
		case StExists:
			return true, nil
		}
		return false, ErrOf(resp.Status)

	case OpUnlink, OpRmdir, OpScrub, OpMaterialize, OpRenameFinalize, OpRenameAbort:
		switch resp.Status {
		case StOK, StNotFound:
			return false, nil
		}
		return false, ErrOf(resp.Status)

	case OpRenameLocal:
		switch resp.Status {
		case StOK:
			return false, nil
		case StNotFound:
			return true, nil
		}
		return false, ErrOf(resp.Status)
	}
	return false, fmt.Errorf("unreplayable op %s", opNames[req.Op])
}

// replayRT is one replay round trip to server i: transport-level
// failures (fault, timeout, decode) abort the replay; application
// statuses come back for the caller to interpret — replay lives on
// tolerating the statuses an already-applied prefix produces.
func (cl *Cluster) replayRT(p *sim.Proc, i int, req *Req) (*Resp, error) {
	resp, err := cl.syncMeta(p, i, req)
	if err != nil && (resp == nil || fabric.IsFault(err)) {
		return nil, err
	}
	return resp, nil
}

// replayForm returns a journaled op as replay issues it, plus the
// epoch-rewind prelude an epoch-bumping op needs (nil otherwise): the
// OpSyncEpoch that rewinds the returning server's size epoch to
// wantEpoch−1, so the replayed bump lands exactly at wantEpoch —
// idempotent even when the server already applied the op (the rewind
// makes re-application converge, not double-bump). A replayed size set
// observes the rewound epoch.
func replayForm(op *journalOp) (sync *Req, req Req) {
	req = op.req
	switch req.Op {
	case OpSetSize, OpSetLayout, OpTruncate:
		var rewound uint64
		if op.wantEpoch > 0 {
			rewound = op.wantEpoch - 1
			sync = &Req{Op: OpSyncEpoch, Ino: req.Ino, Epoch: rewound}
		}
		if req.Op == OpSetSize {
			req.Epoch = rewound
		}
	}
	return sync, req
}

func (cl *Cluster) replayOp(p *sim.Proc, i int, op *journalOp) error {
	sync, req := replayForm(op)
	// Reads and lookups are never journaled; writes resync through
	// dirty ranges; RenamePrepare is always resolved to Finalize or
	// Abort before it is journaled; SyncEpoch is what replay itself
	// emits.
	//analyze:dispatch ops -OpLookup -OpGetattr -OpReaddir -OpRead -OpWrite -OpRenamePrepare -OpSyncEpoch
	switch req.Op {
	case OpMember:
		resp, err := cl.replayRT(p, i, &req)
		if err != nil {
			return err
		}
		return ErrOf(resp.Status)

	case OpSetSize, OpSetLayout, OpTruncate:
		// Epoch-bumping ops: rewind first (see replayForm).
		if sync != nil {
			resp, err := cl.replayRT(p, i, sync)
			if err != nil {
				return err
			}
			if resp.Status != StOK {
				return ErrOf(resp.Status)
			}
		}
		resp, err := cl.replayRT(p, i, &req)
		if err != nil {
			return err
		}
		if resp.Status == StNotFound {
			// The inode was unlinked later in the journal; the size
			// set is moot.
			return nil
		}
		return ErrOf(resp.Status)

	case OpCreate, OpMkdir:
		resp, err := cl.replayRT(p, i, &req)
		if err != nil {
			return err
		}
		switch resp.Status {
		case StOK:
			if op.wantIno != 0 && resp.Attr.Ino != op.wantIno {
				return fmt.Errorf("replayed create of %q minted inode %d, cluster holds %d: server diverged", req.Name, resp.Attr.Ino, op.wantIno)
			}
			return nil
		case StExists:
			// Already applied (the server held a prefix of the
			// journal): verify the entry resolves to the same inode.
			return cl.verifyEntry(p, i, req.Ino, req.Name, op.wantIno)
		}
		return ErrOf(resp.Status)

	case OpLink:
		resp, err := cl.replayRT(p, i, &req)
		if err != nil {
			return err
		}
		switch resp.Status {
		case StOK:
			return nil
		case StExists:
			return cl.verifyEntry(p, i, req.Ino, req.Name, kernel.InodeID(req.Off))
		}
		return ErrOf(resp.Status)

	case OpUnlink, OpRmdir, OpScrub, OpMaterialize, OpRenameFinalize, OpRenameAbort:
		// Idempotent per-server verbs: absence means already applied.
		resp, err := cl.replayRT(p, i, &req)
		if err != nil {
			return err
		}
		switch resp.Status {
		case StOK, StNotFound:
			return nil
		}
		return ErrOf(resp.Status)

	case OpRenameLocal:
		resp, err := cl.replayRT(p, i, &req)
		if err != nil {
			return err
		}
		switch resp.Status {
		case StOK:
			return nil
		case StNotFound:
			// Source gone: already applied — verify the destination.
			if _, dst, ok := SplitRenameNames(req.Name); ok {
				return cl.verifyEntry(p, i, kernel.InodeID(req.Off), dst, op.wantIno)
			}
		}
		return ErrOf(resp.Status)
	}
	return fmt.Errorf("unreplayable op %s", opNames[req.Op])
}

// verifyEntry checks that (dir, name) resolves to want on server i —
// the convergence check after a replayed mutation reports it was
// already applied.
func (cl *Cluster) verifyEntry(p *sim.Proc, i int, dir kernel.InodeID, name string, want kernel.InodeID) error {
	if want == 0 {
		return nil
	}
	look := Req{Op: OpLookup, Ino: dir, Name: name}
	resp, err := cl.replayRT(p, i, &look)
	if err != nil {
		return err
	}
	if resp.Status != StOK {
		return fmt.Errorf("verify %q after replay: %w", name, ErrOf(resp.Status))
	}
	if resp.Attr.Ino != want {
		return fmt.Errorf("verify %q after replay: resolves to inode %d, cluster holds %d: server diverged", name, resp.Attr.Ino, want)
	}
	return nil
}

// replayRange re-copies one dirty byte range to the returning server:
// read through the cluster's live placement (real striped reads, with
// failover), written straight to server i at the same global offsets.
// A short or empty read means the file shrank or vanished since the
// write — the journaled ops already gave i the authoritative size, so
// the tail is simply not copied.
func (cl *Cluster) replayRange(p *sim.Proc, i int, ino kernel.InodeID, r dirtyRange) error {
	off, end := r.off, r.off+int64(r.n)
	for off < end {
		n := int(end - off)
		if n > MaxWriteChunk {
			n = MaxWriteChunk
		}
		vec, err := cl.stagingVec(n)
		if err != nil {
			return err
		}
		rresp, err := cl.Read(p, ino, off, vec)
		if err != nil {
			if errors.Is(err, kernel.ErrNotFound) {
				return nil // unlinked since the write
			}
			return err
		}
		got := int(rresp.N)
		if got <= 0 {
			return nil // past the file's current end
		}
		wresp, err := cl.sessions[i].Client().Write(p, ino, off, vec.Slice(0, got))
		if err != nil {
			return err
		}
		if int(wresp.N) != got {
			return fmt.Errorf("short resync write: %d of %d bytes", wresp.N, got)
		}
		cl.ResyncBytes.Add(got)
		if got < n {
			return nil
		}
		off += int64(got)
	}
	return nil
}

// --- Full-slice resync (journal spill fallback) ---

// storeOf returns server slot i's backing store through the resync
// peers, asserting the memfs slice surface the bulk channel needs.
func (cl *Cluster) storeOf(slot int) (*memfs.FS, error) {
	if cl.peers == nil || slot >= len(cl.peers) || cl.peers[slot] == nil {
		return nil, fmt.Errorf("no resync peer for server %d (SetResyncPeers)", slot)
	}
	st, ok := cl.peers[slot].fs.(*memfs.FS)
	if !ok {
		return nil, fmt.Errorf("server %d's backing store is not a memfs.FS; slice resync unsupported", slot)
	}
	return st, nil
}

// residueAt is the (ino−2) mod n routing residue of the sharded
// namespace, with the root (and the invalid inode 0) pinned to 0.
func residueAt(ino kernel.InodeID, n int) int {
	if ino <= 1 {
		return 0
	}
	return int((uint64(ino) - 2) % uint64(n))
}

// posDist is the forward distance from owner position res to position
// pos in a ring of n — < replicas means pos is in res's replica group.
func posDist(pos, res, n int) int {
	return (pos - res + n) % n
}

func (cl *Cluster) memberPos(slot int) int {
	for pos, s := range cl.members {
		if s == slot {
			return pos
		}
	}
	return -1
}

// collectAuth builds the authoritative metadata snapshot of the
// cluster from the live members' stores (excluding slot skip): for
// each inode the owning copy (sharded: lowest-distance alive replica
// of its owner group; unsharded: the first alive member, whose
// namespace is replicated-identical), plus each regular file's true
// size — the max local size across every live member, since size
// publishes fan everywhere but an individual store may lag — and the
// max sequential-mint cursor.
func (cl *Cluster) collectAuth(skip int) (map[kernel.InodeID]memfs.SliceNode, map[kernel.InodeID]int64, kernel.InodeID, error) {
	n := len(cl.members)
	auth := make(map[kernel.InodeID]memfs.SliceNode)
	rank := make(map[kernel.InodeID]int)
	var next kernel.InodeID
	namespaceDone := false
	for pos, slot := range cl.members {
		if slot == skip || cl.down[slot] {
			continue
		}
		st, err := cl.storeOf(slot)
		if err != nil {
			return nil, nil, 0, err
		}
		sl := st.ExportSlice(nil)
		if sl.Next > next {
			next = sl.Next
		}
		if !cl.sharded {
			if namespaceDone {
				continue
			}
			namespaceDone = true
			for _, nd := range sl.Nodes {
				auth[nd.Attr.Ino] = nd
			}
			continue
		}
		for _, nd := range sl.Nodes {
			d := posDist(pos, residueAt(nd.Attr.Ino, n), n)
			if d >= cl.replicas {
				// A non-owner stub (lazy data materialization) is not
				// authoritative: trusting one could resurrect an inode
				// its owner group already unlinked.
				continue
			}
			if prev, ok := rank[nd.Attr.Ino]; !ok || d < prev {
				auth[nd.Attr.Ino] = nd
				rank[nd.Attr.Ino] = d
			}
		}
	}
	if len(auth) == 0 {
		return nil, nil, 0, errors.New("no live member to resync from")
	}
	sizes := make(map[kernel.InodeID]int64)
	for ino, nd := range auth {
		if nd.Attr.Kind != kernel.RegularFile {
			continue
		}
		var max int64
		for _, slot := range cl.members {
			if slot == skip || cl.down[slot] {
				continue
			}
			st, err := cl.storeOf(slot)
			if err != nil {
				return nil, nil, 0, err
			}
			if s := st.LocalSize(ino); s > max {
				max = s
			}
		}
		sizes[ino] = max
	}
	return auth, sizes, next, nil
}

// fullResync rebuilds excluded server slot i's whole slice from the
// live members through the bulk channel: authoritative metadata
// imported exactly (sizes trimmed, unknown inodes purged), size
// epochs and owned rename marks copied from a live replica, and the
// data stripes i holds under the current placement re-copied from
// their live replicas.
func (cl *Cluster) fullResync(p *sim.Proc, i int) error {
	_ = p // the bulk channel costs no simulated time
	if cl.policyOn {
		return errors.New("full-slice resync under an adaptive layout policy is not supported")
	}
	pos := cl.memberPos(i)
	if pos < 0 {
		return fmt.Errorf("server %d is not a member", i)
	}
	dst, err := cl.storeOf(i)
	if err != nil {
		return err
	}
	auth, sizes, next, err := cl.collectAuth(i)
	if err != nil {
		return err
	}
	n := len(cl.members)
	sl := &memfs.Slice{Next: next}
	for ino, nd := range auth {
		if nd.Attr.Kind == kernel.RegularFile {
			nd.Attr.Size = sizes[ino]
		}
		owned := !cl.sharded || posDist(pos, residueAt(ino, n), n) < cl.replicas
		switch {
		case owned:
			sl.Nodes = append(sl.Nodes, nd)
		case nd.Attr.Kind == kernel.RegularFile:
			// Foreign file: keep an attr-only stub so data stripes and
			// size publishes have somewhere to land, like the lazy
			// materialization of the sharded write path.
			sl.Nodes = append(sl.Nodes, memfs.SliceNode{Attr: nd.Attr})
		}
	}
	// The slice carries no mint-sequence cursor: per-server partitions
	// are disjoint, minting for a residue happens on its group primary,
	// and an excluded server never mints — so the returning server's
	// own retained cursor is already correct (the import's max rule
	// keeps it).
	dst.ImportSlice(sl, nil, true)

	// Server-side soft state: size epochs are replicated-identical
	// across members (exact sets always fan), so any live member's map
	// is authoritative; rename marks follow directory ownership.
	var src *Server
	for _, slot := range cl.members {
		if slot != i && !cl.down[slot] {
			src = cl.peers[slot]
			break
		}
	}
	dstSrv := cl.peers[i]
	dstSrv.epochs = make(map[kernel.InodeID]uint64, len(src.epochs))
	for ino, e := range src.epochs {
		dstSrv.epochs[ino] = e
	}
	dstSrv.layouts = make(map[kernel.InodeID]LayoutClass, len(src.layouts))
	for ino, lc := range src.layouts {
		dstSrv.layouts[ino] = lc
	}
	dstSrv.member = src.member
	if cl.sharded {
		dstSrv.renames = make(map[renameKey]renameMark)
		for _, slot := range cl.members {
			if slot == i || cl.down[slot] {
				continue
			}
			for key, mark := range cl.peers[slot].renames {
				if dstSrv.ownsDir(key.dir) {
					dstSrv.renames[key] = mark
				}
			}
		}
	}

	// Data: re-copy the stripes i holds under the current placement
	// from their live replicas.
	for ino, sz := range sizes {
		for off := int64(0); off < sz; off += cl.stripe {
			end := off + cl.stripe
			if end > sz {
				end = sz
			}
			owner := int((off / cl.stripe) % int64(n))
			if posDist(pos, owner, n) >= cl.replicas {
				continue
			}
			var data []byte
			for j := 0; j < cl.replicas; j++ {
				slot := cl.members[(owner+j)%n]
				if slot == i || cl.down[slot] {
					continue
				}
				st, err := cl.storeOf(slot)
				if err != nil {
					return err
				}
				if d := st.ReadRange(ino, off, int(end-off)); len(d) > len(data) {
					data = d
				}
			}
			if len(data) == 0 {
				continue
			}
			if err := dst.WriteRange(ino, off, data); err != nil {
				return err
			}
			cl.ResyncBytes.Add(len(data))
		}
	}
	return nil
}

// --- Membership view and operation gates ---

// MemberView is the shared, epoch-stamped membership view of an
// elastic cluster (DESIGN.md §13). One cluster publishes it
// (ShareView) and every other client of the same servers subscribes
// (AttachView); a membership change then coordinates all of them: the
// operator fences new operations, waits for in-flight ones to drain,
// migrates data, commits the new geometry on the servers (OpMember),
// and bumps the epoch — subscribers adopt the new members slice at
// their next operation. Coordination relies on the simulation's
// cooperative scheduling: checks and counter updates never interleave
// within one simulated instant, so the fences need no locks.
type MemberView struct {
	epoch   uint64
	members []int

	// operator is the cluster currently driving a membership change
	// (nil otherwise); its own traffic bypasses the fences.
	operator  *Cluster
	fenceMut  bool
	fenceAll  bool
	migrating bool

	activeData int
	activeMut  int
	pending    int

	// dirty logs data writes issued while a migration is copying
	// stripes, so the operator can re-copy ranges the bulk pass
	// missed.
	dirty []viewWrite
}

type viewWrite struct {
	ino kernel.InodeID
	off int64
	n   int
}

// Epoch returns the view's current membership epoch (0 until the
// first successful change).
func (v *MemberView) Epoch() uint64 { return v.epoch }

// Members returns a copy of the view's current position→slot map.
func (v *MemberView) Members() []int {
	return append([]int(nil), v.members...)
}

// dedupeWrites collapses repeated identical ranges in a dirty batch,
// keeping first-appearance order. Safe because the drain copies live
// content: one copy per distinct range is equivalent to one per write.
func dedupeWrites(batch []viewWrite) []viewWrite {
	seen := make(map[viewWrite]struct{}, len(batch))
	out := batch[:0]
	for _, w := range batch {
		if _, dup := seen[w]; dup {
			continue
		}
		seen[w] = struct{}{}
		out = append(out, w)
	}
	return out
}

func (v *MemberView) logWrite(ino kernel.InodeID, off int64, n int) {
	if n <= 0 {
		return
	}
	if k := len(v.dirty) - 1; k >= 0 {
		if w := &v.dirty[k]; w.ino == ino && w.off+int64(w.n) == off {
			w.n += n
			return
		}
	}
	v.dirty = append(v.dirty, viewWrite{ino: ino, off: off, n: n})
}

// ShareView publishes this cluster's membership as a shared view for
// other clients of the same servers to attach to, and subscribes this
// cluster to it. Membership changes (Join/Retire/Bounce) require a
// view even with a single client.
func (cl *Cluster) ShareView() *MemberView {
	v := &MemberView{epoch: cl.viewEpoch, members: append([]int(nil), cl.members...)}
	cl.view = v
	return v
}

// AttachView subscribes this cluster to a shared membership view: it
// adopts the view's members immediately and follows every epoch bump,
// and its operations participate in membership-change fencing.
func (cl *Cluster) AttachView(v *MemberView) {
	cl.view = v
	cl.members = append(cl.members[:0], v.members...)
	cl.viewEpoch = v.epoch
}

// SetMembers restricts the cluster's initial active membership to the
// first active session slots; the rest stand by for later Join. Call
// before any traffic and before ShareView. The sharded namespace maps
// residues over all construction-time servers, so standby slots are
// only supported unsharded.
func (cl *Cluster) SetMembers(active int) error {
	if cl.sharded {
		return errors.New("rfsrv: SetMembers: sharded clusters enumerate all sessions as members")
	}
	if active < cl.replicas || active > len(cl.sessions) {
		return fmt.Errorf("rfsrv: SetMembers: %d outside %d..%d", active, cl.replicas, len(cl.sessions))
	}
	cl.members = cl.members[:active]
	return nil
}

// Members returns a copy of the cluster's current position→slot map.
func (cl *Cluster) Members() []int {
	return append([]int(nil), cl.members...)
}

func (cl *Cluster) adoptView() {
	v := cl.view
	if v == nil || v.epoch == cl.viewEpoch {
		return
	}
	cl.members = append(cl.members[:0], v.members...)
	cl.viewEpoch = v.epoch
}

// enterOp is the membership gate at every cluster entry point. With
// no view it only enforces staleness (a viewless cluster that saw a
// newer membership epoch on a reply refuses further operations);
// with one it blocks while the relevant fence is up, registers the
// operation with the view, and adopts any new epoch. Nested entries
// (Rename inside Meta) neither fence nor count — the outermost one
// already did. Returns without exitOp owed on error.
func (cl *Cluster) enterOp(p *sim.Proc, mut bool) error {
	cl.gateDepth++
	if cl.gateDepth > 1 {
		return nil
	}
	v := cl.view
	if v == nil {
		if cl.staleMember {
			cl.gateDepth--
			return ErrStaleMembership
		}
		return nil
	}
	if v.operator != cl {
		for v.fenceAll || (mut && v.fenceMut) {
			p.Sleep(memberFencePoll)
		}
		if mut {
			v.activeMut++
		} else {
			v.activeData++
		}
		cl.gateMut = mut
		cl.gateCounted = true
	}
	cl.adoptView()
	return nil
}

func (cl *Cluster) exitOp() {
	cl.gateDepth--
	if cl.gateDepth > 0 {
		return
	}
	if cl.gateCounted {
		cl.gateCounted = false
		if cl.gateMut {
			cl.view.activeMut--
		} else {
			cl.view.activeData--
		}
	}
}

// notePendingStart moves an async operation's gate registration from
// the active counters to the view's pending count: the Start call
// returns, but the operation stays in flight until its Wait, and a
// membership change must drain it before cutting over.
func (cl *Cluster) notePendingStart(cp *clusterPending) {
	if v := cl.view; v != nil && v.operator != cl {
		v.pending++
		cp.gated = true
	}
}

func (cl *Cluster) notePendingDone(cp *clusterPending) {
	if cp.gated {
		cp.gated = false
		cl.view.pending--
	}
}

// --- Join / Retire / Bounce ---

// beginChange validates one or more prospective member lists and
// claims the view for this cluster as operator. The returned func
// releases the operator claim and every fence.
func (cl *Cluster) beginChange(lists ...[]int) (func(), error) {
	v := cl.view
	if v == nil {
		return nil, errors.New("rfsrv: membership change: no shared view (ShareView first)")
	}
	if cl.peers == nil {
		return nil, errors.New("rfsrv: membership change: no resync peers (SetResyncPeers first)")
	}
	if cl.policyOn {
		return nil, errors.New("rfsrv: membership change under an adaptive layout policy is not supported")
	}
	for _, slot := range cl.members {
		if cl.down[slot] {
			return nil, fmt.Errorf("rfsrv: membership change: member %d is excluded; reinstate it first", slot)
		}
	}
	for _, next := range lists {
		if len(next) < cl.replicas {
			return nil, fmt.Errorf("rfsrv: membership change: %d members < replication factor %d", len(next), cl.replicas)
		}
		seen := make(map[int]bool, len(next))
		for _, slot := range next {
			if slot < 0 || slot >= len(cl.sessions) {
				return nil, fmt.Errorf("rfsrv: membership change: no session slot %d", slot)
			}
			if seen[slot] {
				return nil, fmt.Errorf("rfsrv: membership change: slot %d listed twice", slot)
			}
			seen[slot] = true
			if cl.down[slot] {
				return nil, fmt.Errorf("rfsrv: membership change: slot %d is excluded", slot)
			}
		}
	}
	if v.operator != nil && v.operator != cl {
		return nil, errors.New("rfsrv: membership change already in progress")
	}
	v.operator = cl
	return func() {
		v.operator = nil
		v.fenceMut, v.fenceAll, v.migrating = false, false, false
		v.dirty = nil
	}, nil
}

// Join admits session slot at the end of the placement order —
// Join(p, slot) is JoinAt(p, slot, len(members)).
func (cl *Cluster) Join(p *sim.Proc, slot int) error {
	return cl.JoinAt(p, slot, len(cl.members))
}

// JoinAt admits session slot into the membership at placement
// position pos, migrating data to its new replica sets before the
// epoch cutover: online under load in the unsharded cluster (reads
// and writes keep flowing through the old placement while stripes
// copy, with a dirty log catching racing writes and a brief full
// fence at cutover), stop-world in the sharded one (every client
// fences while owner groups, directory slices, and stripes rebuild).
// Requires a shared view (ShareView/AttachView) and resync peers.
func (cl *Cluster) JoinAt(p *sim.Proc, slot, pos int) error {
	if cl.memberPos(slot) >= 0 {
		return fmt.Errorf("rfsrv: join: slot %d is already a member", slot)
	}
	if pos < 0 || pos > len(cl.members) {
		return fmt.Errorf("rfsrv: join: position %d outside 0..%d", pos, len(cl.members))
	}
	next := make([]int, 0, len(cl.members)+1)
	next = append(next, cl.members[:pos]...)
	next = append(next, slot)
	next = append(next, cl.members[pos:]...)
	return cl.changeMembers(p, next)
}

// Retire removes session slot from the membership, re-placing the
// stripes and directory slices it held onto the remaining members
// before the epoch cutover (same online/stop-world split as JoinAt).
// The retiree must be alive: its data is a migration source.
func (cl *Cluster) Retire(p *sim.Proc, slot int) error {
	pos := cl.memberPos(slot)
	if pos < 0 {
		return fmt.Errorf("rfsrv: retire: slot %d is not a member", slot)
	}
	next := make([]int, 0, len(cl.members)-1)
	next = append(next, cl.members[:pos]...)
	next = append(next, cl.members[pos+1:]...)
	return cl.changeMembers(p, next)
}

// Bounce retires and immediately re-admits member slot inside one
// stop-world fence window: the membership epoch advances twice, every
// stripe and directory slice leaves the slot and comes back, and no
// client ever issues an operation against the interim geometry. The
// torture harness uses it as the membership-change event whose final
// placement the oracle can still predict.
func (cl *Cluster) Bounce(p *sim.Proc, slot int) error {
	pos := cl.memberPos(slot)
	if pos < 0 {
		return fmt.Errorf("rfsrv: bounce: slot %d is not a member", slot)
	}
	if !cl.sharded {
		return errors.New("rfsrv: bounce: stop-world path is sharded-only; use Retire then JoinAt")
	}
	without := make([]int, 0, len(cl.members)-1)
	without = append(without, cl.members[:pos]...)
	without = append(without, cl.members[pos+1:]...)
	with := append([]int(nil), cl.members...)
	done, err := cl.beginChange(without, with)
	if err != nil {
		return err
	}
	defer done()
	if err := cl.memberStopWorld(p, without); err != nil {
		return err
	}
	return cl.memberStopWorld(p, with)
}

func (cl *Cluster) changeMembers(p *sim.Proc, next []int) error {
	done, err := cl.beginChange(next)
	if err != nil {
		return err
	}
	defer done()
	if cl.sharded {
		return cl.memberStopWorld(p, next)
	}
	return cl.memberOnline(p, next)
}

// commitMember fans OpMember to every slot of next (in position
// order) and an epoch-only stamp to retirees, so every server's
// replies carry the new membership epoch.
func (cl *Cluster) commitMember(p *sim.Proc, old, next []int, epoch uint64, floor kernel.InodeID) error {
	n := len(next)
	for pos, slot := range next {
		req := Req{Op: OpMember, Ino: floor, Off: int64(pos), Len: uint32(n), Epoch: epoch}
		resp, err := cl.syncMeta(p, slot, &req)
		if err != nil {
			return fmt.Errorf("commit membership on server %d: %w", slot, err)
		}
		if resp.Status != StOK {
			return fmt.Errorf("commit membership on server %d: %w", slot, ErrOf(resp.Status))
		}
	}
	for _, slot := range old {
		if posOf(next, slot) >= 0 {
			continue
		}
		req := Req{Op: OpMember, Ino: floor, Off: -1, Len: uint32(n), Epoch: epoch}
		resp, err := cl.syncMeta(p, slot, &req)
		if err != nil {
			return fmt.Errorf("stamp retiring server %d: %w", slot, err)
		}
		if resp.Status != StOK {
			return fmt.Errorf("stamp retiring server %d: %w", slot, ErrOf(resp.Status))
		}
	}
	return nil
}

func posOf(list []int, slot int) int {
	for p, s := range list {
		if s == slot {
			return p
		}
	}
	return -1
}

// memberOnline is the unsharded membership change: mutations fence
// for the duration (the namespace and file set freeze), but the data
// path stays live — stripes copy to their new replica sets through
// ordinary striped reads and direct writes while client reads and
// writes keep flowing through the old placement, a dirty log
// re-copies ranges written mid-migration, and only the final cutover
// briefly fences everything.
func (cl *Cluster) memberOnline(p *sim.Proc, next []int) error {
	v := cl.view
	old := append([]int(nil), cl.members...)

	// Phase 1: freeze the namespace.
	v.fenceMut = true
	for v.activeMut > 0 {
		p.Sleep(memberFencePoll)
	}

	// Phase 2: seed joiners with the frozen namespace (bulk channel):
	// exact sizes (trimming any stale local state a re-joining slot
	// kept from an earlier tenure), size epochs, layouts.
	var joiners []int
	for _, slot := range next {
		if posOf(old, slot) < 0 {
			joiners = append(joiners, slot)
		}
	}
	srcStore, err := cl.storeOf(old[0])
	if err != nil {
		return err
	}
	sl := srcStore.ExportSlice(nil)
	var files []kernel.InodeID
	fileSizes := make(map[kernel.InodeID]int64)
	for i := range sl.Nodes {
		nd := &sl.Nodes[i]
		if nd.Attr.Kind != kernel.RegularFile {
			continue
		}
		var max int64
		for _, slot := range old {
			st, err := cl.storeOf(slot)
			if err != nil {
				return err
			}
			if s := st.LocalSize(nd.Attr.Ino); s > max {
				max = s
			}
		}
		nd.Attr.Size = max
		files = append(files, nd.Attr.Ino)
		fileSizes[nd.Attr.Ino] = max
	}
	srcSrv := cl.peers[old[0]]
	for _, j := range joiners {
		dst, err := cl.storeOf(j)
		if err != nil {
			return err
		}
		dst.ImportSlice(sl, nil, true)
		dstSrv := cl.peers[j]
		dstSrv.epochs = make(map[kernel.InodeID]uint64, len(srcSrv.epochs))
		for ino, e := range srcSrv.epochs {
			dstSrv.epochs[ino] = e
		}
		dstSrv.layouts = make(map[kernel.InodeID]LayoutClass, len(srcSrv.layouts))
		for ino, lc := range srcSrv.layouts {
			dstSrv.layouts[ino] = lc
		}
	}

	// Phase 3: migrate stripes to their new replica sets under load.
	v.migrating = true
	for _, ino := range files {
		if err := cl.migrateRange(p, ino, 0, fileSizes[ino], old, next); err != nil {
			return err
		}
	}

	// Phase 4: drain the dirty log while the data path is still live.
	// Each batch is deduplicated first: migrateRange copies the file's
	// CURRENT content, so one copy per distinct range per batch lands
	// the same bytes as one per write — under heavy load the same hot
	// stripe is redirtied thousands of times per pass, and re-copying
	// every entry would multiply migration traffic by that factor.
	for pass := 0; len(v.dirty) > 0 && pass < 16; pass++ {
		batch := dedupeWrites(v.dirty)
		v.dirty = nil
		for _, w := range batch {
			if err := cl.migrateRange(p, w.ino, w.off, int64(w.n), old, next); err != nil {
				return err
			}
		}
	}

	// Phase 5: full fence, quiesce, final dirty delta.
	v.fenceAll = true
	for v.activeData+v.activeMut+v.pending > 0 {
		p.Sleep(memberFencePoll)
	}
	for len(v.dirty) > 0 {
		batch := dedupeWrites(v.dirty)
		v.dirty = nil
		for _, w := range batch {
			if err := cl.migrateRange(p, w.ino, w.off, int64(w.n), old, next); err != nil {
				return err
			}
		}
	}

	// Phase 6: publish authoritative sizes to joiners. Old members saw
	// every size fan during migration; joiners saw none, and a joiner
	// can be an inode's metadata home after cutover, so its local size
	// must be the global one.
	for _, ino := range files {
		var max int64
		for _, slot := range old {
			st, err := cl.storeOf(slot)
			if err != nil {
				return err
			}
			if s := st.LocalSize(ino); s > max {
				max = s
			}
		}
		for _, j := range joiners {
			if err := cl.publishGrow(p, j, ino, max); err != nil {
				return err
			}
		}
	}

	// Phase 7: commit the new geometry on every affected server, flip
	// the view, and adopt it.
	epoch := v.epoch + 1
	if err := cl.commitMember(p, old, next, epoch, 0); err != nil {
		return err
	}
	v.members = append(v.members[:0], next...)
	v.epoch = epoch
	cl.adoptView()
	return nil
}

// migrateRange copies [off, off+n) of a file to the new-placement
// replica slots that do not hold it under the current (old-placement)
// authoritative geometry: striped reads through the live cluster,
// direct writes to each target — real simulated traffic competing
// with client load.
func (cl *Cluster) migrateRange(p *sim.Proc, ino kernel.InodeID, off, n int64, old, next []int) error {
	var targets []int
	for cur, end := off, off+n; cur < end; {
		sb := (cur / cl.stripe) * cl.stripe
		se := sb + cl.stripe
		if se > end {
			se = end
		}
		frag := int(se - cur)
		oldPos := int((sb / cl.stripe) % int64(len(old)))
		newPos := int((sb / cl.stripe) % int64(len(next)))
		targets = targets[:0]
		for j := 0; j < cl.replicas; j++ {
			slot := next[(newPos+j)%len(next)]
			if cl.down[slot] {
				continue
			}
			held := false
			for k := 0; k < cl.replicas; k++ {
				if old[(oldPos+k)%len(old)] == slot {
					held = true
					break
				}
			}
			if !held {
				targets = append(targets, slot)
			}
		}
		if len(targets) > 0 {
			vec, err := cl.stagingVec(frag)
			if err != nil {
				return err
			}
			rresp, err := cl.Read(p, ino, cur, vec)
			if err != nil {
				return err
			}
			if got := int(rresp.N); got > 0 {
				for _, slot := range targets {
					wresp, err := cl.sessions[slot].Client().Write(p, ino, cur, vec.Slice(0, got))
					if err != nil {
						return err
					}
					if int(wresp.N) != got {
						return fmt.Errorf("short migration write to server %d: %d of %d bytes", slot, wresp.N, got)
					}
					cl.Migrated.Add(got)
				}
			}
		}
		cur = se
	}
	return nil
}

// publishGrow raises server slot's local size for ino to size through
// the ordinary grow-mode OpSetSize, reading the server's own size
// epoch first (bounded stale retries, like every size publish).
func (cl *Cluster) publishGrow(p *sim.Proc, slot int, ino kernel.InodeID, size int64) error {
	for try := 0; try < 4; try++ {
		get := Req{Op: OpGetattr, Ino: ino}
		resp, err := cl.replayRT(p, slot, &get)
		if err != nil {
			return err
		}
		if resp.Status == StNotFound {
			return nil
		}
		if resp.Status != StOK {
			return ErrOf(resp.Status)
		}
		if resp.Attr.Size >= size {
			return nil
		}
		set := Req{Op: OpSetSize, Ino: ino, Off: size, Len: SetSizeGrow, Epoch: resp.Epoch}
		resp, err = cl.replayRT(p, slot, &set)
		if err != nil {
			return err
		}
		switch resp.Status {
		case StOK:
			return nil
		case StStale:
			continue
		default:
			return ErrOf(resp.Status)
		}
	}
	return ErrStaleEpoch
}

// memberStopWorld is the sharded membership change: every client
// fences, in-flight operations drain, and the operator rebuilds the
// world under the new geometry — OpMember re-partitions every server's
// ownership map and minting floor, each new member's store is rebuilt
// from the authoritative old-geometry snapshot (owned inodes in full,
// foreign files as exact-size stubs, everything else purged), rename
// marks follow directory ownership, and stripes copy to their new
// replica sets through the bulk channel. Re-sharding the directory
// slices of a live namespace incrementally is follow-up work; the
// stop-world window makes the geometry swap atomic for every client
// attached to the view.
func (cl *Cluster) memberStopWorld(p *sim.Proc, next []int) error {
	v := cl.view
	v.fenceMut, v.fenceAll = true, true
	for v.activeData+v.activeMut+v.pending > 0 {
		p.Sleep(memberFencePoll)
	}
	old := append([]int(nil), cl.members...)
	n := len(next)

	// Authoritative snapshot under the old geometry.
	auth, sizes, maxNext, err := cl.collectAuth(-1)
	if err != nil {
		return err
	}

	// Mint floor: past anything any affected store ever assigned —
	// including stale state on re-joining slots.
	floor := maxNext - 1
	for _, slot := range append(append([]int(nil), old...), next...) {
		st, err := cl.storeOf(slot)
		if err != nil {
			return err
		}
		if m := st.MaxIno(); m > floor {
			floor = m
		}
	}

	// Commit the new geometry first: servers swap ownership maps and
	// minting partitions while the world is stopped, so the store
	// rebuild below lands on servers that already route by the new
	// residues.
	epoch := v.epoch + 1
	if err := cl.commitMember(p, old, next, epoch, floor); err != nil {
		return err
	}

	// Rebuild every new member's store from the snapshot.
	for pos, slot := range next {
		sl := &memfs.Slice{Next: maxNext}
		for ino, nd := range auth {
			if nd.Attr.Kind == kernel.RegularFile {
				nd.Attr.Size = sizes[ino]
			}
			if posDist(pos, residueAt(ino, n), n) < cl.replicas {
				sl.Nodes = append(sl.Nodes, nd)
			} else if nd.Attr.Kind == kernel.RegularFile {
				sl.Nodes = append(sl.Nodes, memfs.SliceNode{Attr: nd.Attr})
			}
		}
		st, err := cl.storeOf(slot)
		if err != nil {
			return err
		}
		st.ImportSlice(sl, nil, true)
	}

	// Server-side soft state: size epochs are replicated-identical;
	// rename marks follow directory ownership under the new geometry.
	srcSrv := cl.peers[old[0]]
	marks := make(map[renameKey]renameMark)
	for _, slot := range old {
		for key, mark := range cl.peers[slot].renames {
			marks[key] = mark
		}
	}
	for _, slot := range next {
		dstSrv := cl.peers[slot]
		if posOf(old, slot) < 0 {
			dstSrv.epochs = make(map[kernel.InodeID]uint64, len(srcSrv.epochs))
			for ino, e := range srcSrv.epochs {
				dstSrv.epochs[ino] = e
			}
		}
		if dstSrv.renames == nil {
			dstSrv.renames = make(map[renameKey]renameMark)
		}
		for key, mark := range marks {
			if dstSrv.ownsDir(key.dir) {
				dstSrv.renames[key] = mark
			}
		}
	}

	// Data re-placement through the bulk channel: each stripe copies
	// from its old-placement replicas to the new-placement slots that
	// do not already hold it.
	for ino, sz := range sizes {
		for off := int64(0); off < sz; off += cl.stripe {
			end := off + cl.stripe
			if end > sz {
				end = sz
			}
			oldPos := int((off / cl.stripe) % int64(len(old)))
			newPos := int((off / cl.stripe) % int64(n))
			for j := 0; j < cl.replicas; j++ {
				slot := next[(newPos+j)%n]
				held := false
				for k := 0; k < cl.replicas; k++ {
					if old[(oldPos+k)%len(old)] == slot {
						held = true
						break
					}
				}
				if held {
					continue
				}
				var data []byte
				for k := 0; k < cl.replicas; k++ {
					srcSlot := old[(oldPos+k)%len(old)]
					st, err := cl.storeOf(srcSlot)
					if err != nil {
						return err
					}
					if d := st.ReadRange(ino, off, int(end-off)); len(d) > len(data) {
						data = d
					}
				}
				if len(data) == 0 {
					continue
				}
				dst, err := cl.storeOf(slot)
				if err != nil {
					return err
				}
				if err := dst.WriteRange(ino, off, data); err != nil {
					return err
				}
				cl.Migrated.Add(len(data))
			}
		}
	}

	// Flip.
	v.members = append(v.members[:0], next...)
	v.epoch = epoch
	cl.adoptView()
	return nil
}
