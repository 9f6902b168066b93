package rfsrv

// This file is the striped cluster client: one rfsrv.Client that
// shards file data across several servers, each reached through its
// own Session. It is the repository's answer to the single-link
// ceiling PR 2 ran into — one server's 250 MB/s link caps aggregate
// throughput no matter how deep the window — and the first step toward
// the ROADMAP's aggregate-capacity north star.
//
// Layout. File bytes are split into fixed-size stripes (64 KiB by
// default) placed round-robin: stripe k of every file lives on server
// k mod N, *at its global offset* (server files are sparse — each
// server's copy holds only the stripes it owns, with its local size
// covering the bytes it has seen). Reads and writes split into
// per-server contiguous runs, issue in parallel through each server's
// session window, and merge completions through the existing
// seq-tagged demux — the cluster adds no new wire mechanism.
//
// Metadata. The namespace is replicated: every mutation (create,
// mkdir, unlink, rmdir, truncate, extend) fans out to all servers in
// server order, and because the backing filesystems allocate inode
// numbers deterministically, the same mutation stream yields the same
// inode numbers everywhere (the cluster verifies this and reports
// divergence as an I/O error). Read-only metadata (lookup, getattr,
// readdir) is served by a single *home* server chosen by hashing the
// path component (directory inode + name) or the inode, spreading
// metadata load without a directory service.
//
// Size coherence (DESIGN.md §9). A write's tail may land away from a
// file's metadata home, leaving the home's (and other data servers')
// local size short of the true end of file. After each synchronous
// Write that extends a file, the cluster replays a grow-only OpSetSize
// to every other server, so any server's local size — and thus any
// homed getattr, and the EOF clipping of any striped read — reflects
// the true size. The inode's path-hashed home server is the size
// authority, and the caching that elides repeat reconciliations is
// *validated*: every server keeps a per-inode size epoch (bumped by
// exact size sets, which always fan out; never by data writes or
// grow reconciliation, so epochs stay replicated-identical), every
// reply carries the epoch of the inode it resolves, and the cluster
// caches (size, epoch) pairs. A reply whose epoch differs from the
// cached one proves a foreign client truncated the file: the entry is
// invalidated on the spot and the next overwrite re-reconciles —
// which is what makes truncate-then-overwrite coherent across
// clients (TestClusterCrossClientExtend). OpSetSize itself carries
// the writer's observed epoch, so a server refuses (StStale) to
// re-grow sizes under a writer whose view is stale instead of
// resurrecting a foreign truncate; the refusal carries the
// authoritative (size, epoch) and the cluster revalidates and
// retries. Asynchronous StartWrite still skips reconciliation (its
// callers, like ORFS write-behind, track EOF themselves and publish
// it through SetFileSize at their sync barrier); the
// metadata-home-vs-data-server tests pin down what is and is not
// guaranteed.
//
// Ordering and failure semantics. A Cluster is used from one simulated
// process at a time, like the Session it is built from. Metadata
// travels on each server's synchronous control path, never a window
// slot, so it can always proceed while striped data operations hold
// every slot (the cluster analogue of the session's one-free-slot
// discipline). Operations return when every fanned-out part has
// completed; the first error wins and the rest are drained, so window
// slots never leak. A striped
// read's byte count is the contiguous prefix served before the first
// server-clipped (EOF) part; bytes past it are undefined, exactly like
// a short read on the plain protocol.
//
// Replication and faults. A cluster built with NewReplicatedCluster
// writes every stripe to R consecutive servers (stripe k lands on
// k mod N through (k mod N)+R-1, wrapping), so the loss of any single
// server with R >= 2 loses no data. Faults are what the transport
// reports as such (fabric.IsFault: a dead peer at send time, or — with
// Session.SetRequestTimeout armed — a reply deadline expiring): the
// faulting server is recorded as *excluded* and never addressed again,
// reads of its stripes fail over to the next alive replica, writes
// succeed as long as every run keeps one clean replica, and namespace
// mutations simply skip it instead of reporting divergence. Exclusion
// is one-way — an operator who knows the server recovered calls
// Reinstate, which refuses to re-admit a server that missed namespace
// mutations (the caller must resync its backing store out of band
// first) and drops exactly the size-cache entries established during
// the server's exclusion — the ones whose reconciliation fans skipped
// it — so the next write to an affected file replays the grow-only
// OpSetSize reconciliation.
// Application-level errors (EEXIST, EOF clipping, short writes) are
// never treated as faults and fail the operation exactly as before.
// With R=1 and no faults every path below is bit-identical to the
// pre-replication cluster.
//
// With one server the cluster degenerates exactly: every stripe is one
// contiguous run on server 0, every metadata route resolves to server
// 0, and no reconciliation traffic is sent, so the issued RPC sequence
// — and therefore the simulated timing — is bit-identical to driving
// the underlying Session directly (guarded by
// TestClusterOneServerMatchesSession).

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// DefaultStripeSize is the stripe width used when NewCluster is given
// none: 64 KiB, the application chunk size of the scalability suites
// (so one figure-harness read maps to exactly one stripe).
const DefaultStripeSize = 64 * 1024

// ErrBadStripe rejects a stripe width that is not a positive
// page-aligned multiple no larger than MaxWriteChunk. Constructors
// wrap it with the offending value; errors.Is(err, ErrBadStripe)
// identifies the class.
var ErrBadStripe = errors.New("rfsrv: invalid stripe width")

// LayoutPolicy selects how a cluster client classifies files into
// stripe-layout classes (DESIGN.md §10). The zero value (and a cluster
// that never calls SetLayoutPolicy) treats every file as
// LayoutStandard and issues exactly the pre-layout RPC sequence —
// the bit-identity guarantee every existing figure rests on.
//
// All clients of one namespace must run the same policy, like mount
// options: placement is client-computed, so a policy-free client
// reading a whole-on-home file another client created would look for
// stripes on servers that never saw the data.
type LayoutPolicy struct {
	// Adaptive classifies unhinted creates as LayoutWhole and promotes
	// a whole file to LayoutStandard (migrating its bytes) when a write
	// or published size reaches past PromoteThreshold.
	Adaptive bool
}

// Cluster stripes file data across several rfsrv servers, one Session
// per server, and replicates the namespace to all of them. It
// implements Client and Async, so every consumer of a Session — ORFS
// mounts, the ORFA library, the figures harness — runs over a server
// cluster unchanged.
type Cluster struct {
	sessions []*Session
	stripe   int64
	node     *hw.Node

	// replicas is the replication factor R: every stripe is written to
	// R consecutive servers. 1 (NewCluster's choice) stripes without
	// redundancy.
	replicas int

	// down marks servers excluded after an observed transport fault;
	// excluded servers are skipped by every path until Reinstate.
	down []bool

	// nsEpochs counts, PER SERVER, the namespace-and-size mutations
	// this client directed at it (create/mkdir/unlink/rmdir, renames
	// and exact size sets) — mutations an excluded server misses
	// unrecoverably. A replicated cluster bumps every server's count on
	// each mutation (including excluded ones: a down server that missed
	// a fanned mutation must be refused Reinstate, so the bump may
	// never skip it); a sharded cluster bumps only the mutated
	// directory's owner group, which is what lets a server whose owned
	// slice stayed quiet reinstate while foreign slices churned. downNs
	// snapshots a server's count at exclusion time, so Reinstate can
	// tell whether the server's slice diverged while it was out.
	nsEpochs []uint64
	downNs   []uint64

	// sharded routes namespace mutations to per-directory owner groups
	// instead of fanning them to every server (EnableShardedNamespace;
	// DESIGN.md §11). Data striping and size coherence are unchanged.
	sharded bool

	// pubBatch, when positive, defers the grow-only size publishes of
	// the write path: instead of fanning an OpSetSize after every
	// extending write, the cluster coalesces the highest pending
	// end-of-file per inode (pendPub, flushed in pendOrder insertion
	// order for determinism) and flushes them — plus the lazy OpScrub
	// fan for unlinked inodes (pendScrub) — in one combined batch per
	// server once pubSince reaches pubBatch, or at the next metadata
	// operation, whichever comes first (SetSizePublishBatch,
	// FlushSizes). Zero keeps the per-write reconciliation fan and the
	// bit-identical default path.
	pubBatch  int
	pubSince  int
	pendPub   map[kernel.InodeID]int64
	pendOrder []kernel.InodeID
	pendScrub []kernel.InodeID

	// flush scratch (FlushSizes is the amortized per-write path, so it
	// reuses cluster-owned slices instead of allocating per flush).
	flushReqStore []Req
	flushReqs     []*Req
	flushStarts   []int
	flushFlights  []*batchFlight
	flushTargets  []int
	flushResps    []*Resp

	// sizes caches, per inode, the highest end-of-file this client has
	// established on every alive server, together with the size epoch
	// that view was valid under. Overwrites below the cached size skip
	// the OpSetSize reconciliation round; any reply carrying a
	// different epoch invalidates the entry (validated caching — see
	// the package comment on size coherence).
	sizes map[kernel.InodeID]sizeEntry

	// policy is the layout policy (SetLayoutPolicy); policyOn gates the
	// whole per-file layout machinery, so a policy-free cluster never
	// consults or populates the layout cache and stays bit-identical to
	// the pre-layout client.
	policy   LayoutPolicy
	policyOn bool

	// layouts caches each inode's layout class as learned from create
	// hints, OpSetLayout fans and reply Layout bytes (observeResp). Only
	// populated under an enabled policy. Entries ride the same
	// validated-cache discipline as sizes: a layout change bumps the
	// size epoch, so stale placement is caught by the epoch check.
	layouts map[kernel.InodeID]LayoutClass

	// migVA is the lazily mapped staging buffer promotions copy through
	// (one MaxWriteChunk region in sessions[0]'s buffer space).
	migVA vm.VirtAddr

	// Promotions counts whole-on-home files migrated to standard
	// striping (Bytes carries the migrated volume).
	Promotions sim.Counter

	// reusable per-operation scratch (a Cluster is used from one
	// simulated process at a time, and no data-path operation re-enters
	// another, so one set per cluster suffices — see the zero-alloc
	// notes in DESIGN.md §10).
	runScratch    []run
	needScratch   []int
	partFree      []*part
	syncParts     []*part
	coverScratch  []bool
	flightScratch []syncMetaFlight
	targetScratch []int
	tailScratch   []int
	fanReq        Req

	// StripeReads and StripeWrites count data bytes issued per
	// direction; MetaFanout counts replicated metadata requests beyond
	// the first server; SetSizes counts OpSetSize reconciliation
	// requests.
	StripeReads, StripeWrites, MetaFanout, SetSizes sim.Counter

	// Failovers counts operations re-routed to a replica after a fault
	// (Bytes carries the re-read data volume); Excluded counts servers
	// marked down.
	Failovers, Excluded sim.Counter

	// Reinstates counts servers readmitted by Reinstate;
	// ReinstateRefusals counts readmissions that could not replay the
	// resync journal and fell back to a full-slice resync (or, with no
	// resync peers wired, were refused outright); RenameInDoubts
	// counts sharded cross-owner renames that surfaced
	// ErrRenameInDoubt. The torture harness (internal/torture)
	// consumes all three to cross-check its fault schedule against
	// what the cluster actually observed.
	Reinstates, ReinstateRefusals, RenameInDoubts sim.Counter

	// Elastic membership (DESIGN.md §13). members maps placement
	// position → session slot: every placement function ((ino−2) mod N
	// owner groups, k mod N..+R−1 stripe replica sets, metadata
	// homing) indexes this slice, so membership changes re-place data
	// and metadata without touching the construction-time sessions
	// array. down/nsEpochs/downNs/journals stay slot-indexed — a
	// server's fault state is independent of where placement puts it.
	members []int

	// view is the shared membership view this cluster follows (nil for
	// a construction-time-fixed cluster); viewEpoch is the epoch of
	// the members slice currently adopted. staleMember latches when a
	// reply's membership epoch proves a viewless cluster's fixed
	// membership is outdated — every subsequent operation fails with
	// ErrStaleMembership.
	view        *MemberView
	viewEpoch   uint64
	staleMember bool

	// Operation-gate state (see enterOp): gateDepth tracks nested
	// cluster entry points (Rename inside Meta), so only the outermost
	// one fences and counts; gateMut/gateCounted remember what the
	// outermost entry registered with the view.
	gateDepth   int
	gateMut     bool
	gateCounted bool

	// journals holds one resync journal per excluded server slot (nil
	// while a server is up, reset at exclusion), recording the
	// mutations and data-stripe writes the server misses so Reinstate
	// can replay them. journalOpCap/journalByteCap bound journal
	// growth (0 selects the defaults); past either bound the journal
	// spills and Reinstate falls back to a full-slice resync through
	// peers (SetResyncPeers).
	journals       []*resyncJournal
	journalOpCap   int
	journalByteCap int64
	peers          []*Server

	// renameDoubt parks unresolved in-doubt renames, keyed by each
	// directory involved, so the next lookup/getattr/readdir walking
	// either directory re-drives the rename before reading
	// (resolveRenameDoubt).
	renameDoubt map[kernel.InodeID]inDoubtRename

	// ResyncOps counts journaled mutations replayed by Reinstate;
	// ResyncBytes counts data bytes re-copied to a returning server
	// (journal replay and full-slice resync both); ResyncSpills counts
	// journals that overflowed their bounds and fell back to
	// full-slice resync; ResyncFallbacks counts journal replays that
	// abandoned the batched fast path for the serial one because a
	// status needed a verification lookup (the server already held a
	// prefix of the journal); Migrated counts data bytes re-placed by
	// membership changes (Join/Retire/Bounce); RenameAutoResolves
	// counts in-doubt renames resolved by a later walk over the marked
	// entry rather than an explicit re-drive.
	ResyncOps, ResyncBytes, ResyncSpills, ResyncFallbacks, Migrated, RenameAutoResolves sim.Counter
}

// NewCluster builds a striped cluster client over one Session per
// server. All sessions must live on the same client node and use
// distinct local endpoints (replies are demultiplexed by (seq,
// endpoint), so shared endpoints would cross-scatter). stripe is the
// stripe width in bytes — 0 selects DefaultStripeSize; it must be
// page-aligned (so page-granular consumers never split a page across
// servers) and at most MaxWriteChunk (so one stripe is one request).
func NewCluster(p *sim.Proc, sessions []*Session, stripe int) (*Cluster, error) {
	return NewReplicatedCluster(p, sessions, stripe, 1)
}

// NewReplicatedCluster is NewCluster with a replication factor: every
// stripe is written to replicas consecutive servers (1 <= replicas <=
// len(sessions)), reads prefer the stripe's primary and fail over to a
// replica when the primary's transport reports a fault, and replicas=1
// degenerates bit-identically to NewCluster. See the package comment
// on replication and faults.
func NewReplicatedCluster(p *sim.Proc, sessions []*Session, stripe, replicas int) (*Cluster, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("rfsrv: cluster needs at least one session")
	}
	if len(sessions) > 64 {
		// The size cache stamps each entry with the exclusion set as a
		// 64-bit mask (sizeEntry.downAt).
		return nil, fmt.Errorf("rfsrv: cluster supports at most 64 servers, got %d", len(sessions))
	}
	if replicas < 1 || replicas > len(sessions) {
		return nil, fmt.Errorf("rfsrv: replication factor %d outside 1..%d", replicas, len(sessions))
	}
	if stripe == 0 {
		stripe = DefaultStripeSize
	}
	if err := ValidateStripe(int64(stripe)); err != nil {
		return nil, err
	}
	node := sessions[0].Node()
	eps := make(map[uint8]bool)
	for _, s := range sessions {
		if s.Node() != node {
			return nil, fmt.Errorf("rfsrv: cluster sessions must share one client node")
		}
		ep := s.Client().myEP
		if eps[ep] {
			return nil, fmt.Errorf("rfsrv: cluster sessions share local endpoint %d", ep)
		}
		eps[ep] = true
	}
	members := make([]int, len(sessions))
	for i := range members {
		members[i] = i
	}
	return &Cluster{
		sessions: sessions,
		stripe:   int64(stripe),
		node:     node,
		replicas: replicas,
		down:     make([]bool, len(sessions)),
		nsEpochs: make([]uint64, len(sessions)),
		downNs:   make([]uint64, len(sessions)),
		sizes:    make(map[kernel.InodeID]sizeEntry),
		members:  members,
	}, nil
}

// ValidateStripe checks a stripe width: positive, page-aligned (so
// page-granular consumers never split a page across servers) and at
// most MaxWriteChunk (so one stripe is one request). Violations wrap
// ErrBadStripe.
func ValidateStripe(stripe int64) error {
	if stripe <= 0 || stripe%mem.PageSize != 0 {
		return fmt.Errorf("%w: %d is not a positive page multiple", ErrBadStripe, stripe)
	}
	if stripe > MaxWriteChunk {
		return fmt.Errorf("%w: %d exceeds one %d-byte request", ErrBadStripe, stripe, MaxWriteChunk)
	}
	return nil
}

// SetLayoutPolicy enables per-file layout classification (DESIGN.md
// §10). Call it once, right after construction and before any traffic:
// placement decisions are cached per inode, so flipping the policy on
// a cluster that already served files would strand their data. Every
// client of the namespace must run the same policy (see LayoutPolicy).
//
// On a one-server cluster the policy is accepted but inert: every
// class degenerates to the same single run on server 0, and keeping
// the machinery off preserves the bit-identity-with-a-plain-Session
// guarantee under every policy.
//
// The policy composes with the sharded namespace and with batched size
// publishes, in any order: under sharding a whole-on-home file lives on
// its owner group (see wholeHome).
func (cl *Cluster) SetLayoutPolicy(pol LayoutPolicy) error {
	cl.policy = pol
	cl.policyOn = len(cl.sessions) > 1
	if cl.policyOn && cl.layouts == nil {
		cl.layouts = make(map[kernel.InodeID]LayoutClass)
	}
	return nil
}

// LayoutPolicy returns the active policy and whether the layout
// machinery is engaged (false for policy-free and one-server clusters).
func (cl *Cluster) LayoutPolicy() (LayoutPolicy, bool) { return cl.policy, cl.policyOn }

// LayoutOf reports the layout class this client would use for the
// inode right now: the cached class, or LayoutStandard when the
// machinery is off or the inode has not been resolved yet (tests,
// stats; the data path uses layoutFor, which fetches unknown inodes).
func (cl *Cluster) LayoutOf(ino kernel.InodeID) LayoutClass { return cl.layoutCached(ino) }

// sizeEntry is one validated size-cache record: every alive server's
// local size for the inode is at least size, established while the
// inode's size epoch was epoch. The entry is dropped the moment any
// reply carries a different epoch. downAt records which servers were
// excluded when the entry was (last) established — exactly the
// servers its reconciliation fan skipped, and therefore exactly the
// entries Reinstate must drop when one of them returns.
type sizeEntry struct {
	size   int64
	epoch  uint64
	downAt uint64 // bitmask of servers excluded at establishment
}

// downBits snapshots the current exclusion set as an entry's downAt
// bitmask (the session count is capped at 64 by the constructor).
func (cl *Cluster) downBits() uint64 {
	var m uint64
	for i, d := range cl.down {
		if d {
			m |= 1 << i
		}
	}
	return m
}

// entry builds a size-cache record stamped with the current exclusion
// set.
func (cl *Cluster) entry(size int64, epoch uint64) sizeEntry {
	return sizeEntry{size: size, epoch: epoch, downAt: cl.downBits()}
}

// observeResp feeds one server reply into the validated size cache:
// the epoch it carries either confirms the cached entry for the inode
// it resolves, or proves a foreign exact size set ran — in which case
// the cached size floor is reset to zero (forcing the next overwrite
// to re-reconcile) under the freshly observed epoch. Adoption is
// strictly newest-wins: epochs only ever advance (exact sets bump,
// inodes are never reused), so an OLDER reply epoch proves the
// replying server — not the cache — is stale: it was excluded in some
// client's view while that client ran an exact set. Adopting its
// epoch would corrupt the cache backward and make every size-fan
// retry loop ping-pong between the divergent members' epochs forever;
// instead the fans detect the lagging member with epochBehind and
// exclude it. Replies that resolve no inode are ignored.
// from is the answering session slot (-1 when unknown): it gates the
// Layout byte (layoutKnownBy), never the size epoch.
func (cl *Cluster) observeResp(from int, resp *Resp) {
	if resp == nil {
		return
	}
	if resp.MemberEpoch > cl.viewEpoch && cl.view == nil {
		// The reply is stamped with a membership epoch this cluster has
		// never seen and — with no attached view — can never adopt. It
		// poisons itself (ErrStaleMembership from the next entry gate)
		// rather than keep routing by a retired geometry.
		cl.staleMember = true
	}
	if resp.Attr.Ino == 0 {
		return
	}
	if resp.Status != StOK && resp.Status != StStale {
		return
	}
	ino := resp.Attr.Ino
	e, ok := cl.sizes[ino]
	if !ok || resp.Epoch > e.epoch {
		cl.sizes[ino] = cl.entry(0, resp.Epoch)
	}
	if cl.policyOn && cl.layoutKnownBy(from, ino) {
		// A knowing reply teaches the layout cache alongside the size
		// cache; with the policy off the Layout byte is ignored and the
		// map stays empty (no per-reply map cost on the default path).
		cl.layouts[ino] = resp.Layout
	}
}

// layoutKnownBy reports whether session slot from records the inode's
// layout class: every server unsharded, only the owner group under
// sharding (the stubs other servers materialize hold no class and
// report LayoutStandard; DESIGN.md §10).
func (cl *Cluster) layoutKnownBy(from int, ino kernel.InodeID) bool {
	owner, n := cl.shardOwner(ino), len(cl.members)
	for j := 0; j < cl.replicas && cl.sharded; j++ {
		if cl.members[(owner+j)%n] == from {
			return true
		}
	}
	return !cl.sharded
}

// epochBehind reports whether a reply proves the replying server
// missed an exact size set this client already observed: its epoch
// for the resolved inode is strictly behind the cached one. Such a
// server's size state is incoherent (it was down, in the truncating
// client's view, when the epoch advanced — and grow publishes are
// epoch-checked precisely so it cannot silently resurrect the
// pre-truncate size). No single observed epoch satisfies a group
// whose members disagree, so retrying a refused fan against it can
// never converge: the caller must exclude the lagging member and let
// the coherent survivors carry the group.
func (cl *Cluster) epochBehind(resp *Resp) bool {
	if resp == nil || resp.Attr.Ino == 0 {
		return false
	}
	e, ok := cl.sizes[resp.Attr.Ino]
	return ok && resp.Epoch < e.epoch
}

// NumServers returns the number of servers data is striped across —
// the current member count, which membership changes move.
func (cl *Cluster) NumServers() int { return len(cl.members) }

// Replicas returns the replication factor R.
func (cl *Cluster) Replicas() int { return cl.replicas }

// StripeSize returns the standard-layout stripe width in bytes. The
// return type matches the internal int64 arithmetic (offsets and
// stripe indices are 64-bit); LayoutWide files stripe at
// WideStripeSize and LayoutWhole files do not stripe at all.
func (cl *Cluster) StripeSize() int64 { return cl.stripe }

// DownServers returns the indices of servers currently excluded after
// an observed fault, in server order.
func (cl *Cluster) DownServers() []int {
	var out []int
	for i, d := range cl.down {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// Reinstate lives in elastic.go (DESIGN.md §13): it replays the
// resync journal recorded during the exclusion — or rebuilds the
// server's slice in full when the journal spilled — before clearing
// the exclusion and dropping the size-cache entries established
// while the server was out.

// markDown records a server as excluded after an observed fault,
// snapshotting the mutation epoch and resetting the slot's resync
// journal: everything the server misses from here on is recorded for
// Reinstate to replay.
func (cl *Cluster) markDown(i int) {
	if !cl.down[i] {
		cl.down[i] = true
		cl.downNs[i] = cl.nsEpochs[i]
		cl.resetJournal(i)
		cl.Excluded.Add(0)
	}
}

// aliveCount returns the number of members not excluded (standby
// slots are never addressed, so they do not count).
func (cl *Cluster) aliveCount() int {
	n := 0
	for _, i := range cl.members {
		if !cl.down[i] {
			n++
		}
	}
	return n
}

// Sessions returns the per-server sessions in server order (stats,
// tests).
func (cl *Cluster) Sessions() []*Session { return cl.sessions }

// Node implements Async: the client node.
func (cl *Cluster) Node() *hw.Node { return cl.node }

// Window implements Async: the aggregate window over all servers.
func (cl *Cluster) Window() int {
	n := 0
	for _, s := range cl.sessions {
		n += s.Window()
	}
	return n
}

// InFlight implements Async: outstanding requests over all servers.
func (cl *Cluster) InFlight() int {
	n := 0
	for _, s := range cl.sessions {
		n += s.InFlight()
	}
	return n
}

// CanStart implements Async: whether a data operation on ino covering
// [off, off+n) could issue right now without blocking on window slots
// held by OTHER operations. It checks, per server, that the window has
// room for the range's runs — capped at the window size, because an
// operation needing more same-server slots than the window exists
// makes progress by retiring its own earlier runs (see StartRead), so
// what it requires from the caller is only that everyone else's slots
// are free. With replication the count covers every alive replica
// target of each run (what a write needs; reads need only one, so the
// answer is conservative — callers retire a little earlier, never
// deadlock). Per-file layouts made slot demand inode-dependent — a
// whole-on-home file needs one slot on its home where a striped file
// spreads — which is why CanStart takes the inode; it consults only
// the layout cache (never the wire), so an unresolved inode is paced
// as standard and corrected by the first reply.
func (cl *Cluster) CanStart(ino kernel.InodeID, off int64, n int) bool {
	if cap(cl.needScratch) < len(cl.sessions) {
		cl.needScratch = make([]int, len(cl.sessions))
	}
	need := cl.needScratch[:len(cl.sessions)]
	for i := range need {
		need[i] = 0
	}
	for _, r := range cl.runs(cl.layoutCached(ino), ino, off, n) {
		for j := 0; j < cl.replicas; j++ {
			if idx := cl.members[(r.owner+j)%len(cl.members)]; !cl.down[idx] {
				need[idx]++
			}
		}
	}
	for i, s := range cl.sessions {
		if need[i] == 0 {
			continue
		}
		if need[i] > s.Window() {
			need[i] = s.Window()
		}
		if s.InFlight()+need[i] > s.Window() {
			return false
		}
	}
	return true
}

// ---- placement ----

// mix is the splitmix64 finalizer: a cheap, well-distributed hash for
// home-server selection.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ownerIdx returns the placement POSITION owning the standard-layout
// stripe containing off (the primary — replicas follow on the next
// R-1 positions, wrapping). Positions index cl.members; session slots
// come out of that map, so membership changes re-place stripes by
// editing members alone.
func (cl *Cluster) ownerIdx(off int64) int {
	return int((off / cl.stripe) % int64(len(cl.members)))
}

// wholeHome returns the fixed data owner position of a whole-on-home
// file: where the inode's getattr goes (the homeIdx hash, or under
// sharding the owner residue), so ONE server answers both getattr and
// every byte of the file — the point of the class. Unlike homeIdx it
// does not walk past excluded servers (placement is fixed; reads fail
// over across the replica set, which under sharding is the owner
// group).
func (cl *Cluster) wholeHome(ino kernel.InodeID) int {
	if cl.sharded {
		return cl.shardOwner(ino)
	}
	return int(mix(uint64(ino)) % uint64(len(cl.members)))
}

// ownerAt returns the primary data server for byte off of an inode
// under its layout class (replicas follow on the next R-1 servers,
// wrapping, for every class).
func (cl *Cluster) ownerAt(lay LayoutClass, ino kernel.InodeID, off int64) int {
	switch lay {
	case LayoutWhole:
		return cl.wholeHome(ino)
	case LayoutWide:
		return int((off / WideStripeSize) % int64(len(cl.members)))
	default:
		return cl.ownerIdx(off)
	}
}

// readIdx returns the preferred read target for byte off of an inode
// under its layout, as a session slot: the primary when alive, else
// the first alive replica, else -1.
func (cl *Cluster) readIdx(lay LayoutClass, ino kernel.InodeID, off int64) int {
	owner := cl.ownerAt(lay, ino, off)
	n := len(cl.members)
	for j := 0; j < cl.replicas; j++ {
		if k := cl.members[(owner+j)%n]; !cl.down[k] {
			return k
		}
	}
	return -1
}

// layoutCached returns the inode's cached layout class without
// traffic: LayoutStandard when the policy machinery is off or the
// inode has not been resolved yet.
func (cl *Cluster) layoutCached(ino kernel.InodeID) LayoutClass {
	if !cl.policyOn {
		return LayoutStandard
	}
	return cl.layouts[ino]
}

// layoutFor resolves the layout class a data operation must use. With
// the policy on, an inode this client has never resolved costs one
// getattr on the control path (the reply teaches both caches);
// every create, lookup or prior data reply already populated the cache
// for the normal open-then-read lifecycle, so the fetch is rare.
func (cl *Cluster) layoutFor(p *sim.Proc, ino kernel.InodeID) (LayoutClass, error) {
	if !cl.policyOn {
		return LayoutStandard, nil
	}
	if lc, ok := cl.layouts[ino]; ok {
		return lc, nil
	}
	resp, err := cl.getattr(p, ino)
	if err != nil {
		return LayoutStandard, err
	}
	return resp.Layout, nil
}

// getattr fetches an inode's attributes where its metadata lives: the
// owner group under sharding, the hashed home otherwise.
func (cl *Cluster) getattr(p *sim.Proc, ino kernel.InodeID) (*Resp, error) {
	req := &Req{Op: OpGetattr, Ino: ino}
	if cl.sharded {
		return cl.groupRead(p, cl.shardOwner(ino), req)
	}
	return cl.homedMeta(p, req, func() int { return cl.homeIdx(ino) })
}

// aliveFrom returns the session slot of the first non-excluded member
// at or cyclically after position i, or -1 when every member is
// excluded.
func (cl *Cluster) aliveFrom(i int) int {
	n := len(cl.members)
	for j := 0; j < n; j++ {
		if k := cl.members[(i+j)%n]; !cl.down[k] {
			return k
		}
	}
	return -1
}

// homeIdx returns the metadata home of an inode: the hashed server, or
// the next alive one when the hashed home is excluded.
func (cl *Cluster) homeIdx(ino kernel.InodeID) int {
	return cl.aliveFrom(int(mix(uint64(ino)) % uint64(len(cl.members))))
}

// pathHomeIdx returns the metadata home of a path component: the hash
// chains the directory's inode with the name (FNV-1a over the
// component), so sibling entries spread across servers. Excluded homes
// re-route to the next alive server, like homeIdx.
func (cl *Cluster) pathHomeIdx(dir kernel.InodeID, name string) int {
	return cl.aliveFrom(int(pathHash(dir, name) % uint64(len(cl.members))))
}

// pathHash chains a directory's inode with a component name (FNV-1a
// over the name): the spread hash of path homing and of sharded
// directory residues.
func pathHash(dir kernel.InodeID, name string) uint64 {
	h := mix(uint64(dir))
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// allReplicasDown is the error for a stripe whose every replica is
// excluded; it satisfies fabric.IsFault.
func (cl *Cluster) allReplicasDown(off int64) error {
	return fmt.Errorf("rfsrv: stripe at %d: all %d replicas excluded: %w",
		off, cl.replicas, fabric.ErrPeerDead)
}

// withReplica is the shared issue-time failover policy: run op against
// the preferred replica of the byte at off under the inode's layout,
// excluding each target whose transport faults and retrying on the
// next alive replica; a non-fault error returns as produced. bytes is
// the data volume recorded per failover (0 for metadata-sized
// operations).
func withReplica[T any](cl *Cluster, lay LayoutClass, ino kernel.InodeID, off int64, bytes int, op func(idx int) (T, error)) (T, error) {
	for {
		idx := cl.readIdx(lay, ino, off)
		if idx < 0 {
			var zero T
			return zero, cl.allReplicasDown(off)
		}
		v, err := op(idx)
		if err != nil && fabric.IsFault(err) {
			cl.markDown(idx)
			cl.Failovers.Add(bytes)
			continue
		}
		return v, err
	}
}

// degenerate runs a zero-length data operation against the offset's
// preferred replica, with the shared issue-time failover policy.
func (cl *Cluster) degenerate(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, off int64, op func(idx int) (*Resp, error)) (*Resp, error) {
	resp, err := withReplica(cl, lay, ino, off, 0, op)
	if resp == nil && err != nil {
		resp = &Resp{Status: StatusOf(err)}
	}
	// The replica that answered is still the preferred one.
	cl.observeResp(cl.readIdx(lay, ino, off), resp)
	return resp, err
}

// OwnerServer returns the index of the server owning the stripe that
// contains byte offset off (stats, tests, placement-aware callers).
// The primary owner is reported even when that server is excluded
// (reads would route to a replica; see DownServers).
func (cl *Cluster) OwnerServer(off int64) int { return cl.ownerIdx(off) }

// HomeServer returns the index of the metadata home of an inode. The
// home shifts past excluded servers, so the answer changes as faults
// are observed; it is -1 only when every server is excluded.
func (cl *Cluster) HomeServer(ino kernel.InodeID) int { return cl.homeIdx(ino) }

// run is one contiguous byte range owned by a single server.
type run struct {
	owner int
	off   int64 // global file offset
	n     int
}

// runs splits [off, off+n) of an inode into maximal contiguous
// same-owner ranges under its layout class, in offset order. A
// whole-on-home file (and any file on a one-server cluster) is a
// single run; striped files get one run per stripe fragment.
//
// The returned slice is the cluster's per-operation scratch: valid
// until the next runs call, so callers that outlive their own issue
// loop (StartRead/StartWrite pendings) must copy it.
func (cl *Cluster) runs(lay LayoutClass, ino kernel.InodeID, off int64, n int) []run {
	out := cl.runScratch[:0]
	if lay == LayoutWhole {
		out = append(out, run{owner: cl.wholeHome(ino), off: off, n: n})
		cl.runScratch = out
		return out
	}
	width := cl.stripe
	if lay == LayoutWide {
		width = WideStripeSize
	}
	end := off + int64(n)
	for off < end {
		owner := cl.ownerAt(lay, ino, off)
		cur := off
		for cur < end {
			stripeEnd := (cur/width + 1) * width
			if stripeEnd >= end {
				cur = end
				break
			}
			cur = stripeEnd
			if cl.ownerAt(lay, ino, cur) != owner {
				break
			}
		}
		out = append(out, run{owner: owner, off: off, n: int(cur - off)})
		off = cur
	}
	cl.runScratch = out
	return out
}

// ---- data path ----

// part is one per-server request of a striped operation.
type part struct {
	pd     *Pending
	r      run
	want   int         // expected byte count (writes)
	ridx   int         // index of the run this part belongs to
	target int         // server the request was issued to
	vec    core.Vector // destination slice (reads: kept for failover reissue)
	resp   *Resp
	err    error
	done   bool
}

// retire waits the part once and memoizes its outcome.
func (pt *part) retire(p *sim.Proc) {
	if pt.done {
		return
	}
	pt.resp, pt.err = pt.pd.Wait(p)
	pt.done = true
}

// getPart returns a recycled (zeroed) part from the freelist. Parts
// never escape the cluster — synchronous operations recycle at return,
// pendings at Wait — so the freelist turns the per-run allocation of
// the striped hot path into a steady-state zero.
func (cl *Cluster) getPart() *part {
	if n := len(cl.partFree); n > 0 {
		pt := cl.partFree[n-1]
		cl.partFree = cl.partFree[:n-1]
		*pt = part{}
		return pt
	}
	return &part{}
}

// putParts returns retired parts to the freelist. Callers must drop
// every reference first (results are merged into fresh Resps before
// any part is recycled).
func (cl *Cluster) putParts(parts []*part) {
	cl.partFree = append(cl.partFree, parts...)
}

// makeRoom retires outstanding parts oldest-first until session s can
// accept one more request — the cross-server analogue of Session's
// window backpressure. parts complete out of order on the wire, so
// waiting the oldest always makes progress.
func makeRoom(p *sim.Proc, s *Session, parts []*part) {
	for _, pt := range parts {
		if s.InFlight() < s.Window() {
			return
		}
		pt.retire(p)
	}
}

// mergeAttr picks the authoritative attributes out of per-server
// responses: the largest size wins (a data server that holds the tail
// stripe knows more of the file than one that does not).
func mergeAttr(parts []*part) kernel.Attr {
	var attr kernel.Attr
	for _, pt := range parts {
		if pt.resp != nil && (attr.Ino == 0 || pt.resp.Attr.Size > attr.Size) {
			attr = pt.resp.Attr
		}
	}
	return attr
}

// firstError returns the first per-server failure in offset order.
func firstError(parts []*part) error {
	for _, pt := range parts {
		if pt.err != nil {
			return pt.err
		}
	}
	return nil
}

// firstAppError returns the first non-fault failure in offset order —
// application-level errors always abort, while transport faults are
// the replication layer's to absorb.
func firstAppError(parts []*part) error {
	for _, pt := range parts {
		if pt.err != nil && !fabric.IsFault(pt.err) {
			return pt.err
		}
	}
	return nil
}

// issueRead starts one run's read on the preferred replica under the
// inode's layout, failing over synchronously when the transport
// rejects the send (dead peer). parts are this operation's earlier
// issues, retired by makeRoom when the target's window is full.
func (cl *Cluster) issueRead(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, r run, vec core.Vector, parts []*part) (*part, error) {
	return withReplica(cl, lay, ino, r.off, r.n, func(idx int) (*part, error) {
		s := cl.sessions[idx]
		makeRoom(p, s, parts)
		pd, err := s.startRead(p, ino, r.off, vec)
		if err != nil {
			return nil, err
		}
		cl.StripeReads.Add(r.n)
		pt := cl.getPart()
		pt.pd, pt.r, pt.target, pt.vec = pd, r, idx, vec
		return pt, nil
	})
}

// failoverReads retries, in offset order, every read part that failed
// with a transport fault, re-reading it from the next alive replica
// under the inode's layout (the faulting server is excluded first).
// Retries travel the replica's synchronous control path — NOT a window
// slot: failover runs inside some PendingOp.Wait, while the caller's
// other unretired pendings may legitimately hold every slot of the
// surviving servers, so a slot-bound retry could deadlock against its
// own pipeline. A part whose every replica is excluded keeps its fault
// error.
func (cl *Cluster) failoverReads(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, parts []*part) {
	for _, pt := range parts {
		for pt.err != nil && fabric.IsFault(pt.err) {
			cl.markDown(pt.target)
			idx := cl.readIdx(lay, ino, pt.r.off)
			if idx < 0 {
				break // every replica gone; the fault stands
			}
			cl.Failovers.Add(pt.r.n)
			pt.target = idx
			pt.resp, pt.err = cl.sessions[idx].Client().Read(p, ino, pt.r.off, pt.vec)
			if pt.err == nil {
				cl.StripeReads.Add(pt.r.n)
			}
		}
	}
}

// Read implements Client: the range splits into per-server runs issued
// in parallel through each server's window; data lands directly in the
// caller's vector (each run scatters into its own slice of dst, so
// striping adds no copies). The merged byte count is the contiguous
// prefix before the first server-clipped (EOF) run. A run whose target
// faults is re-read from the stripe's next alive replica; only a run
// with no replicas left fails the read.
func (cl *Cluster) Read(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (*Resp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	if off < 0 {
		return &Resp{Status: StInval}, ErrInval
	}
	lay, lerr := cl.layoutFor(p, ino)
	if lerr != nil {
		return &Resp{Status: StatusOf(lerr)}, lerr
	}
	total := dst.TotalLen()
	if total == 0 {
		// Degenerate read: one attr-only round trip to the offset's
		// preferred replica, failing over like any other data path.
		return cl.degenerate(p, lay, ino, off, func(idx int) (*Resp, error) {
			return cl.sessions[idx].Read(p, ino, off, dst)
		})
	}
	parts := cl.syncParts[:0]
	defer func() {
		cl.putParts(parts)
		cl.syncParts = parts[:0]
	}()
	for _, r := range cl.runs(lay, ino, off, total) {
		pt, err := cl.issueRead(p, lay, ino, r, dst.Slice(int(r.off-off), r.n), parts)
		if err != nil {
			drainParts(p, parts)
			return &Resp{Status: StatusOf(err)}, err
		}
		parts = append(parts, pt)
	}
	for _, pt := range parts {
		pt.retire(p)
	}
	cl.failoverReads(p, lay, ino, parts)
	for _, pt := range parts {
		cl.observeResp(pt.target, pt.resp)
	}
	if err := firstError(parts); err != nil {
		return &Resp{Status: StatusOf(err), Attr: mergeAttr(parts)}, err
	}
	return mergeRead(parts), nil
}

// mergeRead folds per-run read responses into one: byte count is the
// contiguous prefix, attributes are the authoritative merge.
func mergeRead(parts []*part) *Resp {
	n := 0
	for _, pt := range parts {
		n += int(pt.resp.N)
		if int(pt.resp.N) < pt.r.n {
			break // EOF inside this run; later runs are past the end
		}
	}
	return &Resp{Status: StOK, Attr: mergeAttr(parts), Epoch: mergeEpoch(parts), N: uint32(n)}
}

// mergeEpoch picks the newest size epoch out of per-server responses
// (they agree except mid-race with a foreign exact size set, where the
// newest is the one to revalidate against).
func mergeEpoch(parts []*part) uint64 {
	var e uint64
	for _, pt := range parts {
		if pt.resp != nil && pt.resp.Epoch > e {
			e = pt.resp.Epoch
		}
	}
	return e
}

// drainParts retires every part, discarding results — the error path.
// Without it an early return would leak window slots.
func drainParts(p *sim.Proc, parts []*part) {
	for _, pt := range parts {
		pt.retire(p)
	}
}

// Write implements Client: runs are chunked at MaxWriteChunk and
// pipelined across the per-server windows — each run to its primary
// and, with replication, to the next R-1 alive servers; after a write
// that extends the file, grow-only OpSetSize requests reconcile every
// other server's local size (see the package comment on size
// reconciliation). A replica that faults mid-write is excluded; the
// write succeeds as long as every run kept at least one clean replica.
func (cl *Cluster) Write(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (*Resp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	if off < 0 {
		return &Resp{Status: StInval}, ErrInval
	}
	total := src.TotalLen()
	lay, lerr := cl.layoutFor(p, ino)
	if lerr != nil {
		return &Resp{Status: StatusOf(lerr)}, lerr
	}
	if total == 0 {
		// Degenerate write: like the degenerate read, with failover.
		return cl.degenerate(p, lay, ino, off, func(idx int) (*Resp, error) {
			return cl.sessions[idx].Write(p, ino, off, src)
		})
	}
	if lay, lerr = cl.maybePromote(p, ino, lay, off+int64(total)); lerr != nil {
		return &Resp{Status: StatusOf(lerr)}, lerr
	}
	runs := cl.runs(lay, ino, off, total)
	parts := cl.syncParts[:0]
	defer func() {
		cl.putParts(parts)
		cl.syncParts = parts[:0]
	}()
	fail := func(err error) (*Resp, error) {
		drainParts(p, parts)
		return &Resp{Status: StatusOf(err)}, err
	}
	tailTargets := cl.tailScratch[:0]
	defer func() { cl.tailScratch = tailTargets[:0] }()
	for ri, r := range runs {
		live := 0
		tail := ri == len(runs)-1
		for j := 0; j < cl.replicas; j++ {
			idx := cl.members[(r.owner+j)%len(cl.members)]
			if cl.down[idx] {
				continue
			}
			s := cl.sessions[idx]
			faulted := false
			// Runs longer than one request (a merged single-server range
			// or a wide stripe) chunk exactly like Session.Write does.
			for done := 0; done < r.n; {
				chunk := r.n - done
				if chunk > MaxWriteChunk {
					chunk = MaxWriteChunk
				}
				makeRoom(p, s, parts)
				at := r.off + int64(done)
				pd, err := s.startWrite(p, ino, at, src.Slice(int(at-off), chunk))
				if err != nil {
					if fabric.IsFault(err) {
						cl.markDown(idx)
						faulted = true
						break // this replica is lost; others may carry the run
					}
					return fail(err)
				}
				cl.StripeWrites.Add(chunk)
				pt := cl.getPart()
				pt.pd, pt.r = pd, run{owner: r.owner, off: at, n: chunk}
				pt.want, pt.ridx, pt.target = chunk, ri, idx
				parts = append(parts, pt)
				done += chunk
			}
			if !faulted {
				live++
				if tail {
					tailTargets = append(tailTargets, idx)
				}
			}
		}
		if live == 0 {
			return fail(cl.allReplicasDown(r.off))
		}
	}
	for _, pt := range parts {
		pt.retire(p)
	}
	resp, err := cl.finishWriteParts(ino, runs, parts, total)
	if err != nil {
		return resp, err
	}
	if v := cl.view; v != nil && v.migrating {
		v.logWrite(ino, off, total)
	}
	// Feed the data replies' size epochs into the validated cache
	// BEFORE deciding whether to reconcile: a foreign truncate since
	// this client's last reconciliation resets the cached floor here,
	// which is exactly what forces setSizeTo to re-run for an overwrite
	// below the stale cached size.
	for _, pt := range parts {
		cl.observeResp(pt.target, pt.resp)
	}
	if cl.pubBatch > 0 && lay != LayoutWhole && len(cl.members) > 1 {
		// Batched publish mode: enqueue the new end instead of fanning
		// an OpSetSize now; the coalesced batch flushes at the publish
		// window or the next metadata operation. Every part retired
		// above, so a window-triggered flush never contends with this
		// write's own slots.
		if err := cl.enqueueSizePub(p, ino, off+int64(total)); err != nil {
			return &Resp{Status: StatusOf(err)}, err
		}
	} else if err := cl.setSizeTo(p, lay, ino, off+int64(total), tailTargets); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return resp, nil
}

// finishWriteParts is the shared epilogue of the two replicated write
// paths (Cluster.Write and clusterPending.Wait); every part must
// already be retired. Transport faults exclude their server; a
// non-fault error or a clean-but-short chunk aborts (a short chunk at
// a fixed offset is a hole, not a prefix, exactly like Session.Write's
// pipelined path — faulted parts carry no response and are judged by
// run coverage instead); otherwise every run must retain one replica
// all of whose chunks are clean. On success the merged response covers
// all `total` logical bytes.
func (cl *Cluster) finishWriteParts(ino kernel.InodeID, runs []run, parts []*part, total int) (*Resp, error) {
	for _, pt := range parts {
		if pt.err != nil && fabric.IsFault(pt.err) {
			cl.markDown(pt.target)
		}
	}
	if err := firstAppError(parts); err != nil {
		return &Resp{Status: StatusOf(err), Attr: mergeAttr(parts)}, err
	}
	for _, pt := range parts {
		if pt.err == nil && int(pt.resp.N) != pt.want {
			err := fmt.Errorf("rfsrv: short striped write (%d of %d) at %d", pt.resp.N, pt.want, pt.r.off)
			return &Resp{Status: StIO, Attr: mergeAttr(parts)}, err
		}
	}
	if err := cl.checkRunCoverage(runs, parts); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	// The write succeeded; record its byte ranges in the resync journal
	// of every excluded replica (skipped at issue or faulted above), so
	// Reinstate can re-copy them.
	if cl.anyDown() {
		cl.journalRunDirty(ino, runs)
	}
	return &Resp{Status: StOK, Attr: mergeAttr(parts), Epoch: mergeEpoch(parts), N: uint32(total)}, nil
}

// checkRunCoverage verifies, after a replicated write's parts retired,
// that every run retains at least one replica all of whose chunks
// completed cleanly. Parts that faulted mark their (run, target) pair
// dirty; a run covered by no clean pair has lost its data. The
// fault-free hot path (every write, outside fault-injection tests)
// allocates nothing: every part issued is a covering part.
func (cl *Cluster) checkRunCoverage(runs []run, parts []*part) error {
	anyErr := false
	for _, pt := range parts {
		if pt.err != nil {
			anyErr = true
			break
		}
	}
	if cap(cl.coverScratch) < len(runs) {
		cl.coverScratch = make([]bool, len(runs))
	}
	covered := cl.coverScratch[:len(runs)]
	for i := range covered {
		covered[i] = false
	}
	if !anyErr {
		for _, pt := range parts {
			covered[pt.ridx] = true
		}
	} else {
		type pair struct{ ridx, target int }
		dirty := make(map[pair]bool)
		for _, pt := range parts {
			if pt.err != nil {
				dirty[pair{pt.ridx, pt.target}] = true
			}
		}
		for _, pt := range parts {
			if pt.err == nil && !dirty[pair{pt.ridx, pt.target}] {
				covered[pt.ridx] = true
			}
		}
	}
	for ri, ok := range covered {
		if !ok {
			return fmt.Errorf("rfsrv: write run at %d lost on every replica: %w",
				runs[ri].off, fabric.ErrPeerDead)
		}
	}
	return nil
}

// setSizeTo reconciles file size after a write ending at end: every
// server except the tail run's own targets (whose local sizes already
// reach end) and the excluded ones gets a grow-only OpSetSize carrying
// this client's observed size epoch. Skipped entirely when this client
// holds a validated size >= end, and always a no-op on a one-server
// cluster. A server that faults during reconciliation is excluded —
// not an error: the alive servers are consistent, which is all the
// cache records. Because the grow mode is idempotent, a retry after a
// transient fault (write re-run, or Reinstate then write) replays it
// safely in any order. Servers refuse a stale observed epoch
// (a foreign exact size set ran since): their StStale replies carry
// the authoritative epoch, the cache entry resets, and the fan
// retries under the fresh epoch.
//
// A whole-on-home file never reconciles: its single data owner is its
// metadata home (the same hash picks both), so the only server anyone
// asks about the file already holds the authoritative size — and with
// replication, every write landed on the same replica set a re-homed
// getattr walks. That class sidesteps the fan by placement (DESIGN.md
// §10); every other layout now has a second way out, batched size
// publishes (SetSizePublishBatch, DESIGN.md §11): instead of fanning
// after every extending write, the cluster coalesces the highest
// pending end per inode and flushes one combined OpSetSize batch per
// server at the publish window, taking the per-write cost from N−1
// round trips to an amortized fraction of one. This function is the
// immediate (unbatched) path; Write diverts to enqueueSizePub when a
// publish window is configured. figures.SmallFile audits the
// whole-on-home zero and figures.SharedFile the amortized fraction.
func (cl *Cluster) setSizeTo(p *sim.Proc, lay LayoutClass, ino kernel.InodeID, end int64, tailTargets []int) error {
	if lay == LayoutWhole {
		return nil
	}
	skip := tailTargets
	for attempt := 0; ; attempt++ {
		e := cl.sizes[ino]
		if e.size >= end {
			return nil
		}
		stale, err := cl.setSizeFan(p, ino, end, e.epoch, skip)
		if err != nil {
			return err
		}
		if !stale {
			cl.sizes[ino] = cl.entry(end, e.epoch)
			return nil
		}
		// The StStale replies refreshed the cache entry (observeResp);
		// go around with the authoritative epoch. The foreign exact set
		// that raced us may have shrunk the tail targets after our data
		// landed on them, so retries stop skipping anyone. The cap only
		// guards against a pathological truncate storm.
		skip = nil
		if attempt >= 3 {
			return fmt.Errorf("rfsrv: size reconciliation of inode %d kept racing foreign truncates: %w", ino, ErrStaleEpoch)
		}
	}
}

// skipsServer reports whether server i is in the (tiny, ≤R-entry)
// skip list — a linear scan beats a map allocation on the per-write
// reconciliation path.
func skipsServer(skip []int, i int) bool {
	for _, s := range skip {
		if s == i {
			return true
		}
	}
	return false
}

// setSizeFan is one round of the grow-only reconciliation: OpSetSize
// to every alive server not in skip, in parallel on the control paths.
// Faulting servers are excluded; stale reports whether any server
// refused the observed epoch (the caller revalidates and retries);
// other application errors win over staleness. Flights live in the
// cluster's scratch (reconciliation fans never nest with metadata
// fanout — both run to completion before returning).
func (cl *Cluster) setSizeFan(p *sim.Proc, ino kernel.InodeID, end int64, epoch uint64, skip []int) (stale bool, err error) {
	flights := cl.flightScratch[:0]
	targets := cl.targetScratch[:0]
	defer func() {
		cl.flightScratch = flights[:0]
		cl.targetScratch = targets[:0]
	}()
	var firstErr error
	for _, i := range cl.members {
		s := cl.sessions[i]
		if cl.down[i] || skipsServer(skip, i) {
			continue
		}
		cl.SetSizes.Add(1)
		cl.fanReq = Req{Op: OpSetSize, Ino: ino, Off: end, Len: SetSizeGrow, Epoch: epoch}
		fl, err := startSyncMeta(p, s.c, &cl.fanReq)
		if err != nil {
			if fabric.IsFault(err) {
				cl.markDown(i)
				continue
			}
			firstErr = err
			break
		}
		flights = append(flights, fl)
		targets = append(targets, i)
	}
	for k := range flights {
		resp, err := flights[k].wait(p)
		if err != nil && fabric.IsFault(err) {
			cl.markDown(targets[k])
			continue
		}
		cl.observeResp(targets[k], resp)
		if errors.Is(err, ErrStaleEpoch) {
			if cl.epochBehind(resp) {
				// A member lagging the cached epoch missed an exact set
				// outright (see epochBehind) — exclude it instead of
				// burning the retry budget on a fan it can never accept.
				cl.markDown(targets[k])
				continue
			}
			stale = true
			continue
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return stale, firstErr
}

// SetFileSize publishes an externally tracked end-of-file through the
// grow-only reconciliation: every alive server's local size is raised
// to at least size, under the validated cache (a no-op when a cached
// entry already covers it). This is the barrier piece asynchronous
// writers need — ORFS write-behind extends only the servers its dirty
// pages land on, then calls SetFileSize at its sync barrier so homed
// getattr and striped-read EOF clipping agree with the bytes it wrote.
// Under an adaptive layout policy, publishing a size past
// PromoteThreshold is also the async writer's promotion point: the
// caller has retired its pipeline by the time it publishes (that is
// what a sync barrier is), so this is the one safe moment to migrate
// a whole-on-home file that grew past the threshold via StartWrite.
func (cl *Cluster) SetFileSize(p *sim.Proc, ino kernel.InodeID, size int64) error {
	if size < 0 {
		return ErrInval
	}
	lay, err := cl.layoutFor(p, ino)
	if err != nil {
		return err
	}
	if lay, err = cl.maybePromote(p, ino, lay, size); err != nil {
		return err
	}
	if cl.pubBatch > 0 && lay != LayoutWhole && len(cl.members) > 1 {
		// A size publish IS a barrier: enqueue, then flush everything
		// pending, so the caller's EOF is on every alive server when
		// this returns (what ORFS write-behind's sync point needs).
		if e := cl.sizes[ino]; e.size < size {
			if _, ok := cl.pendPub[ino]; !ok {
				cl.pendOrder = append(cl.pendOrder, ino)
				cl.pendPub[ino] = size
			} else if size > cl.pendPub[ino] {
				cl.pendPub[ino] = size
			}
		}
		return cl.FlushSizes(p)
	}
	return cl.setSizeTo(p, lay, ino, size, nil)
}

// ---- adaptive promotion ----

// maybePromote is the adaptive-policy trigger: a whole-on-home file
// about to reach past PromoteThreshold (end is the prospective EOF) is
// migrated to standard striping first, and the caller proceeds under
// the returned class. Promotion runs only from synchronous call sites
// (Write, SetFileSize) — never mid-async-stream, where the caller's
// own unretired pendings could still be landing bytes the migration
// would miss; an async writer's promotion point is the SetFileSize at
// its sync barrier.
func (cl *Cluster) maybePromote(p *sim.Proc, ino kernel.InodeID, lay LayoutClass, end int64) (LayoutClass, error) {
	if !cl.policyOn || !cl.policy.Adaptive || lay != LayoutWhole || end <= PromoteThreshold {
		return lay, nil
	}
	if err := cl.promote(p, ino); err != nil {
		return lay, err
	}
	return LayoutStandard, nil
}

// stagingVec returns an n-byte vector over the cluster's migration
// staging buffer, mapping it on first use (promotion is rare; clusters
// that never promote never pay the mapping).
func (cl *Cluster) stagingVec(n int) (core.Vector, error) {
	c := cl.sessions[0].c
	if cl.migVA == 0 {
		alloc := c.as.Mmap
		if c.kernSide {
			alloc = c.as.MmapContig
		}
		va, err := alloc(MaxWriteChunk, "rfsrv-promote")
		if err != nil {
			return nil, err
		}
		cl.migVA = va
	}
	return core.Of(c.seg(cl.migVA, n)), nil
}

// promote migrates a whole-on-home file to standard striping: its
// bytes are copied from the home to every standard-placement replica
// they belong on, then an OpSetLayout fans the class flip to every
// alive server (epoch-bumping, so every client's validated size cache
// revalidates under the new placement). The copy travels the
// synchronous control paths — never window slots, so promotion cannot
// deadlock against a caller's pipeline. Fragments whose standard
// placement includes the home are not rewritten: whole-on-home stores
// bytes at their global offsets, which is exactly where standard
// striping expects them.
func (cl *Cluster) promote(p *sim.Proc, ino kernel.InodeID) error {
	src := cl.members[cl.wholeHome(ino)]
	resp, err := cl.getattr(p, ino)
	if err != nil {
		return err
	}
	size := resp.Attr.Size
	for off := int64(0); off < size; {
		n := int(size - off)
		if n > MaxWriteChunk {
			n = MaxWriteChunk
		}
		vec, err := cl.stagingVec(n)
		if err != nil {
			return err
		}
		chunkOff := off
		rresp, err := withReplica(cl, LayoutWhole, ino, chunkOff, n, func(idx int) (*Resp, error) {
			return cl.sessions[idx].Client().Read(p, ino, chunkOff, vec)
		})
		if err != nil {
			return err
		}
		if int(rresp.N) != n {
			return fmt.Errorf("rfsrv: promote inode %d: short read (%d of %d) at %d", ino, rresp.N, n, off)
		}
		// Scatter the chunk to its standard-placement replicas, one
		// stripe fragment at a time.
		end := off + int64(n)
		for off < end {
			fragEnd := (off/cl.stripe + 1) * cl.stripe
			if fragEnd > end {
				fragEnd = end
			}
			frag := int(fragEnd - off)
			owner := cl.ownerIdx(off)
			okReplicas := 0
			for j := 0; j < cl.replicas; j++ {
				idx := cl.members[(owner+j)%len(cl.members)]
				if cl.down[idx] {
					cl.journalDirty(idx, ino, off, frag)
					continue
				}
				if idx == src {
					okReplicas++ // the home already holds these bytes
					continue
				}
				wresp, werr := cl.sessions[idx].Client().Write(p, ino, off, vec.Slice(int(off-chunkOff), frag))
				if werr != nil {
					if fabric.IsFault(werr) {
						cl.markDown(idx)
						cl.journalDirty(idx, ino, off, frag)
						continue
					}
					return werr
				}
				if int(wresp.N) != frag {
					return fmt.Errorf("rfsrv: promote inode %d: short copy (%d of %d) at %d", ino, wresp.N, frag, off)
				}
				okReplicas++
			}
			if okReplicas == 0 {
				return cl.allReplicasDown(off)
			}
			off = fragEnd
		}
	}
	if _, err := cl.fanout(p, &Req{Op: OpSetLayout, Ino: ino, Layout: LayoutStandard}); err != nil {
		return err
	}
	cl.layouts[ino] = LayoutStandard
	cl.Promotions.Add(int(size))
	return nil
}

// ---- pipelined data path (Async) ----

// clusterPending is one striped in-flight operation: the per-server
// parts of a single logical read or write.
type clusterPending struct {
	cl     *Cluster
	ino    kernel.InodeID
	lay    LayoutClass
	parts  []*part
	runs   []run // the logical runs (writes: replica coverage check)
	want   int   // expected total (writes; -1 for reads)
	issued sim.Time

	done bool
	resp *Resp
	err  error

	gated bool // counted in the view's pending until Wait
}

// seal records the issue time once every part is out (the first part's
// window-entry instant — the same instant a Session would report,
// keeping latency accounting bit-identical in the one-server
// configuration) so Issued keeps answering after Wait recycles the
// parts.
func (cp *clusterPending) seal() {
	if len(cp.parts) > 0 {
		cp.issued = cp.parts[0].pd.issued
	}
}

// Wait implements PendingOp: retires every part and merges. Faulted
// read parts fail over to their stripe's next alive replica before the
// merge; faulted write parts exclude their server and are tolerated as
// long as every run kept a clean replica. The parts return to the
// cluster's freelist once merged — the memoized (resp, err) is all a
// second Wait needs.
func (cp *clusterPending) Wait(p *sim.Proc) (*Resp, error) {
	if cp.done {
		return cp.resp, cp.err
	}
	cp.done = true
	for _, pt := range cp.parts {
		pt.retire(p)
	}
	if cp.want < 0 {
		cp.cl.failoverReads(p, cp.lay, cp.ino, cp.parts)
		for _, pt := range cp.parts {
			cp.cl.observeResp(pt.target, pt.resp)
		}
		if err := firstError(cp.parts); err != nil {
			cp.resp, cp.err = &Resp{Status: StatusOf(err), Attr: mergeAttr(cp.parts)}, err
		} else {
			cp.resp = mergeRead(cp.parts)
		}
	} else {
		cp.resp, cp.err = cp.cl.finishWriteParts(cp.ino, cp.runs, cp.parts, cp.want)
		for _, pt := range cp.parts {
			cp.cl.observeResp(pt.target, pt.resp)
		}
	}
	cp.cl.notePendingDone(cp)
	cp.cl.putParts(cp.parts)
	cp.parts = nil
	return cp.resp, cp.err
}

// Issued implements PendingOp: the time the first per-server request
// entered its window (sealed at issue; see seal).
func (cp *clusterPending) Issued() sim.Time {
	if len(cp.parts) > 0 {
		return cp.parts[0].pd.issued
	}
	return cp.issued
}

// StartRead implements Async: the striped read issues without waiting.
// Callers holding unretired pendings must consult CanStart first (see
// the Async contract) — the per-server issues here block on their own
// windows.
func (cl *Cluster) StartRead(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (PendingOp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return nil, err
	}
	defer cl.exitOp()
	if off < 0 {
		return nil, ErrInval
	}
	lay, lerr := cl.layoutFor(p, ino)
	if lerr != nil {
		return nil, lerr
	}
	total := dst.TotalLen()
	cp := &clusterPending{cl: cl, ino: ino, lay: lay, want: -1, issued: p.Now()}
	if total == 0 {
		// Zero-length read: one attr-only request to the offset's
		// preferred replica, like the synchronous Read path — with the
		// same issue-time failover (Wait-time faults fail over through
		// failoverReads like any other part).
		pt, err := withReplica(cl, lay, ino, off, 0, func(idx int) (*part, error) {
			pd, err := cl.sessions[idx].startRead(p, ino, off, dst)
			if err != nil {
				return nil, err
			}
			pt := cl.getPart()
			pt.pd, pt.r, pt.target, pt.vec = pd, run{owner: cl.ownerAt(lay, ino, off), off: off}, idx, dst
			return pt, nil
		})
		if err != nil {
			return nil, err
		}
		cp.parts = append(cp.parts, pt)
		cp.seal()
		cl.notePendingStart(cp)
		return cp, nil
	}
	for _, r := range cl.runs(lay, ino, off, total) {
		// An operation spanning more same-server stripes than that
		// server's window retires its own earlier runs to make room
		// (inside issueRead) — it must never depend on the caller, who
		// cannot retire a pending it has not been handed yet.
		pt, err := cl.issueRead(p, lay, ino, r, dst.Slice(int(r.off-off), r.n), cp.parts)
		if err != nil {
			drainParts(p, cp.parts)
			cl.putParts(cp.parts)
			return nil, err
		}
		cp.parts = append(cp.parts, pt)
	}
	cp.seal()
	cl.notePendingStart(cp)
	return cp, nil
}

// StartWrite implements Async: one striped write request of at most
// MaxWriteChunk, issued without waiting. Unlike the synchronous Write
// it does not reconcile sizes across servers — asynchronous writers
// (ORFS write-behind) track EOF themselves and their dirty data is
// re-readable from the servers that own it. For the same reason it
// never promotes a whole-on-home file mid-stream: the caller's
// unretired pendings could still be landing bytes a migration would
// miss, so adaptive promotion waits for the SetFileSize at the
// writer's sync barrier.
func (cl *Cluster) StartWrite(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (PendingOp, error) {
	if err := cl.enterOp(p, false); err != nil {
		return nil, err
	}
	defer cl.exitOp()
	if off < 0 {
		return nil, ErrInval
	}
	lay, lerr := cl.layoutFor(p, ino)
	if lerr != nil {
		return nil, lerr
	}
	total := src.TotalLen()
	if total > MaxWriteChunk {
		return nil, fmt.Errorf("rfsrv: StartWrite of %d bytes exceeds one %d-byte request", total, MaxWriteChunk)
	}
	cp := &clusterPending{cl: cl, ino: ino, lay: lay, want: total, issued: p.Now()}
	if total == 0 {
		// Zero-length write: one real request to the offset's preferred
		// replica, like the synchronous degenerate path (so the RPC
		// trace and the returned attributes match Session.StartWrite).
		// The synthetic run makes finishWriteParts' coverage check see
		// a Wait-time fault instead of vacuously succeeding.
		r := run{owner: cl.ownerAt(lay, ino, off), off: off}
		cp.runs = []run{r}
		pt, err := withReplica(cl, lay, ino, off, 0, func(idx int) (*part, error) {
			pd, err := cl.sessions[idx].startWrite(p, ino, off, src)
			if err != nil {
				return nil, err
			}
			pt := cl.getPart()
			pt.pd, pt.r, pt.target = pd, r, idx
			return pt, nil
		})
		if err != nil {
			return nil, err
		}
		cp.parts = append(cp.parts, pt)
		cp.seal()
		cl.notePendingStart(cp)
		return cp, nil
	}
	// The pending outlives this call, so it gets its own copy of the
	// runs (cl.runs returns per-operation scratch).
	cp.runs = append(cp.runs, cl.runs(lay, ino, off, total)...)
	for ri, r := range cp.runs {
		issued := 0
		for j := 0; j < cl.replicas; j++ {
			idx := cl.members[(r.owner+j)%len(cl.members)]
			if cl.down[idx] {
				continue
			}
			s := cl.sessions[idx]
			makeRoom(p, s, cp.parts)
			pd, err := s.startWrite(p, ino, r.off, src.Slice(int(r.off-off), r.n))
			if err != nil {
				if fabric.IsFault(err) {
					cl.markDown(idx)
					continue
				}
				drainParts(p, cp.parts)
				cl.putParts(cp.parts)
				return nil, err
			}
			cl.StripeWrites.Add(r.n)
			pt := cl.getPart()
			pt.pd, pt.r = pd, r
			pt.want, pt.ridx, pt.target = r.n, ri, idx
			cp.parts = append(cp.parts, pt)
			issued++
		}
		if issued == 0 {
			drainParts(p, cp.parts)
			cl.putParts(cp.parts)
			return nil, cl.allReplicasDown(r.off)
		}
	}
	cp.seal()
	cl.notePendingStart(cp)
	if v := cl.view; v != nil && v.migrating {
		v.logWrite(ino, off, total)
	}
	// The size cache is deliberately NOT updated here: sizes[ino]
	// records "every server reconciled to this size", and an async
	// write extends only the servers its runs touch. The next
	// synchronous Write past this end runs setSizeTo as usual; callers
	// with their own EOF tracking publish it through SetFileSize.
	return cp, nil
}

// ---- metadata path ----

// cloneReq copies a request so per-server sequence stamping never
// mutates a caller's (or a sibling server's) request.
func cloneReq(req *Req) *Req {
	r := *req
	return &r
}

// syncMetaFlight is one in-flight metadata request on a server's
// synchronous control path.
type syncMetaFlight struct {
	c     *FabricClient
	hdrOp fabric.Op
	seq   uint64
}

// The package's lock order: a window slot (Session.free token) may be
// held while taking the client control lock, never the reverse —
// otherwise a consumer holding the control path could park on a full
// window that only drains through that same control path.
//
//analyze:lockorder Session.free < FabricClient.lock

// startSyncMeta issues a metadata request on c's synchronous control
// path — its private control buffers, NOT a session window slot. This
// is what makes cluster metadata deadlock-free: a consumer whose
// striped reads or writes hold every window slot of some server
// (ORFS readahead can legitimately do this) can still look up, stat
// and reconcile, because metadata never waits on the data windows.
func startSyncMeta(p *sim.Proc, c *FabricClient, req *Req) (syncMetaFlight, error) {
	c.lock.Acquire(p)
	c.seq++
	req.Seq, req.EP = c.seq, c.myEP
	hdrOp, err := c.postHdr(p, &c.ctl, req.Seq)
	if err != nil {
		c.lock.Release()
		return syncMetaFlight{}, err
	}
	if err := c.sendReq(p, &c.ctl, req, nil); err != nil {
		// The request never left (e.g. dead-peer rejection): withdraw
		// the posted header receive so the control buffer is quiescent
		// for the next requester.
		fabric.Cancel(p, hdrOp)
		c.lock.Release()
		return syncMetaFlight{}, err
	}
	return syncMetaFlight{c: c, hdrOp: hdrOp, seq: req.Seq}, nil
}

// wait retires the flight and releases the control path.
func (fl *syncMetaFlight) wait(p *sim.Proc) (*Resp, error) {
	defer fl.c.lock.Release()
	return fl.c.finish(p, &fl.c.ctl, fl.hdrOp, fl.seq, fl.c.timeout)
}

// syncMeta is one synchronous metadata round trip to server idx.
func (cl *Cluster) syncMeta(p *sim.Proc, idx int, req *Req) (*Resp, error) {
	fl, err := startSyncMeta(p, cl.sessions[idx].c, req)
	if err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return fl.wait(p)
}

// Meta implements Client. Read-only operations go to the home server
// (re-homed past excluded servers, and failed over when the home
// faults mid-request); mutations replicate to every alive server in
// server order, and the per-server answers must agree (same status,
// same inode) or the cluster reports namespace divergence — a faulting
// server is excluded, never counted as divergent. OpTruncate is
// translated to the exact mode of OpSetSize, which carries this
// client's observed size epoch, so servers refuse it when the view is
// stale and the cluster revalidates and retries; OpSetSize requests
// get their observed epoch stamped the same way.
func (cl *Cluster) Meta(p *sim.Proc, req *Req) (*Resp, error) {
	if err := ValidateReq(req); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	if req.Op == OpRead || req.Op == OpWrite {
		return &Resp{Status: StInval}, ErrInval
	}
	mut := true
	switch req.Op {
	case OpLookup, OpGetattr, OpReaddir:
		mut = false
	}
	if err := cl.enterOp(p, mut); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	// Pending size publishes flush before any metadata operation, so a
	// getattr after a batched write observes the written size and a
	// namespace mutation never reorders ahead of the publishes that
	// preceded it. (Data reads don't flush: an unpublished size only
	// makes reads short, never wrong.)
	if err := cl.flushDueSizes(p); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	if cl.sharded {
		return cl.shardMeta(p, req)
	}
	switch req.Op {
	case OpLookup:
		// Read-only answers feed only the EPOCH side of the size cache
		// (observeResp): sizes[ino].size means "every alive server
		// reconciled to this size", and a single server's view (e.g.
		// the home after an async StartWrite that extended only its own
		// stripes) cannot establish that — caching it would silently
		// disable the next write's setSizeTo.
		return cl.homedMeta(p, req, func() int { return cl.pathHomeIdx(req.Ino, req.Name) })
	case OpGetattr, OpReaddir:
		return cl.homedMeta(p, req, func() int { return cl.homeIdx(req.Ino) })
	case OpTruncate:
		return cl.setSizeMeta(p, req.Ino, req.Off, SetSizeExact)
	case OpSetSize:
		return cl.setSizeMeta(p, req.Ino, req.Off, req.Len)
	case OpCreate:
		return cl.fanout(p, cl.hintCreate(req))
	default:
		return cl.fanout(p, req)
	}
}

// hintCreate injects the adaptive policy's default layout class into an
// unhinted create: new files start whole-on-home and are promoted when
// they outgrow PromoteThreshold. Explicit hints (a caller that knows
// the file will be huge asks for LayoutWide up front) pass through
// untouched, as does everything when the policy is off.
func (cl *Cluster) hintCreate(req *Req) *Req {
	if !cl.policyOn || !cl.policy.Adaptive || req.Layout != LayoutStandard {
		return req
	}
	r := *req
	r.Layout = LayoutWhole
	return &r
}

// setSizeMeta fans an OpSetSize to every alive server — exact mode
// (shrink-capable, epoch-bumping: the cluster face of truncate) or
// grow mode — revalidating and retrying when the observed epoch
// proves stale, so callers never see a spurious ErrStaleEpoch from a
// racing foreign size set.
func (cl *Cluster) setSizeMeta(p *sim.Proc, ino kernel.InodeID, size int64, mode uint32) (*Resp, error) {
	for attempt := 0; ; attempt++ {
		req := &Req{Op: OpSetSize, Ino: ino, Off: size, Len: mode, Epoch: cl.sizes[ino].epoch}
		resp, err := cl.fanout(p, req)
		if !errors.Is(err, ErrStaleEpoch) {
			return resp, err
		}
		// The refusals refreshed the cached epoch (observeResp in
		// fanout); go around with the authoritative one.
		if attempt >= 3 {
			return resp, fmt.Errorf("rfsrv: size set of inode %d kept racing foreign size sets: %w", ino, ErrStaleEpoch)
		}
	}
}

// homedMeta runs a read-only metadata request against its home server,
// excluding the home and re-homing (the hash walks to the next alive
// server) whenever the transport faults. home is re-evaluated per
// attempt because exclusion changes the routing.
func (cl *Cluster) homedMeta(p *sim.Proc, req *Req, home func() int) (*Resp, error) {
	for {
		idx := home()
		if idx < 0 {
			err := fmt.Errorf("rfsrv: %v: every server excluded: %w", req.Op, fabric.ErrPeerDead)
			return &Resp{Status: StatusOf(err)}, err
		}
		resp, err := cl.syncMeta(p, idx, req)
		if err != nil && fabric.IsFault(err) {
			cl.markDown(idx)
			cl.Failovers.Add(0)
			continue
		}
		// The home's reply is the control-path revalidation point: its
		// epoch either confirms the cached size or invalidates it.
		cl.observeResp(idx, resp)
		return resp, err
	}
}

// fanout replicates a namespace mutation to every alive server in
// parallel (each server's synchronous control path; see startSyncMeta)
// and verifies the answers agree. With one server it is exactly one
// synchronous metadata round trip. A server that faults mid-mutation
// is recorded as excluded — its missing answer is a degraded-mode
// fact, not namespace divergence; it must re-sync before Reinstate.
func (cl *Cluster) fanout(p *sim.Proc, req *Req) (*Resp, error) {
	if len(cl.members) == 1 {
		resp, err := cl.syncMeta(p, cl.members[0], req)
		cl.observeResp(cl.members[0], resp)
		cl.noteMutation(req, resp, err)
		return resp, err
	}
	flights := cl.flightScratch[:0]
	targets := cl.targetScratch[:0]
	defer func() {
		cl.flightScratch = flights[:0]
		cl.targetScratch = targets[:0]
	}()
	var firstErr error
	for _, i := range cl.members {
		s := cl.sessions[i]
		if cl.down[i] {
			continue
		}
		if len(flights) > 0 {
			cl.MetaFanout.Add(1)
		}
		// One reusable request per fan: startSyncMeta stamps and encodes
		// it into the target's control buffer before returning, so the
		// next iteration may overwrite it (per-server clones would only
		// feed the garbage collector).
		cl.fanReq = *req
		fl, err := startSyncMeta(p, s.c, &cl.fanReq)
		if err != nil {
			if fabric.IsFault(err) {
				cl.markDown(i)
				continue
			}
			firstErr = err
			break
		}
		flights = append(flights, fl)
		targets = append(targets, i)
	}
	resps := make([]*Resp, 0, len(flights))
	stale := false
	for k := range flights {
		r, err := flights[k].wait(p)
		if err != nil && fabric.IsFault(err) {
			cl.markDown(targets[k])
			continue // excluded, not divergent
		}
		cl.observeResp(targets[k], r)
		if errors.Is(err, ErrStaleEpoch) {
			if cl.epochBehind(r) {
				// The refuser's epoch is BEHIND the cache: it missed an
				// exact set while dead in another client's view, and no
				// retry epoch can satisfy it and the coherent members
				// at once. Exclude it like a fault (see epochBehind).
				cl.markDown(targets[k])
				continue
			}
			stale = true
			continue
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		resps = append(resps, r)
	}
	if stale {
		// A foreign exact size set raced this OpSetSize: some servers
		// may have applied it (winning their epoch's slot) while the
		// rest refused — that is staleness to revalidate and retry
		// against, never namespace divergence. The cache entry was
		// refreshed above.
		return &Resp{Status: StStale}, ErrStaleEpoch
	}
	if len(resps) == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("rfsrv: %v: every server excluded: %w", req.Op, fabric.ErrPeerDead)
		}
		return &Resp{Status: StatusOf(firstErr)}, firstErr
	}
	base := resps[0]
	for _, r := range resps[1:] {
		if r == nil || base == nil {
			continue
		}
		if r.Status != base.Status || r.Attr.Ino != base.Attr.Ino {
			err := fmt.Errorf("rfsrv: cluster namespace diverged on %v %q (status %d/ino %d vs %d/%d)",
				req.Op, req.Name, base.Status, base.Attr.Ino, r.Status, r.Attr.Ino)
			return &Resp{Status: StIO}, err
		}
	}
	cl.noteMutation(req, base, firstErr)
	return base, firstErr
}

// bumpAllNs records a mutation every server was (or should have been)
// told about: every per-server mutation count advances, INCLUDING the
// excluded servers' — a down server missed the fan, which is exactly
// why its Reinstate must be refused. Used by the replicated (unsharded)
// fan-out and by the global operations that still fan under sharding
// (exact size sets, truncate, layout flips).
func (cl *Cluster) bumpAllNs() {
	for _, i := range cl.members {
		cl.nsEpochs[i]++
	}
}

// bumpGroupNs records a mutation of the namespace slice owned by the
// given residue: the R servers of its owner group advance, including
// excluded members (they missed it and must resync before Reinstate);
// everyone else's slice is untouched and their counts stay put.
func (cl *Cluster) bumpGroupNs(owner int) {
	n := len(cl.members)
	for j := 0; j < cl.replicas; j++ {
		cl.nsEpochs[cl.members[(owner+j)%n]]++
	}
}

// noteMutation updates the size cache and the per-server mutation
// counts after a replicated mutation succeeded on every alive server.
// Exact size sets and namespace mutations advance the counts — they
// are exactly the operations an excluded server misses unrecoverably
// (Reinstate refuses when any ran); grow-only reconciliation is
// replayable and advances nothing.
func (cl *Cluster) noteMutation(req *Req, resp *Resp, err error) {
	if err != nil || resp == nil {
		return
	}
	switch req.Op {
	case OpCreate:
		cl.bumpAllNs()
		cl.sizes[resp.Attr.Ino] = cl.entry(resp.Attr.Size, resp.Epoch)
		cl.journalMutationAll(req, resp.Attr.Ino, resp.Epoch)
	case OpMkdir, OpUnlink, OpRmdir, OpRenameLocal:
		cl.bumpAllNs()
		cl.journalMutationAll(req, resp.Attr.Ino, resp.Epoch)
	case OpSetLayout:
		// A layout flip bumps the size epoch on every server (that is
		// what revalidates other clients' placement); a server that
		// missed it is desynchronized like any missed exact size set.
		cl.bumpAllNs()
		cl.journalMutationAll(req, req.Ino, resp.Epoch)
	case OpTruncate:
		// Defensive: Meta translates truncates to exact OpSetSize, but a
		// raw fan-out (MetaBatch carrying one) records the same facts.
		cl.bumpAllNs()
		cl.sizes[req.Ino] = cl.entry(req.Off, resp.Epoch)
		cl.journalMutationAll(&Req{Op: OpSetSize, Ino: req.Ino, Off: req.Off, Len: SetSizeExact}, req.Ino, resp.Epoch)
	case OpSetSize:
		if req.Len == SetSizeExact {
			cl.bumpAllNs()
			cl.sizes[req.Ino] = cl.entry(req.Off, resp.Epoch)
			cl.journalMutationAll(req, req.Ino, resp.Epoch)
		} else if e, ok := cl.sizes[req.Ino]; !ok || e.epoch == resp.Epoch && req.Off > e.size {
			cl.sizes[req.Ino] = cl.entry(req.Off, resp.Epoch)
		}
		// Grow-mode publishes are deliberately NOT journaled: they are
		// idempotent lower-bound facts the replayed data re-establishes,
		// and journaling every publish would spill constantly under
		// streaming writes.
	}
}

// MetaBatch implements Async: requests route like Meta (read-only to
// their homes, mutations to every server) and each server's share is
// issued as one combined batch in original order, so the §3.3-style
// combining survives striping. Server batches run one server at a
// time; with one server this is exactly Session.MetaBatch. Unlike
// Meta, batches flow through the per-server windows (that is what
// combines them), so callers must not hold unretired data pendings
// across a MetaBatch call. Batches route around already-excluded
// servers but do not retry mid-batch faults — a fault surfaces as the
// batch's error and the caller re-issues (Meta retries per request).
func (cl *Cluster) MetaBatch(p *sim.Proc, reqs []*Req) ([]*Resp, error) {
	if err := validateBatch(reqs); err != nil {
		return nil, err
	}
	if err := cl.enterOp(p, true); err != nil {
		return nil, err
	}
	defer cl.exitOp()
	if err := cl.flushDueSizes(p); err != nil {
		return nil, err
	}
	if cl.aliveCount() == 0 {
		return nil, fmt.Errorf("rfsrv: MetaBatch: every server excluded: %w", fabric.ErrPeerDead)
	}
	if cl.sharded {
		return cl.shardMetaBatch(p, reqs)
	}
	if len(cl.members) == 1 {
		return cl.sessions[cl.members[0]].MetaBatch(p, reqs)
	}
	type share struct {
		idx  []int // original positions
		reqs []*Req
	}
	shares := make([]share, len(cl.sessions))
	mutation := make([]bool, len(reqs))
	track := make([]*Req, len(reqs)) // the request actually fanned (post-translation)
	// bumps counts the exact size sets already packed for each inode
	// earlier in THIS batch: the servers apply the batch in order and
	// bump the epoch after each exact set, so a later size mutation of
	// the same inode must observe the epoch it will find, not the
	// pre-batch one — otherwise a truncate-then-truncate batch would
	// refuse itself with StStale forever.
	bumps := make(map[kernel.InodeID]uint64)
	for i, r := range reqs {
		switch r.Op {
		case OpLookup:
			h := cl.pathHomeIdx(r.Ino, r.Name)
			shares[h].idx = append(shares[h].idx, i)
			shares[h].reqs = append(shares[h].reqs, r)
		case OpGetattr, OpReaddir:
			h := cl.homeIdx(r.Ino)
			shares[h].idx = append(shares[h].idx, i)
			shares[h].reqs = append(shares[h].reqs, r)
		default:
			// Size mutations translate and get their observed epoch
			// stamped like Meta's (batches do not retry staleness — a
			// StStale reply surfaces as the batch error and the caller
			// re-issues with the cache already revalidated).
			w := r
			switch r.Op {
			case OpCreate:
				w = cl.hintCreate(r)
			case OpTruncate:
				w = &Req{Op: OpSetSize, Ino: r.Ino, Off: r.Off, Len: SetSizeExact, Epoch: cl.sizes[r.Ino].epoch + bumps[r.Ino]}
				bumps[r.Ino]++
			case OpSetSize:
				w = cloneReq(r)
				w.Epoch = cl.sizes[r.Ino].epoch + bumps[r.Ino]
				if r.Len == SetSizeExact {
					bumps[r.Ino]++
				}
			}
			mutation[i] = true
			track[i] = w
			first := true
			for _, s := range cl.members {
				if cl.down[s] {
					continue
				}
				if !first {
					cl.MetaFanout.Add(1)
				}
				first = false
				shares[s].idx = append(shares[s].idx, i)
				// Server batches run one at a time, and Session.MetaBatch
				// stamps and encodes every request before returning, so
				// the shares can share one *Req — no per-server clones.
				shares[s].reqs = append(shares[s].reqs, w)
			}
		}
	}
	out := make([]*Resp, len(reqs))
	for s, sh := range shares {
		if len(sh.reqs) == 0 {
			continue
		}
		resps, err := cl.sessions[s].MetaBatch(p, sh.reqs)
		for i, r := range resps {
			pos := sh.idx[i]
			cl.observeResp(s, r)
			if out[pos] == nil {
				out[pos] = r
			} else if r != nil && r.Status != StStale && out[pos].Status != StStale &&
				(r.Status != out[pos].Status || r.Attr.Ino != out[pos].Attr.Ino) {
				return out, fmt.Errorf("rfsrv: cluster namespace diverged in batch at %d", pos)
			}
		}
		if err != nil {
			// A faulting server is excluded like on every other path, so
			// the caller's re-issued batch routes around it.
			if fabric.IsFault(err) {
				cl.markDown(s)
			}
			return out, err
		}
	}
	// Apply cache updates in request order: a batch may carry several
	// mutations of one inode (grow then truncate), and the LAST one
	// must win, exactly as the servers applied them.
	for pos, r := range track {
		if mutation[pos] && out[pos] != nil && out[pos].Status == StOK {
			cl.noteMutation(r, out[pos], nil)
		}
	}
	return out, nil
}

var _ Client = (*Cluster)(nil)
