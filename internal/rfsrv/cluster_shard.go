package rfsrv

// Client half of the sharded namespace (DESIGN.md §11), plus the
// batched size-publish machinery both it and the replicated cluster
// can use.
//
// Ownership. Every directory — and every inode minted under it — has
// a routing residue: (ino-2) mod N, with the root on residue 0. The
// residue names the directory's OWNER GROUP, the R consecutive
// servers residue..residue+R-1 (the namespace reuses the data path's
// replica geometry). Namespace mutations go only to the owner group;
// lookups, getattrs and readdirs go to the group's first alive
// member. Files inherit their parent directory's residue, so the
// group that owns a dentry also owns the child's attributes; fresh
// directories are spread by hashing (dir, name), which is what makes
// create/unlink throughput scale with N instead of paying an N-way
// fan per mutation.
//
// What still fans to everyone: exact size sets (truncate), layout
// flips (OpSetLayout) and the grow-only size publishes. Striped file
// DATA spreads across all servers regardless of namespace ownership,
// so every server's local size matters to EOF clipping — a per-inode
// size authority would buy nothing here, and keeping the fan preserves
// the size-coherence machinery unchanged. Sharding therefore trades the
// O(N) namespace fan away while leaving size coherence global; the
// batched publish path amortizes the latter. A whole-on-home file
// (layout policy, DESIGN.md §10) is the exception: its bytes live on
// its owner group, whose primary also answers its getattr, so it
// publishes no sizes at all.
//
// Rename. A rename within one owner group is a single fanned
// OpRenameLocal. Across groups it is a three-phase protocol — prepare
// at the source group (marks the entry, returns the child), commit at
// the destination group (OpLink, the one durable switch point),
// finalize at the source group (detach + unmark). A fault after the
// commit's fate is unknown, or during finalize, surfaces as
// *RenameInDoubtError: the namespace is in one of exactly two legal
// states (never both, never neither), and re-driving the same rename
// resolves it because every phase is idempotent.

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// DefaultSizePublishBatch is the publish window EnableShardedNamespace
// installs when none was configured: flush coalesced size publishes
// every 16 enqueues.
const DefaultSizePublishBatch = 16

// EnableShardedNamespace switches the cluster from replicating every
// namespace mutation to all N servers to directing each at its
// directory's owner group. Call it once, right after construction and
// before any traffic, on every client of the namespace, with servers
// running EnableSharding under matching geometry (index i, count N,
// replicas R) and backing stores partitioned with
// memfs.SetInodePartition — residue routing only works when server i
// mints inodes of residue i. Composes with SetLayoutPolicy and
// SetSizePublishBatch in any order.
func (cl *Cluster) EnableShardedNamespace() error {
	cl.sharded = true
	if cl.pubBatch == 0 {
		return cl.SetSizePublishBatch(DefaultSizePublishBatch)
	}
	return nil
}

// ShardedNamespace reports whether namespace mutations route to owner
// groups (EnableShardedNamespace) instead of fanning to every server.
func (cl *Cluster) ShardedNamespace() bool { return cl.sharded }

// SetSizePublishBatch defers the write path's grow-only size
// reconciliation: instead of fanning an OpSetSize to every server
// after each extending write, the cluster records the highest pending
// end-of-file per inode and flushes the coalesced set — one combined
// request batch per server — every k enqueues, or at the next
// metadata operation, SetFileSize or Rename, whichever comes first.
// Between flushes other servers' local sizes lag (reads clip a little
// early; getattr via this client is safe because metadata operations
// flush first) — the trade every write-behind scheme makes, here
// bounded by k. k must be positive; call before traffic. Whole-on-home
// files (SetLayoutPolicy) have no reconciliation, so they never enter
// the queue.
func (cl *Cluster) SetSizePublishBatch(k int) error {
	if k < 1 {
		return fmt.Errorf("rfsrv: size publish batch %d is not positive", k)
	}
	cl.pubBatch = k
	if cl.pendPub == nil {
		cl.pendPub = make(map[kernel.InodeID]int64)
	}
	return nil
}

// enqueueSizePub records a write's new end-of-file in the publish
// queue, flushing when the window fills. Only called with a positive
// pubBatch from the multi-server write path (see Cluster.Write).
func (cl *Cluster) enqueueSizePub(p *sim.Proc, ino kernel.InodeID, end int64) error {
	if e := cl.sizes[ino]; e.size < end {
		if cur, ok := cl.pendPub[ino]; !ok {
			cl.pendPub[ino] = end
			cl.pendOrder = append(cl.pendOrder, ino)
		} else if end > cur {
			cl.pendPub[ino] = end
		}
	}
	cl.pubSince++
	if cl.pubSince >= cl.pubBatch {
		return cl.FlushSizes(p)
	}
	return nil
}

// flushDueSizes is the metadata-path hook: a no-op unless batched
// publishes are on and something is pending.
func (cl *Cluster) flushDueSizes(p *sim.Proc) error {
	if cl.pubBatch == 0 || (len(cl.pendOrder) == 0 && len(cl.pendScrub) == 0) {
		cl.pubSince = 0
		return nil
	}
	return cl.FlushSizes(p)
}

// FlushSizes drains the publish queue: every pending grow-only
// OpSetSize (in enqueue order, highest pending end per inode) and
// every pending OpScrub — publishes first, so a scrubbed inode is
// never re-grown by a publish queued before its unlink — packed into
// one combined request batch per alive server, the per-server batches
// in flight in parallel. A server that faults is excluded (the grow
// mode is replayable; the alive servers are consistent, which is all
// the cache records). StStale refusals — a foreign exact size set
// raced the queue — refresh the cached epoch and the flush retries
// under it. Exported for callers with their own barriers (the figures
// harness audits sizes after a storm); a no-op when nothing is
// pending.
func (cl *Cluster) FlushSizes(p *sim.Proc) error {
	if len(cl.pendOrder) == 0 && len(cl.pendScrub) == 0 {
		cl.pubSince = 0
		return nil
	}
	for attempt := 0; ; attempt++ {
		reqs, npub := cl.buildFlush()
		if len(reqs) == 0 {
			break
		}
		stale, err := cl.flushFan(p, reqs, npub)
		if err != nil {
			return err
		}
		if !stale {
			break
		}
		// The refusals refreshed the cache entries (observeResp); go
		// around with the authoritative epochs. The cap only guards
		// against a pathological foreign truncate storm.
		if attempt >= 3 {
			return fmt.Errorf("rfsrv: batched size publish kept racing foreign size sets: %w", ErrStaleEpoch)
		}
	}
	for _, ino := range cl.pendOrder {
		if end, ok := cl.pendPub[ino]; ok {
			cl.sizes[ino] = cl.entry(end, cl.sizes[ino].epoch)
			delete(cl.pendPub, ino)
		}
	}
	cl.pendOrder = cl.pendOrder[:0]
	cl.pendScrub = cl.pendScrub[:0]
	cl.pubSince = 0
	return nil
}

// buildFlush assembles the flush's request list in cluster scratch:
// publishes in pendOrder insertion order (entries unlinked since they
// were queued have left pendPub and are skipped), then scrubs. The
// returned requests are shared across every server's batch —
// startBatchFlight stamps and encodes each before returning, so
// sequentially started flights may reuse them.
func (cl *Cluster) buildFlush() (reqs []*Req, npub int) {
	store := cl.flushReqStore[:0]
	for _, ino := range cl.pendOrder {
		end, ok := cl.pendPub[ino]
		if !ok {
			continue
		}
		store = append(store, Req{Op: OpSetSize, Ino: ino, Off: end, Len: SetSizeGrow, Epoch: cl.sizes[ino].epoch})
	}
	npub = len(store)
	for _, victim := range cl.pendScrub {
		store = append(store, Req{Op: OpScrub, Ino: victim})
	}
	cl.flushReqStore = store
	reqs = cl.flushReqs[:0]
	for i := range store {
		reqs = append(reqs, &store[i])
	}
	cl.flushReqs = reqs
	return reqs, npub
}

// flushFan runs one round of the flush: each alive server receives
// the request list as combined batches through its window (a batch
// larger than the window or the 4 KB request buffer spans several
// flights; the outer loop advances every server in parallel rounds).
// stale reports whether any publish was refused under a stale epoch.
func (cl *Cluster) flushFan(p *sim.Proc, reqs []*Req, npub int) (stale bool, err error) {
	n := len(cl.sessions)
	if cap(cl.flushStarts) < n {
		cl.flushStarts = make([]int, n)
	}
	starts := cl.flushStarts[:n]
	for i := range starts {
		starts[i] = len(reqs) // non-members never receive flushes
	}
	for _, i := range cl.members {
		if cl.down[i] {
			// The excluded member misses the scrubs in this flush (the
			// grow publishes are replayable and are not journaled); record
			// them so Reinstate reclaims the dead inodes there too.
			for _, r := range reqs[npub:] {
				cl.journalMut(i, r, r.Ino, 0)
			}
			continue
		}
		starts[i] = 0
	}
	var firstErr error
	for {
		flights := cl.flushFlights[:0]
		targets := cl.flushTargets[:0]
		ends := cl.targetScratch[:0]
		started := false
		for i, s := range cl.sessions {
			if starts[i] >= len(reqs) {
				continue
			}
			fl, end, err := s.startBatchFlight(p, reqs, starts[i])
			if err != nil {
				if fabric.IsFault(err) {
					cl.markDown(i)
				} else if firstErr == nil {
					firstErr = err
				}
				starts[i] = len(reqs)
				continue
			}
			if pubs := min(end, npub) - min(starts[i], npub); pubs > 0 {
				cl.SetSizes.Add(pubs)
			}
			flights = append(flights, fl)
			targets = append(targets, i)
			ends = append(ends, end)
			started = true
		}
		for k, fl := range flights {
			resps, werr := fl.wait(p, cl.flushResps[:0])
			behind := false
			for _, r := range resps {
				cl.observeResp(targets[k], r)
			}
			for _, r := range resps {
				if r != nil && r.Status == StStale && cl.epochBehind(r) {
					behind = true
				}
			}
			cl.flushResps = resps[:0]
			i := targets[k]
			if werr != nil {
				switch {
				case fabric.IsFault(werr):
					cl.markDown(i)
					starts[i] = len(reqs)
					continue
				case errors.Is(werr, ErrStaleEpoch):
					if behind {
						// The server refused under an epoch BEHIND the
						// cache: it missed an exact set while dead in
						// another client's view, and no retry epoch can
						// satisfy it and the coherent members at once
						// (see epochBehind). Exclude it; the publish
						// stands on the survivors.
						cl.markDown(i)
						starts[i] = len(reqs)
						continue
					}
					stale = true
				case firstErr == nil:
					firstErr = werr
				}
			}
			starts[i] = ends[k]
		}
		cl.flushFlights = flights[:0]
		cl.flushTargets = targets[:0]
		cl.targetScratch = ends[:0]
		if !started {
			return stale, firstErr
		}
	}
}

// ---- sharded routing ----

// shardOwner returns the residue (= primary placement POSITION, an
// index into cl.members) owning an inode's namespace slice: (ino-2)
// mod N, with the root (and the pre-root 0 alias) on residue 0 — the
// mirror of memfs.SetInodePartition minting and Server.shardResidue.
func (cl *Cluster) shardOwner(ino kernel.InodeID) int {
	if ino <= 1 {
		return 0
	}
	return int((uint64(ino) - 2) % uint64(len(cl.members)))
}

// groupPrimary returns the first alive member of a residue's owner
// group, or -1 when the whole group is excluded.
func (cl *Cluster) groupPrimary(owner int) int {
	n := len(cl.members)
	for j := 0; j < cl.replicas; j++ {
		if k := cl.members[(owner+j)%n]; !cl.down[k] {
			return k
		}
	}
	return -1
}

// groupDead is the error for an owner group whose every member is
// excluded; it satisfies fabric.IsFault.
func (cl *Cluster) groupDead(op Op, owner int) error {
	return fmt.Errorf("rfsrv: %v: every server of owner group %d excluded: %w", op, owner, fabric.ErrPeerDead)
}

// groupRead runs a read-only metadata request against its owner
// group's first alive member, excluding a faulting member and failing
// over to the next — the sharded analogue of homedMeta.
func (cl *Cluster) groupRead(p *sim.Proc, owner int, req *Req) (*Resp, error) {
	for {
		idx := cl.groupPrimary(owner)
		if idx < 0 {
			err := cl.groupDead(req.Op, owner)
			return &Resp{Status: StatusOf(err)}, err
		}
		resp, err := cl.syncMeta(p, idx, req)
		if err != nil && fabric.IsFault(err) {
			cl.markDown(idx)
			cl.Failovers.Add(0)
			continue
		}
		cl.observeResp(idx, resp)
		if cl.epochBehind(resp) {
			// The member answered under an epoch behind the cache: it
			// missed an exact set and its sizes are pre-truncate stale
			// (see epochBehind). Serving this reply would hand the
			// caller a resurrected size — exclude and fail over.
			cl.markDown(idx)
			cl.Failovers.Add(0)
			continue
		}
		return resp, err
	}
}

// groupFan replicates a mutation to every alive member of an owner
// group in parallel (synchronous control paths, like fanout) and
// verifies the answers agree. A faulting member is excluded, never
// counted as divergent; an entirely excluded group is an error.
func (cl *Cluster) groupFan(p *sim.Proc, owner int, req *Req) (*Resp, error) {
	n := len(cl.members)
	flights := cl.flightScratch[:0]
	targets := cl.targetScratch[:0]
	defer func() {
		cl.flightScratch = flights[:0]
		cl.targetScratch = targets[:0]
	}()
	var firstErr error
	for j := 0; j < cl.replicas; j++ {
		i := cl.members[(owner+j)%n]
		if cl.down[i] {
			continue
		}
		if len(flights) > 0 {
			cl.MetaFanout.Add(1)
		}
		cl.fanReq = *req
		fl, err := startSyncMeta(p, cl.sessions[i].c, &cl.fanReq)
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
	var base *Resp
	for k := range flights {
		r, err := flights[k].wait(p)
		if err != nil && fabric.IsFault(err) {
			cl.markDown(targets[k])
			continue
		}
		cl.observeResp(targets[k], r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if r == nil {
			continue
		}
		if base == nil {
			base = r
		} else if r.Status != base.Status || r.Attr.Ino != base.Attr.Ino {
			if r.Status == StBusy || base.Status == StBusy {
				// A rename-tainted entry mid-resolution: members still
				// holding the prepare mark refuse with StBusy while
				// members that already saw the abort or finalize answer
				// from the settled state. That is the in-doubt window
				// showing through — report busy (the caller re-drives
				// the rename), never divergence.
				return &Resp{Status: StBusy}, ErrBusy
			}
			derr := fmt.Errorf("rfsrv: owner group %d diverged on %v %q (status %d/ino %d vs %d/%d)",
				owner, req.Op, req.Name, base.Status, base.Attr.Ino, r.Status, r.Attr.Ino)
			return &Resp{Status: StIO}, derr
		}
	}
	if base == nil {
		if firstErr == nil {
			firstErr = cl.groupDead(req.Op, owner)
		}
		return &Resp{Status: StatusOf(firstErr)}, firstErr
	}
	return base, firstErr
}

// groupFanFrom fans a request to every alive member of an owner group
// EXCEPT one (the primary that already applied the original) — the
// dentry-replication round of sharded creates. Faulting members are
// excluded; application errors win.
func (cl *Cluster) groupFanFrom(p *sim.Proc, owner, except int, req *Req) error {
	n := len(cl.members)
	flights := cl.flightScratch[:0]
	targets := cl.targetScratch[:0]
	defer func() {
		cl.flightScratch = flights[:0]
		cl.targetScratch = targets[:0]
	}()
	var firstErr error
	for j := 0; j < cl.replicas; j++ {
		i := cl.members[(owner+j)%n]
		if i == except || cl.down[i] {
			continue
		}
		cl.MetaFanout.Add(1)
		cl.fanReq = *req
		fl, err := startSyncMeta(p, cl.sessions[i].c, &cl.fanReq)
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
		r, err := flights[k].wait(p)
		if err != nil && fabric.IsFault(err) {
			cl.markDown(targets[k])
			continue
		}
		cl.observeResp(targets[k], r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// groupMint runs a minting mutation (create, mkdir) at the owner
// group's primary — failing over within the group when the primary's
// transport faults — then replicates the fresh dentry to the rest of
// the group with OpLink.
func (cl *Cluster) groupMint(p *sim.Proc, owner int, req *Req) (*Resp, error) {
	for {
		idx := cl.groupPrimary(owner)
		if idx < 0 {
			err := cl.groupDead(req.Op, owner)
			return &Resp{Status: StatusOf(err)}, err
		}
		resp, err := cl.syncMeta(p, idx, req)
		if err != nil && fabric.IsFault(err) {
			cl.markDown(idx)
			cl.Failovers.Add(0)
			continue
		}
		cl.observeResp(idx, resp)
		if err != nil {
			return resp, err
		}
		if cl.replicas > 1 {
			if lerr := cl.groupFanFrom(p, owner, idx, linkReq(req.Ino, req.Name, resp)); lerr != nil {
				return &Resp{Status: StatusOf(lerr)}, lerr
			}
		}
		return resp, nil
	}
}

// shardMeta is the sharded Meta dispatch: reads to the owner group's
// primary, mutations to the owner group alone, size operations still
// global (see the package comment on what fans).
func (cl *Cluster) shardMeta(p *sim.Proc, req *Req) (*Resp, error) {
	switch req.Op {
	case OpLookup, OpGetattr, OpReaddir:
		// A lookup's Ino is the directory and a getattr/readdir's the
		// object itself; both route by the inode's own residue (files
		// inherit the parent's, so the dentry's owner group answers all
		// three). A directory with an in-doubt rename parked on it gets
		// the rename re-driven first, so walks observe a settled
		// namespace instead of StBusy marks.
		if len(cl.renameDoubt) > 0 {
			cl.resolveRenameDoubt(p, req.Ino)
		}
		return cl.groupRead(p, cl.shardOwner(req.Ino), req)
	case OpCreate:
		return cl.shardCreate(p, cl.hintCreate(req))
	case OpMkdir:
		return cl.shardMkdir(p, req.Ino, req.Name)
	case OpUnlink:
		return cl.shardUnlink(p, req.Ino, req.Name)
	case OpRmdir:
		return cl.shardRmdir(p, req.Ino, req.Name)
	case OpTruncate:
		return cl.setSizeMeta(p, req.Ino, req.Off, SetSizeExact)
	case OpSetSize:
		return cl.setSizeMeta(p, req.Ino, req.Off, req.Len)
	case OpSetLayout:
		// A layout class is placement every server honours: the flip
		// fans globally, exactly as unsharded.
		return cl.fanout(p, req)
	case OpRenameLocal:
		src, dst, ok := SplitRenameNames(req.Name)
		if !ok {
			return &Resp{Status: StInval}, ErrInval
		}
		return cl.Rename(p, req.Ino, src, kernel.InodeID(req.Off), dst)
	default:
		// The internal sharding verbs are not client-facing operations.
		return &Resp{Status: StInval}, ErrInval
	}
}

// shardCreate creates a file under its parent directory's owner
// group: files inherit the parent's residue, so the group that owns
// the dentry also owns the child's attributes (and, for a whole-on-home
// file, its bytes) and ONE group — not the whole cluster — serves the
// create.
func (cl *Cluster) shardCreate(p *sim.Proc, req *Req) (*Resp, error) {
	owner := cl.shardOwner(req.Ino)
	resp, err := cl.groupMint(p, owner, &Req{Op: OpCreate, Ino: req.Ino, Name: req.Name, Layout: req.Layout})
	if err != nil {
		return resp, err
	}
	cl.bumpGroupNs(owner)
	cl.sizes[resp.Attr.Ino] = cl.entry(resp.Attr.Size, resp.Epoch)
	if cl.anyDown() {
		// Excluded group members missed the dentry: journal the
		// idempotent replication verb (OpLink), not the minting create.
		cl.journalGroup(owner, linkReq(req.Ino, req.Name, resp), resp.Attr.Ino, resp.Epoch)
	}
	return resp, nil
}

// linkReq is the OpLink that enters the inode a reply resolved into
// (dir, name), carrying its kind and layout class: the replication of
// a freshly minted dentry, or a rename's commit.
func linkReq(dir kernel.InodeID, name string, resp *Resp) *Req {
	return &Req{Op: OpLink, Ino: dir, Name: name, Off: int64(resp.Attr.Ino),
		Len: uint32(resp.Attr.Kind), Layout: resp.Layout}
}

// shardMkdir creates a directory: the dentry is minted at the
// PARENT's owner group (round one), then the fresh directory's object
// is materialized at ITS owner group (round two) — the group its
// residue routes its children's operations to, generally a different
// one (the minting server hashes (parent, name) into the residue,
// which is what scatters the namespace over N servers). A crash
// between the rounds leaves a dentry whose object the child's group
// materializes on demand at first touch.
func (cl *Cluster) shardMkdir(p *sim.Proc, dir kernel.InodeID, name string) (*Resp, error) {
	owner := cl.shardOwner(dir)
	resp, err := cl.groupMint(p, owner, &Req{Op: OpMkdir, Ino: dir, Name: name})
	if err != nil {
		return resp, err
	}
	cl.bumpGroupNs(owner)
	if cl.anyDown() {
		cl.journalGroup(owner, linkReq(dir, name, resp), resp.Attr.Ino, resp.Epoch)
	}
	res := cl.shardOwner(resp.Attr.Ino)
	if _, err := cl.groupFan(p, res, &Req{Op: OpMaterialize, Ino: resp.Attr.Ino, Len: uint32(kernel.Directory)}); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	cl.bumpGroupNs(res)
	if cl.anyDown() {
		cl.journalGroup(res, &Req{Op: OpMaterialize, Ino: resp.Attr.Ino, Len: uint32(kernel.Directory)}, resp.Attr.Ino, 0)
	}
	return resp, nil
}

// shardUnlink removes a dentry at its owner group. The group's answer
// carries the victim's attributes; its object — and its data stripes,
// which live on EVERY server — are reclaimed by a lazy OpScrub fan
// that rides the next size-publish flush instead of costing this
// unlink an N-way round.
func (cl *Cluster) shardUnlink(p *sim.Proc, dir kernel.InodeID, name string) (*Resp, error) {
	owner := cl.shardOwner(dir)
	resp, err := cl.groupFan(p, owner, &Req{Op: OpUnlink, Ino: dir, Name: name})
	if err != nil {
		return resp, err
	}
	cl.bumpGroupNs(owner)
	if cl.anyDown() {
		cl.journalGroup(owner, &Req{Op: OpUnlink, Ino: dir, Name: name}, resp.Attr.Ino, 0)
	}
	if err := cl.noteUnlinkVictim(p, resp.Attr.Ino, resp.Attr.Size); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	return resp, nil
}

// noteUnlinkVictim queues the lazy cluster-wide scrub of a dead inode
// and drops every client-side pending for it — a queued size publish
// must never resurrect an unlinked file's object on servers that
// already scrubbed it, so the victim leaves pendPub before the scrub
// is queued (the flush also orders publishes before scrubs for the
// same reason). ownerSize is the victim's size as the owner group
// reported it with the unlink.
func (cl *Cluster) noteUnlinkVictim(p *sim.Proc, victim kernel.InodeID, ownerSize int64) error {
	if victim == 0 {
		return nil
	}
	cached := cl.sizes[victim]
	_, pending := cl.pendPub[victim]
	delete(cl.sizes, victim)
	delete(cl.pendPub, victim) // its pendOrder slot is skipped at flush
	if ownerSize == 0 && cached.size == 0 && cached.epoch == 0 && !pending {
		// The owner group never heard a size for the victim and this
		// client has nothing queued for it: non-owner servers only
		// acquire foreign-owned state through data writes and size sets
		// (see materializeOnDemand), and every flushed publish or exact
		// truncate grows the owner too — so nothing remote exists and
		// the owner-side unlink already reclaimed everything. Skipping
		// the fan here is what keeps empty-file churn O(R), not O(N).
		// (A foreign client's not-yet-flushed writes are invisible; the
		// frames such a race strands are reclaimed only by that
		// client's own churn — the lazy-reconciliation trade.)
		return nil
	}
	cl.pendScrub = append(cl.pendScrub, victim)
	cl.pubSince++
	if cl.pubSince >= cl.pubBatch {
		return cl.FlushSizes(p)
	}
	return nil
}

// shardRmdir removes a directory: resolve the victim at the parent's
// owner group, check-and-remove its object at the VICTIM's owner
// group (the only group whose copy of the directory sees its
// children's dentries — OpScrub with ScrubRequireEmptyDir is the
// emptiness authority), then drop the dentry at the parent's group.
func (cl *Cluster) shardRmdir(p *sim.Proc, dir kernel.InodeID, name string) (*Resp, error) {
	owner := cl.shardOwner(dir)
	lresp, err := cl.groupRead(p, owner, &Req{Op: OpLookup, Ino: dir, Name: name})
	if err != nil {
		return lresp, err
	}
	if lresp.Attr.Kind != kernel.Directory {
		return &Resp{Status: StNotDir}, kernel.ErrNotDir
	}
	child := lresp.Attr.Ino
	cres := cl.shardOwner(child)
	if sresp, err := cl.groupFan(p, cres, &Req{Op: OpScrub, Ino: child, Len: ScrubRequireEmptyDir}); err != nil {
		return sresp, err
	}
	cl.bumpGroupNs(cres)
	if cl.anyDown() {
		cl.journalGroup(cres, &Req{Op: OpScrub, Ino: child, Len: ScrubRequireEmptyDir}, child, 0)
	}
	resp, err := cl.groupFan(p, owner, &Req{Op: OpRmdir, Ino: dir, Name: name})
	if err != nil {
		return resp, err
	}
	cl.bumpGroupNs(owner)
	if cl.anyDown() {
		cl.journalGroup(owner, &Req{Op: OpRmdir, Ino: dir, Name: name}, child, 0)
	}
	delete(cl.sizes, child)
	return resp, nil
}

// Rename implements Renamer. Unsharded, it fans one OpRenameLocal to
// every alive server (each applies it locally — the namespace is
// replicated). Sharded, a rename within one owner group is the same
// OpRenameLocal fanned to that group; across groups it is the
// three-phase protocol (see the package comment): prepare at the
// source group, commit (OpLink) at the destination group, finalize at
// the source group. The commit is the switch point — before it the
// rename can still abort cleanly to its source state; after it the
// rename HAS happened and only the source-side cleanup can lag. A
// fault that hides the commit's fate, or interrupts the finalize,
// returns *RenameInDoubtError (errors.Is ErrRenameInDoubt): the
// namespace is in one of exactly two legal states, and re-driving the
// same rename resolves it.
func (cl *Cluster) Rename(p *sim.Proc, srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) (*Resp, error) {
	if err := cl.enterOp(p, true); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	defer cl.exitOp()
	if err := cl.flushDueSizes(p); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	local := &Req{Op: OpRenameLocal, Ino: srcDir, Off: int64(dstDir), Name: PackRenameNames(srcName, dstName)}
	if err := ValidateReq(local); err != nil {
		return &Resp{Status: StatusOf(err)}, err
	}
	if !cl.sharded {
		return cl.fanout(p, local) // noteMutation bumps every server
	}
	so, do := cl.shardOwner(srcDir), cl.shardOwner(dstDir)
	if so == do {
		resp, err := cl.groupFan(p, so, local)
		if err == nil {
			cl.bumpGroupNs(so)
			if cl.anyDown() {
				cl.journalGroup(so, local, resp.Attr.Ino, 0)
			}
		}
		return resp, err
	}
	// Phase 1 — prepare at the source group: marks (srcDir, srcName)
	// as renaming toward dstDir and returns the child. Nothing durable
	// changed; any failure here simply leaves the rename undone.
	presp, err := cl.groupFan(p, so, &Req{Op: OpRenamePrepare, Ino: srcDir, Off: int64(dstDir), Name: srcName})
	if err != nil {
		return presp, err
	}
	child := presp.Attr
	commit := linkReq(dstDir, dstName, presp)
	// Phase 2 — commit at the destination group: link the child under
	// its new name, with the layout class the source reported. This is
	// the switch point.
	cresp, err := cl.groupFan(p, do, commit)
	if err != nil {
		// The destination never (observably) switched: abort the
		// source marks so the namespace settles in its original state.
		// Neither group's slice mutated, so neither bumps — a
		// destination server killed before the commit reinstates
		// cleanly into that state. If the abort ALSO fails, the source
		// entry stays marked and the outcome is in doubt.
		if _, aerr := cl.groupFan(p, so, &Req{Op: OpRenameAbort, Ino: srcDir, Name: srcName}); aerr != nil {
			cl.RenameInDoubts.Add(1)
			cl.noteRenameDoubt(srcDir, srcName, dstDir, dstName)
			return cresp, &RenameInDoubtError{SrcDir: srcDir, SrcName: srcName, DstDir: dstDir, DstName: dstName, Err: err}
		}
		// The abort only reached alive members; one excluded mid-rename
		// may hold the prepare mark with nobody left to clear it. Journal
		// the abort so replay lifts the mark (idempotently a no-op on
		// members that never saw the prepare).
		if cl.anyDown() {
			cl.journalGroup(so, &Req{Op: OpRenameAbort, Ino: srcDir, Name: srcName}, 0, 0)
		}
		cl.clearRenameDoubt(srcDir, srcName, dstDir, dstName)
		return cresp, err
	}
	// The rename is committed. Record the mutation on BOTH groups
	// before attempting the source-side cleanup: a source server that
	// dies between prepare and finalize holds a marked entry the
	// committed rename orphaned, and must be refused Reinstate even
	// though the finalize below never reached it.
	cl.bumpGroupNs(do)
	cl.bumpGroupNs(so)
	if cl.anyDown() {
		cl.journalGroup(do, commit, child.Ino, cresp.Epoch)
	}
	// Phase 3 — finalize at the source group: detach the old entry and
	// clear the mark.
	if _, ferr := cl.groupFan(p, so, &Req{Op: OpRenameFinalize, Ino: srcDir, Off: int64(child.Ino), Name: srcName}); ferr != nil {
		// A member that missed the finalize still holds the orphaned
		// marked entry. If its death was only discovered by the fan
		// above, its exclusion snapshot postdates the bumps — bump the
		// group again so it is refused Reinstate until resynced, and
		// journal the finalize it missed (the journal hook below runs
		// after the fan precisely so newly-excluded members are seen).
		cl.bumpGroupNs(so)
		cl.journalGroup(so, &Req{Op: OpRenameFinalize, Ino: srcDir, Off: int64(child.Ino), Name: srcName}, child.Ino, 0)
		cl.RenameInDoubts.Add(1)
		cl.noteRenameDoubt(srcDir, srcName, dstDir, dstName)
		return cresp, &RenameInDoubtError{SrcDir: srcDir, SrcName: srcName, DstDir: dstDir, DstName: dstName, Err: ferr}
	}
	if cl.anyDown() {
		cl.journalGroup(so, &Req{Op: OpRenameFinalize, Ino: srcDir, Off: int64(child.Ino), Name: srcName}, child.Ino, 0)
	}
	cl.clearRenameDoubt(srcDir, srcName, dstDir, dstName)
	return cresp, nil
}

// ---- in-doubt rename auto-resolution ----

// inDoubtRename is one parked in-doubt rename: the exact arguments of
// the Rename whose fate a fault hid, enough to re-drive it verbatim.
type inDoubtRename struct {
	srcDir  kernel.InodeID
	srcName string
	dstDir  kernel.InodeID
	dstName string
}

// noteRenameDoubt parks an in-doubt rename on both directories it
// involves, so the next walk touching either re-drives it (see
// resolveRenameDoubt). One record per directory: renames serialize per
// entry through the prepare marks, and a second in-doubt rename on the
// same directory simply overwrites — the first is re-discovered by its
// OTHER directory's key, or by the caller's own re-drive.
func (cl *Cluster) noteRenameDoubt(srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) {
	if cl.renameDoubt == nil {
		cl.renameDoubt = make(map[kernel.InodeID]inDoubtRename)
	}
	r := inDoubtRename{srcDir: srcDir, srcName: srcName, dstDir: dstDir, dstName: dstName}
	cl.renameDoubt[srcDir] = r
	cl.renameDoubt[dstDir] = r
}

// clearRenameDoubt drops the parked records matching a rename that
// reached a definitive outcome (committed and finalized, or cleanly
// aborted).
func (cl *Cluster) clearRenameDoubt(srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) {
	if len(cl.renameDoubt) == 0 {
		return
	}
	r := inDoubtRename{srcDir: srcDir, srcName: srcName, dstDir: dstDir, dstName: dstName}
	if cl.renameDoubt[srcDir] == r {
		delete(cl.renameDoubt, srcDir)
	}
	if cl.renameDoubt[dstDir] == r {
		delete(cl.renameDoubt, dstDir)
	}
}

// resolveRenameDoubt re-drives the in-doubt rename parked on dir, if
// any. Every rename phase is idempotent, so the re-drive lands the
// namespace in one of its two legal settled states: success means the
// rename went (or finally goes) forward; ErrNotFound at the re-prepare
// means it already settled (forward, with the source entry detached —
// or undone by a racing abort). Either way the doubt is resolved and
// the walk proceeds against a quiet namespace. A re-drive that fails
// any other way (the faults have not healed) keeps the record for the
// next walk and the walk proceeds — resolution is an optimization of
// WHEN the namespace settles, never a correctness gate for reads.
func (cl *Cluster) resolveRenameDoubt(p *sim.Proc, dir kernel.InodeID) {
	r, ok := cl.renameDoubt[dir]
	if !ok {
		return
	}
	_, err := cl.Rename(p, r.srcDir, r.srcName, r.dstDir, r.dstName)
	if err == nil || errors.Is(err, kernel.ErrNotFound) {
		cl.clearRenameDoubt(r.srcDir, r.srcName, r.dstDir, r.dstName)
		cl.RenameAutoResolves.Add(0)
	}
}

// ---- sharded batching ----

// shardMetaBatch is MetaBatch under sharding: lookups, getattrs,
// readdirs, creates and unlinks split into per-owner-group shares,
// each share packed into combined batches through its primary's
// window, the per-server batches in flight IN PARALLEL — which is
// what lets a metadata storm scale with N instead of serializing
// rounds. Anything else in the batch (mkdir, rmdir, size operations,
// renames) needs multi-round protocols, so such a batch falls back to
// per-request Meta calls in order.
func (cl *Cluster) shardMetaBatch(p *sim.Proc, reqs []*Req) ([]*Resp, error) {
	for _, r := range reqs {
		switch r.Op {
		case OpLookup, OpGetattr, OpReaddir, OpCreate, OpUnlink:
		default:
			return cl.metaBatchSequential(p, reqs)
		}
	}
	n := len(cl.members)
	type share struct {
		idx  []int
		reqs []*Req
		done int
		fl   *batchFlight
		end  int
	}
	shares := make([]share, len(cl.sessions))
	// track remembers, per original position, the mutation's owner
	// residue (-1 for reads) and primary, for the post-batch rounds.
	type mut struct {
		owner   int
		primary int
	}
	muts := make([]mut, len(reqs))
	out := make([]*Resp, len(reqs))
	for i, r := range reqs {
		muts[i].owner = -1
		switch r.Op {
		case OpLookup, OpGetattr, OpReaddir:
			idx := cl.groupPrimary(cl.shardOwner(r.Ino))
			if idx < 0 {
				return nil, cl.groupDead(r.Op, cl.shardOwner(r.Ino))
			}
			shares[idx].idx = append(shares[idx].idx, i)
			shares[idx].reqs = append(shares[idx].reqs, r)
		case OpCreate:
			owner := cl.shardOwner(r.Ino)
			idx := cl.groupPrimary(owner)
			if idx < 0 {
				return nil, cl.groupDead(r.Op, owner)
			}
			muts[i] = mut{owner: owner, primary: idx}
			shares[idx].idx = append(shares[idx].idx, i)
			shares[idx].reqs = append(shares[idx].reqs, cl.hintCreate(r))
		case OpUnlink:
			owner := cl.shardOwner(r.Ino)
			idx := cl.groupPrimary(owner)
			if idx < 0 {
				return nil, cl.groupDead(r.Op, owner)
			}
			muts[i] = mut{owner: owner, primary: idx}
			// The whole owner group applies the unlink; each member's
			// share carries the same *Req (batches start sequentially
			// and every start fully encodes — see startBatchFlight).
			for j := 0; j < cl.replicas; j++ {
				k := cl.members[(owner+j)%n]
				if cl.down[k] {
					continue
				}
				if k != idx {
					cl.MetaFanout.Add(1)
				}
				shares[k].idx = append(shares[k].idx, i)
				shares[k].reqs = append(shares[k].reqs, r)
			}
		}
	}
	// Drive every share to completion in parallel rounds: one flight
	// per server per round, all in flight together. On any error every
	// started flight is still waited (slots must never leak), then the
	// first error surfaces and the caller re-issues.
	var firstErr error
	for firstErr == nil {
		started := false
		for s := range shares {
			sh := &shares[s]
			if sh.fl != nil || sh.done >= len(sh.reqs) || cl.down[s] {
				continue
			}
			fl, end, err := cl.sessions[s].startBatchFlight(p, sh.reqs, sh.done)
			if err != nil {
				if fabric.IsFault(err) {
					cl.markDown(s)
				}
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			sh.fl, sh.end = fl, end
			started = true
		}
		if !started {
			break
		}
		for s := range shares {
			sh := &shares[s]
			if sh.fl == nil {
				continue
			}
			resps, werr := sh.fl.wait(p, nil)
			sh.fl = nil
			for ri, r := range resps {
				pos := sh.idx[sh.done+ri]
				cl.observeResp(s, r)
				if out[pos] == nil {
					out[pos] = r
				} else if r != nil && (r.Status != out[pos].Status || r.Attr.Ino != out[pos].Attr.Ino) {
					return out, fmt.Errorf("rfsrv: owner group diverged in batch at %d", pos)
				}
			}
			sh.done += len(resps)
			if werr != nil {
				if fabric.IsFault(werr) {
					cl.markDown(s)
				}
				if firstErr == nil {
					firstErr = werr
				}
			}
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	// Post-batch rounds and bookkeeping, in request order: replicate
	// fresh dentries (R > 1), bump the mutated groups, queue unlink
	// victims for the lazy scrub.
	for i, r := range reqs {
		m := muts[i]
		if m.owner < 0 || out[i] == nil || out[i].Status != StOK {
			continue
		}
		switch r.Op {
		case OpCreate:
			link := linkReq(r.Ino, r.Name, out[i])
			if cl.replicas > 1 {
				if err := cl.groupFanFrom(p, m.owner, m.primary, link); err != nil {
					return out, err
				}
			}
			cl.bumpGroupNs(m.owner)
			if cl.anyDown() {
				cl.journalGroup(m.owner, link, out[i].Attr.Ino, out[i].Epoch)
			}
			cl.sizes[out[i].Attr.Ino] = cl.entry(out[i].Attr.Size, out[i].Epoch)
		case OpUnlink:
			cl.bumpGroupNs(m.owner)
			if cl.anyDown() {
				cl.journalGroup(m.owner, r, out[i].Attr.Ino, 0)
			}
			if err := cl.noteUnlinkVictim(p, out[i].Attr.Ino, out[i].Attr.Size); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// metaBatchSequential is the sharded batch's fallback for requests
// that need multi-round protocols: per-request Meta calls in original
// order (correct, just not combined).
func (cl *Cluster) metaBatchSequential(p *sim.Proc, reqs []*Req) ([]*Resp, error) {
	out := make([]*Resp, len(reqs))
	for i, r := range reqs {
		resp, err := cl.Meta(p, r)
		out[i] = resp
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
