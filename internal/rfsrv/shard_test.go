package rfsrv_test

// Fault-injected tests for the sharded namespace (DESIGN.md §11, §13):
// the three-phase cross-owner rename killed on either side of its
// commit point (asserting the namespace lands in exactly one of the
// two legal states, and that Reinstate replays what the victim missed
// before re-admitting it), owner-group failover to a replica member,
// the ownership-scoped Reinstate contract (a foreign slice churning
// journals nothing; an owned slice churning replays), and the batched
// size-publish flush across a kill — all with window-idle and
// pool-leak assertions on the new paths.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

// newShardRig is newClusterRig with every server enrolled in the
// namespace partition: collision-free inode minting plus the server
// half of sharding (ownership checks, rename marks, materialize).
func newShardRig(t *testing.T, nServers, replicas int) *clusterRig {
	return buildClusterRig(t, nServers, replicas)
}

// shardClient builds the sharded client over the rig: replicated
// sessions with the fault timeout armed, ownership routing enabled.
func (r *clusterRig) shardClient(t *testing.T, p *sim.Proc, replicas int) *rfsrv.Cluster {
	t.Helper()
	return r.view(t, p, rig.Opts{Window: 4, Stripe: testStripe, Replicas: replicas, Timeout: faultTimeout, Sharded: true})
}

// mkdirRes creates directories under the root until one lands on the
// wanted owner residue and returns its inode.
func mkdirRes(t *testing.T, p *sim.Proc, cl *rfsrv.Cluster, n, want int, tag string) kernel.InodeID {
	t.Helper()
	for k := 0; k < 64; k++ {
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: fmt.Sprintf("%s%d", tag, k)})
		if err != nil {
			t.Fatalf("mkdir %s%d: %v", tag, k, err)
		}
		if int((resp.Attr.Ino-2)%kernel.InodeID(n)) == want {
			return resp.Attr.Ino
		}
	}
	t.Fatalf("no directory with residue %d in 64 tries", want)
	return 0
}

// TestShardRenameDestKillPreCommit kills the destination owner's NIC
// between the rename's prepare and its commit: the commit faults, the
// abort settles the source back to its original state (state A — the
// rename simply failed, NOT in doubt), the source entry is unmarked
// (the same rename re-drives cleanly), and the killed destination —
// whose slice never mutated — reinstates without a resync.
func TestShardRenameDestKillPreCommit(t *testing.T) {
	r := newShardRig(t, 4, 1)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 1)
		src := mkdirRes(t, p, cl, 4, 1, "s")
		dst := mkdirRes(t, p, cl, 4, 2, "d")
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: src, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		fino := resp.Attr.Ino

		// The destination owner dies after the prepare round trip (to
		// the source owner, unstalled) but before the commit can reach
		// it: its NIC is stalled so the commit frame is still queued
		// when the kill lands.
		r.Nodes[2].NIC.StallFor(400 * time.Microsecond)
		r.Nodes[2].NIC.KillAfter(200 * time.Microsecond)
		_, rerr := cl.Rename(p, src, "f", dst, "g")
		if rerr == nil {
			t.Fatal("rename across a dead destination owner succeeded")
		}
		if errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("pre-commit destination kill must NOT be in doubt: %v", rerr)
		}

		// State A: source entry intact, destination untouched.
		if a, err := r.FS[1].Lookup(p, src, "f"); err != nil || a.Ino != fino {
			t.Fatalf("state A: source entry = %+v, %v; want ino %d", a, err, fino)
		}
		if _, err := r.FS[2].Lookup(p, dst, "g"); !errors.Is(err, kernel.ErrNotFound) {
			t.Fatalf("state A: destination entry exists (err=%v), want absent", err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 2 {
			t.Fatalf("down servers = %v, want [2]", down)
		}

		// The destination's slice never mutated, so it reinstates
		// cleanly — and the re-driven rename completes.
		r.Nodes[2].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 2); err != nil {
			t.Fatalf("reinstate unmutated destination owner: %v", err)
		}
		if _, err := cl.Rename(p, src, "f", dst, "g"); err != nil {
			t.Fatalf("re-driven rename: %v", err)
		}
		if _, err := r.FS[1].Lookup(p, src, "f"); !errors.Is(err, kernel.ErrNotFound) {
			t.Fatalf("source entry survived the re-driven rename (err=%v)", err)
		}
		if a, err := r.FS[2].Lookup(p, dst, "g"); err != nil || a.Ino != fino {
			t.Fatalf("destination entry = %+v, %v; want ino %d", a, err, fino)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardRenameSourceKillInDoubt kills the source owner's NIC after
// the prepare but before the finalize, while the destination commit is
// in flight: the commit applies (the rename HAS happened) and the
// finalize faults, so the client must surface *RenameInDoubtError with
// the rename's coordinates, the namespace must be in the committed
// state (destination linked, source cleanup lagging), and the dead
// source — holding an orphaned marked entry — journals the missed
// finalize, so Reinstate REPLAYS it: readmission detaches the lagging
// entry instead of refusing.
func TestShardRenameSourceKillInDoubt(t *testing.T) {
	r := newShardRig(t, 4, 1)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 1)
		src := mkdirRes(t, p, cl, 4, 1, "s")
		dst := mkdirRes(t, p, cl, 4, 2, "d")
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: src, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		fino := resp.Attr.Ino

		// Stall the destination so the commit completes around 1ms —
		// after the source owner dies at 500µs (prepare, at healthy
		// round-trip speed, is long done by then).
		r.Nodes[2].NIC.StallFor(1 * time.Millisecond)
		r.Nodes[1].NIC.KillAfter(500 * time.Microsecond)
		_, rerr := cl.Rename(p, src, "f", dst, "g")
		if !errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("rename = %v, want ErrRenameInDoubt", rerr)
		}
		var ind *rfsrv.RenameInDoubtError
		if !errors.As(rerr, &ind) {
			t.Fatalf("rename error %T does not unwrap to *RenameInDoubtError", rerr)
		}
		if ind.SrcDir != src || ind.SrcName != "f" || ind.DstDir != dst || ind.DstName != "g" {
			t.Fatalf("in-doubt coordinates = %+v, want %d/f -> %d/g", ind, src, dst)
		}

		// Exactly one of two legal states — and since the commit went
		// through, it must be state B: destination linked, the dead
		// source still holding the entry its finalize never detached.
		_, srcErr := r.FS[1].Lookup(p, src, "f")
		dstA, dstErr := r.FS[2].Lookup(p, dst, "g")
		if srcErr != nil && dstErr != nil {
			t.Fatal("rename left the file linked nowhere — an illegal third state")
		}
		if dstErr != nil || dstA.Ino != fino {
			t.Fatalf("state B: destination entry = %+v, %v; want ino %d", dstA, dstErr, fino)
		}
		if srcErr != nil {
			t.Fatalf("state B: dead source lost its lagging entry: %v", srcErr)
		}

		// The source missed the finalize, but the client journaled it:
		// readmission replays the cleanup instead of refusing, and the
		// lagging entry detaches.
		r.Nodes[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate of the lagging source (journaled finalize): %v", err)
		}
		if cl.ResyncOps.N == 0 {
			t.Fatal("reinstate replayed nothing; the missed finalize should be journaled")
		}
		if _, err := r.FS[1].Lookup(p, src, "f"); !errors.Is(err, kernel.ErrNotFound) {
			t.Fatalf("source entry survived the replayed finalize (err=%v)", err)
		}
		if len(cl.DownServers()) != 0 {
			t.Fatalf("down servers = %v after replayed reinstate, want none", cl.DownServers())
		}
		// The parked doubt auto-resolves on the next walk: the re-driven
		// rename finds the source already settled.
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: src}); err != nil {
			t.Fatalf("readdir after reinstate: %v", err)
		}
		if cl.RenameAutoResolves.N != 1 {
			t.Fatalf("RenameAutoResolves = %d, want 1", cl.RenameAutoResolves.N)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardOwnerFailoverToReplica excludes a directory's primary owner
// in a replicated-ownership cluster (R=2): reads fail over to the
// replica member, creates mint through the surviving member, unlinks
// fan to the alive members only — the directory stays fully usable.
func TestShardOwnerFailoverToReplica(t *testing.T) {
	r := newShardRig(t, 3, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		dirResp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: 0, Name: "dir"})
		if err != nil {
			t.Fatal(err)
		}
		dir := dirResp.Attr.Ino
		res := int((dir - 2) % 3)
		replica := (res + 1) % 3
		for _, name := range []string{"a", "b"} {
			if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: name}); err != nil {
				t.Fatal(err)
			}
		}
		// Ownership replication: the second group member must already
		// hold the dentries.
		if _, err := r.FS[replica].Lookup(p, dir, "a"); err != nil {
			t.Fatalf("replica member missing dentry before the kill: %v", err)
		}

		r.Nodes[res].NIC.Kill()

		// Read failover: getattr and readdir route to the replica.
		if resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: dir}); err != nil || resp.Attr.Ino != dir {
			t.Fatalf("getattr across the kill: %+v, %v", resp, err)
		}
		// Mutations keep working through the surviving member.
		cresp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "c"})
		if err != nil {
			t.Fatalf("create across the kill: %v", err)
		}
		if got := int((cresp.Attr.Ino - 2) % 3); got != res {
			t.Fatalf("failover-minted inode %d has residue %d, want %d", cresp.Attr.Ino, got, res)
		}
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dir, Name: "a"}); err != nil {
			t.Fatalf("unlink across the kill: %v", err)
		}
		rresp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: dir})
		if err != nil {
			t.Fatalf("readdir across the kill: %v", err)
		}
		names := make(map[string]bool)
		for _, e := range rresp.Entries {
			names[e.Name] = true
		}
		if names["a"] || !names["b"] || !names["c"] {
			t.Fatalf("readdir across the kill = %v, want b and c without a", rresp.Entries)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != res {
			t.Fatalf("down servers = %v, want [%d]", down, res)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardReinstateScopedToOwnedSlice is the ownership-scoped half of
// the Reinstate contract: with R=2 over 3 servers, server 1 belongs to
// the residue-0 and residue-1 owner groups but not residue 2. Churning
// a residue-2 directory while server 1 is excluded journals nothing
// for it (readmission replays zero operations); churning a residue-1
// directory journals every missed mutation, and readmission replays
// them all before re-admitting.
func TestShardReinstateScopedToOwnedSlice(t *testing.T) {
	r := newShardRig(t, 3, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		foreign := mkdirRes(t, p, cl, 3, 2, "f") // group {2,0}: no server 1
		owned := mkdirRes(t, p, cl, 3, 1, "o")   // group {1,2}: primary 1

		churn := func(dir kernel.InodeID, tag string) {
			for k := 0; k < 3; k++ {
				name := fmt.Sprintf("%s%d", tag, k)
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: name}); err != nil {
					t.Fatalf("churn create %s: %v", name, err)
				}
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: dir, Name: name}); err != nil {
					t.Fatalf("churn unlink %s: %v", name, err)
				}
			}
		}

		// Round 1: exclude server 1 (observed by a read routed to it —
		// reads bump nothing), churn only the foreign slice, reinstate.
		r.Nodes[1].NIC.Kill()
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: owned}); err != nil {
			t.Fatalf("getattr observing the kill: %v", err)
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 1 {
			t.Fatalf("down servers = %v, want [1]", down)
		}
		churn(foreign, "x")
		r.Nodes[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate after foreign-slice churn: %v", err)
		}
		if cl.ResyncOps.N != 0 {
			t.Fatalf("foreign-slice churn journaled %d op(s) for server 1; its journal should be empty", cl.ResyncOps.N)
		}

		// Round 2: same exclusion, but the churn lands on a directory
		// server 1 co-owns — its slice mutated behind its back, so the
		// readmission replays the journaled churn before re-admitting.
		r.Nodes[1].NIC.Kill()
		if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: owned}); err != nil {
			t.Fatalf("getattr observing the second kill: %v", err)
		}
		churn(owned, "y")
		r.Nodes[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		if err := cl.Reinstate(p, 1); err != nil {
			t.Fatalf("reinstate after owned-slice churn (journaled): %v", err)
		}
		if cl.ResyncOps.N != 6 {
			t.Fatalf("ResyncOps = %d after owned-slice churn replay, want 6 (3 creates + 3 unlinks)", cl.ResyncOps.N)
		}
		// The replay converged server 1's slice: the churn's entries came
		// and went, so nothing y-named survives anywhere.
		for k := 0; k < 3; k++ {
			if _, err := r.FS[1].Lookup(p, owned, fmt.Sprintf("y%d", k)); !errors.Is(err, kernel.ErrNotFound) {
				t.Fatalf("replayed churn left y%d on server 1 (err=%v)", k, err)
			}
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardBatchedPublishFlush drives the coalescing size-publish
// queue directly: extending writes below the batch threshold leave the
// non-extreme servers' local sizes lagging, FlushSizes converges every
// server on the global end in one combined round, and a flush across a
// killed server excludes it and still converges the survivors.
func TestShardBatchedPublishFlush(t *testing.T) {
	r := newClusterRig(t, 3)
	r.run(t, func(p *sim.Proc) {
		cl := r.clusterRep(t, p, 4, testStripe, 1)
		if err := cl.SetSizePublishBatch(4); err != nil {
			t.Fatal(err)
		}
		ino := clusterCreate(t, p, cl, "f")
		writeStripe := func(k int) {
			va, vec := r.kbuf(t, testStripe)
			if err := r.client.Kernel.WriteBytes(va, pattern(testStripe)); err != nil {
				t.Fatal(err)
			}
			if resp, err := cl.Write(p, ino, int64(k)*int64(testStripe), vec); err != nil || int(resp.N) != testStripe {
				t.Fatalf("write stripe %d: n=%d err=%v", k, resp.N, err)
			}
		}
		for k := 0; k < 3; k++ {
			writeStripe(k)
		}
		// Below the batch threshold nothing published: server 0 only
		// saw its own stripe and must lag the global end.
		if cl.SetSizes.N != 0 {
			t.Fatalf("%d OpSetSize RPCs before the batch filled, want 0", cl.SetSizes.N)
		}
		if a, err := r.FS[0].Getattr(p, ino); err != nil || a.Size >= 3*int64(testStripe) {
			t.Fatalf("server 0 size = %d, %v; want a lagging local size", a.Size, err)
		}
		if err := cl.FlushSizes(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if cl.SetSizes.N == 0 {
			t.Fatal("flush issued no publishes")
		}
		for i, fs := range r.FS {
			if a, err := fs.Getattr(p, ino); err != nil || a.Size != 3*int64(testStripe) {
				t.Fatalf("server %d size after flush = %d, %v; want %d", i, a.Size, err, 3*testStripe)
			}
		}

		// A flush across a kill: the dead server is excluded, the
		// survivors still converge.
		r.Nodes[2].NIC.Kill()
		writeStripe(3) // stripe 3 lands on server 0
		if err := cl.FlushSizes(p); err != nil {
			t.Fatalf("flush across the kill: %v", err)
		}
		for i := 0; i < 2; i++ {
			if a, err := r.FS[i].Getattr(p, ino); err != nil || a.Size != 4*int64(testStripe) {
				t.Fatalf("server %d size after degraded flush = %d, %v; want %d", i, a.Size, err, 4*testStripe)
			}
		}
		if down := cl.DownServers(); len(down) != 1 || down[0] != 2 {
			t.Fatalf("down servers = %v, want [2]", down)
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}
