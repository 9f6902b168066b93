package rfsrv_test

// In-doubt rename resolution under replicated ownership (DESIGN.md
// §11–§13): both kill points of the three-phase rename driven to
// ErrRenameInDoubt with R=2 owner groups, asserting the namespace
// lands in exactly one of the two legal states and that it collapses
// — by re-driving the SAME rename, or by Reinstate replaying the
// journaled finalize the lagging members missed. Plus the §11 walk
// transient (one inode visible under both names while the source
// cleanup lags, with the marked entry refusing mutation), and the
// composition of sharding with the layout policy and batched size
// publishes.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

// shardObserver builds a second, fresh sharded client over the same
// rig on its own endpoints (30+i, clear of clusterRep's 10+i): a
// client with no exclusion history, standing in for a recovering
// application node, and the re-drive vantage point for an in-doubt
// rename the observer did not issue.
func (r *clusterRig) shardObserver(t *testing.T, p *sim.Proc, replicas int) *rfsrv.Cluster {
	t.Helper()
	return r.view(t, p, rig.Opts{Window: 4, Stripe: testStripe, Replicas: replicas, Timeout: faultTimeout, EP: 30, Sharded: true})
}

// TestShardRenameInDoubtAbortFaultStateA drives the FIRST in-doubt
// kill point under R=2: the destination owner group dies before the
// commit, and the source group dies before the abort can clean up —
// the client cannot learn the commit's fate OR settle the source, so
// it must surface ErrRenameInDoubt. The true state is state A (the
// commit never applied): both source members still hold the marked
// entry, neither destination member holds the link. Every slice is
// bump-free on this path, so all four servers readmit cleanly, and
// re-driving the SAME rename from the SAME client rides the
// idempotent prepare marks to completion (state B everywhere).
func TestShardRenameInDoubtAbortFaultStateA(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		src := mkdirRes(t, p, cl, 4, 1, "s") // owner group {1,2}
		dst := mkdirRes(t, p, cl, 4, 3, "d") // owner group {3,0}
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: src, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		fino := resp.Attr.Ino

		// The destination members swallow the commit: their NICs are
		// stalled when its frames arrive and killed before the stall
		// drains, so the commit never applies and its flights only die
		// by the faultTimeout=2ms deadline. The source members die at
		// 1.5ms — after the (healthy, sub-millisecond) prepare round
		// trip, before the abort the commit timeout triggers.
		r.Nodes[3].NIC.StallFor(10 * time.Millisecond)
		r.Nodes[0].NIC.StallFor(10 * time.Millisecond)
		r.Nodes[3].NIC.KillAfter(1 * time.Millisecond)
		r.Nodes[0].NIC.KillAfter(1 * time.Millisecond)
		r.Nodes[1].NIC.KillAfter(1500 * time.Microsecond)
		r.Nodes[2].NIC.KillAfter(1500 * time.Microsecond)
		_, rerr := cl.Rename(p, src, "f", dst, "g")
		if !errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("rename = %v, want ErrRenameInDoubt", rerr)
		}
		if cl.RenameInDoubts.N != 1 {
			t.Fatalf("RenameInDoubts = %d, want 1", cl.RenameInDoubts.N)
		}

		// State A: the commit never reached the destination group, so
		// the source members keep the (marked) entry and the
		// destination members have nothing.
		for _, i := range []int{1, 2} {
			if a, err := r.FS[i].Lookup(p, src, "f"); err != nil || a.Ino != fino {
				t.Fatalf("state A: source member %d entry = %+v, %v; want ino %d", i, a, err, fino)
			}
		}
		for _, i := range []int{3, 0} {
			if _, err := r.FS[i].Lookup(p, dst, "g"); !errors.Is(err, kernel.ErrNotFound) {
				t.Fatalf("state A: destination member %d holds the link (err=%v), want absent", i, err)
			}
		}

		// No slice mutated (prepare marks bump nothing), so every
		// server — including the two that missed the abort — readmits
		// without a resync.
		for _, n := range r.Nodes {
			n.NIC.Revive()
		}
		p.Sleep(2 * faultTimeout)
		for i := range r.Nodes {
			if err := cl.Reinstate(p, i); err != nil {
				t.Fatalf("reinstate server %d after state-A in-doubt: %v", i, err)
			}
		}
		if cl.Reinstates.N != 4 {
			t.Fatalf("Reinstates = %d, want 4", cl.Reinstates.N)
		}

		// Re-driving the same rename resolves the doubt: the prepare is
		// answered idempotently from the surviving marks, the commit
		// links, the finalize detaches — state B on every member.
		if _, err := cl.Rename(p, src, "f", dst, "g"); err != nil {
			t.Fatalf("re-driven rename: %v", err)
		}
		for _, i := range []int{1, 2} {
			if _, err := r.FS[i].Lookup(p, src, "f"); !errors.Is(err, kernel.ErrNotFound) {
				t.Fatalf("source member %d kept the entry after the re-drive (err=%v)", i, err)
			}
		}
		for _, i := range []int{3, 0} {
			if a, err := r.FS[i].Lookup(p, dst, "g"); err != nil || a.Ino != fino {
				t.Fatalf("destination member %d entry = %+v, %v; want ino %d", i, a, err, fino)
			}
		}
		assertWindowsIdle(t, cl)
		r.checkNoLeaks(t)
	})
}

// TestShardRenameInDoubtFinalizeFaultStateB drives the SECOND in-doubt
// kill point under R=2: the commit applies at the destination group
// but the whole source group dies before the finalize — state B with
// the source cleanup lagging on BOTH members. The issuing client
// journaled the missed finalize for each, so Reinstate replays it and
// both members readmit with their lagging entries detached; a fresh
// observer then sees only the settled committed state.
func TestShardRenameInDoubtFinalizeFaultStateB(t *testing.T) {
	r := newShardRig(t, 4, 2)
	r.run(t, func(p *sim.Proc) {
		cl := r.shardClient(t, p, 2)
		src := mkdirRes(t, p, cl, 4, 1, "s") // owner group {1,2}
		dst := mkdirRes(t, p, cl, 4, 3, "d") // owner group {3,0}
		resp, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: src, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		fino := resp.Attr.Ino

		// Stall the destination group so the commit lands around 1ms —
		// after both source members die at 500µs (the prepare, at
		// healthy round-trip speed, is long done by then).
		r.Nodes[3].NIC.StallFor(1 * time.Millisecond)
		r.Nodes[0].NIC.StallFor(1 * time.Millisecond)
		r.Nodes[1].NIC.KillAfter(500 * time.Microsecond)
		r.Nodes[2].NIC.KillAfter(500 * time.Microsecond)
		_, rerr := cl.Rename(p, src, "f", dst, "g")
		if !errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("rename = %v, want ErrRenameInDoubt", rerr)
		}

		// State B: both destination members hold the committed link;
		// both source members still hold the entry the finalize never
		// detached.
		for _, i := range []int{3, 0} {
			if a, err := r.FS[i].Lookup(p, dst, "g"); err != nil || a.Ino != fino {
				t.Fatalf("state B: destination member %d entry = %+v, %v; want ino %d", i, a, err, fino)
			}
		}
		for _, i := range []int{1, 2} {
			if a, err := r.FS[i].Lookup(p, src, "f"); err != nil || a.Ino != fino {
				t.Fatalf("state B: source member %d lost its lagging entry (%+v, %v)", i, a, err)
			}
		}

		// Both source members missed the finalize of a committed rename,
		// and the issuing client journaled it for each: readmission
		// replays the cleanup instead of refusing.
		r.Nodes[1].NIC.Revive()
		r.Nodes[2].NIC.Revive()
		p.Sleep(2 * faultTimeout)
		for _, i := range []int{1, 2} {
			if err := cl.Reinstate(p, i); err != nil {
				t.Fatalf("reinstate lagging source member %d (journaled finalize): %v", i, err)
			}
		}
		if cl.ReinstateRefusals.N != 0 {
			t.Fatalf("ReinstateRefusals = %d, want 0 (journaled replay, not refusal)", cl.ReinstateRefusals.N)
		}
		if cl.ResyncOps.N != 2 {
			t.Fatalf("ResyncOps = %d, want 2 (one finalize per lagging member)", cl.ResyncOps.N)
		}
		for _, i := range []int{1, 2} {
			if _, err := r.FS[i].Lookup(p, src, "f"); !errors.Is(err, kernel.ErrNotFound) {
				t.Fatalf("source member %d kept the entry after the replayed finalize (err=%v)", i, err)
			}
		}

		// A fresh observer (no exclusion history, no doubt record) walks
		// a settled namespace: only the committed state is visible.
		obs := r.shardObserver(t, p, 2)
		if a, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dst, Name: "g"}); err != nil || a.Attr.Ino != fino {
			t.Fatalf("observer lookup of the committed name = %+v, %v; want ino %d", a, err, fino)
		}
		if _, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: src, Name: "f"}); !errors.Is(err, kernel.ErrNotFound) {
			t.Fatalf("observer still sees the old name (err=%v), want ErrNotFound", err)
		}
		assertWindowsIdle(t, obs)
		r.checkNoLeaks(t)
	})
}

// TestShardRenameInDoubtReaddirWalk pins the §11 walk transient: while
// a committed rename's source cleanup lags, ONE inode is legally
// visible under BOTH names — the destination readdir shows the new
// entry, the lagging source readdir still shows the old one, and both
// lookups resolve to the same inode. The marked source entry refuses
// mutation with ErrBusy until the rename is re-driven, which collapses
// the walk back to a single name.
func TestShardRenameInDoubtReaddirWalk(t *testing.T) {
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

		// Commit applies (~1ms, behind the destination stall), source
		// owner dies at 500µs: finalize faults, state B, in doubt.
		r.Nodes[2].NIC.StallFor(1 * time.Millisecond)
		r.Nodes[1].NIC.KillAfter(500 * time.Microsecond)
		if _, rerr := cl.Rename(p, src, "f", dst, "g"); !errors.Is(rerr, rfsrv.ErrRenameInDoubt) {
			t.Fatalf("rename = %v, want ErrRenameInDoubt", rerr)
		}
		r.Nodes[1].NIC.Revive()
		p.Sleep(2 * faultTimeout)

		// A fresh observer walks the transient: the file answers under
		// both names, from both directories.
		obs := r.shardObserver(t, p, 1)
		readdir := func(dir kernel.InodeID) map[string]bool {
			resp, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: dir})
			if err != nil {
				t.Fatalf("readdir %d: %v", dir, err)
			}
			names := make(map[string]bool, len(resp.Entries))
			for _, e := range resp.Entries {
				names[e.Name] = true
			}
			return names
		}
		if names := readdir(src); !names["f"] {
			t.Fatalf("lagging source readdir = %v, want the old name still visible", names)
		}
		if names := readdir(dst); !names["g"] {
			t.Fatalf("destination readdir = %v, want the committed name", names)
		}
		sa, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: src, Name: "f"})
		if err != nil || sa.Attr.Ino != fino {
			t.Fatalf("lookup via the old name = %+v, %v; want ino %d", sa, err, fino)
		}
		da, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: dst, Name: "g"})
		if err != nil || da.Attr.Ino != fino {
			t.Fatalf("lookup via the new name = %+v, %v; want ino %d", da, err, fino)
		}

		// The lagging entry is marked: mutation is refused until the
		// rename resolves.
		if _, err := obs.Meta(p, &rfsrv.Req{Op: rfsrv.OpUnlink, Ino: src, Name: "f"}); !errors.Is(err, rfsrv.ErrBusy) {
			t.Fatalf("unlink of the marked entry = %v, want ErrBusy", err)
		}

		// Re-driving the rename collapses the walk to one name.
		if _, err := obs.Rename(p, src, "f", dst, "g"); err != nil {
			t.Fatalf("observer re-drive: %v", err)
		}
		if names := readdir(src); names["f"] {
			t.Fatal("old name still visible after the re-drive")
		}
		if names := readdir(dst); !names["g"] {
			t.Fatal("committed name vanished after the re-drive")
		}
		assertWindowsIdle(t, obs)
		r.checkNoLeaks(t)
	})
}

// TestShardLayoutPolicyCompose pins the composition rule: the sharded
// namespace (§11), the adaptive layout policy (§10) and batched size
// publishes are accepted in either order and work together on N=4,
// R=2. A small file lives whole on its owner group with zero
// OpSetSize; a write past PromoteThreshold promotes it and a second
// client converges to the standard layout; and once the owner primary
// dies, the replica (which learned the class from the OpLink that
// replicated the dentry) answers getattr with LayoutWhole and serves
// the failed-over read.
func TestShardLayoutPolicyCompose(t *testing.T) {
	const n, replicas = 4, 2
	r := newShardRig(t, n, replicas)
	r.run(t, func(p *sim.Proc) {
		setters := []func(cl *rfsrv.Cluster) error{
			(*rfsrv.Cluster).EnableShardedNamespace,
			func(cl *rfsrv.Cluster) error { return cl.SetLayoutPolicy(rfsrv.LayoutPolicy{Adaptive: true}) },
			func(cl *rfsrv.Cluster) error { return cl.SetSizePublishBatch(4) },
		}
		build := func(ep int, order []int) *rfsrv.Cluster {
			cl := r.view(t, p, rig.Opts{Window: 4, Stripe: testStripe, Replicas: replicas, Timeout: faultTimeout, EP: ep})
			for _, k := range order {
				if err := setters[k](cl); err != nil {
					t.Fatalf("setter %d (order %v): %v", k, order, err)
				}
			}
			if _, on := cl.LayoutPolicy(); !on || !cl.ShardedNamespace() {
				t.Fatalf("order %v: policy on=%v, sharded=%v", order, on, cl.ShardedNamespace())
			}
			return cl
		}
		a := build(10, []int{0, 1, 2})
		b := build(30, []int{2, 1, 0})

		dir := mkdirRes(t, p, a, n, 2, "d")
		owner := 2
		inGroup := func(s int) bool { return (s-owner+n)%n < replicas }

		// A small file: whole on its owner group, no size reconciliation.
		const small = 16 * 1024
		smallData := pattern(small)
		resp, err := a.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "small"})
		if err != nil {
			t.Fatal(err)
		}
		ino := resp.Attr.Ino
		if lc := a.LayoutOf(ino); lc != rfsrv.LayoutWhole {
			t.Fatalf("adaptive create under sharding classified %v, want LayoutWhole", lc)
		}
		writeAt(t, p, r, a, ino, 0, smallData)
		if err := a.FlushSizes(p); err != nil {
			t.Fatal(err)
		}
		if got := a.SetSizes.N; got != 0 {
			t.Errorf("whole-on-home write issued %d OpSetSize, want 0", got)
		}
		for s := range r.Nodes {
			for pg := 0; pg < small/mem.PageSize; pg++ {
				if have := r.FS[s].FrameAt(ino, int64(pg)) != nil; have != inGroup(s) {
					t.Fatalf("server %d page %d present=%v, want %v (owner group %d..%d)", s, pg, have, inGroup(s), owner, owner+replicas-1)
				}
			}
		}

		// A growing file: b learns it whole, a's write past the threshold
		// promotes it, and b converges to the standard layout.
		const head, tail = 200 * 1024, 100 * 1024
		bigData := pattern(head + tail)
		resp, err = a.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "big"})
		if err != nil {
			t.Fatal(err)
		}
		big := resp.Attr.Ino
		writeAt(t, p, r, a, big, 0, bigData[:head])
		if got, n := readBack(t, p, r, b, big, 0, head); n != head || !bytes.Equal(got, bigData[:head]) {
			t.Fatalf("second client read %d bytes of the whole file, match=%v", n, bytes.Equal(got, bigData[:head]))
		}
		if lc := b.LayoutOf(big); lc != rfsrv.LayoutWhole {
			t.Fatalf("second client sees %v before promotion, want LayoutWhole", lc)
		}
		writeAt(t, p, r, a, big, head, bigData[head:])
		if a.Promotions.N != 1 || a.LayoutOf(big) != rfsrv.LayoutStandard {
			t.Fatalf("promotions=%d layout=%v, want 1 promotion to LayoutStandard", a.Promotions.N, a.LayoutOf(big))
		}
		if err := a.FlushSizes(p); err != nil {
			t.Fatal(err)
		}
		gresp, err := b.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: big})
		if err != nil {
			t.Fatal(err)
		}
		if gresp.Layout != rfsrv.LayoutStandard || b.LayoutOf(big) != rfsrv.LayoutStandard {
			t.Fatalf("second client: getattr layout %v, cached %v, want LayoutStandard", gresp.Layout, b.LayoutOf(big))
		}
		if got, n := readBack(t, p, r, b, big, 0, head+tail+mem.PageSize); n != head+tail || !bytes.Equal(got, bigData) {
			t.Fatalf("second client read %d bytes after promotion, match=%v", n, bytes.Equal(got, bigData))
		}

		// A wide-hinted file spans every server, most of them outside its
		// owner group: their stub replies must not teach either client
		// the standard layout over bytes laid out at WideStripeSize.
		wide := 3*int(rfsrv.WideStripeSize) + 64*1024
		wideData := pattern(wide)
		resp, err = a.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir, Name: "wide", Layout: rfsrv.LayoutWide})
		if err != nil {
			t.Fatal(err)
		}
		wino := resp.Attr.Ino
		// Chunked I/O keeps each round trip inside the 2 ms fault
		// timeout: a whole MiB-scale transfer would outlast it.
		const chunk = 128 * 1024
		writeChunks := func(c *rfsrv.Cluster, off int64, data []byte) {
			for k := 0; k < len(data); k += chunk {
				writeAt(t, p, r, c, wino, off+int64(k), data[k:min(k+chunk, len(data))])
			}
		}
		readChunks := func(c *rfsrv.Cluster) []byte {
			var out []byte
			for k := 0; k < wide; k += chunk {
				got, n := readBack(t, p, r, c, wino, int64(k), chunk)
				if n != min(chunk, wide-k) {
					t.Fatalf("wide read at %d returned %d bytes", k, n)
				}
				out = append(out, got...)
			}
			return out
		}
		writeChunks(a, 0, wideData)
		if err := a.FlushSizes(p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readChunks(b), wideData) {
			t.Fatal("second client read the wide file wrong")
		}
		patch := bytes.Repeat([]byte{0xa5}, 2*int(rfsrv.WideStripeSize))
		writeChunks(b, int64(rfsrv.WideStripeSize)/2, patch)
		copy(wideData[rfsrv.WideStripeSize/2:], patch)
		for _, c := range []*rfsrv.Cluster{a, b} {
			if !bytes.Equal(readChunks(c), wideData) {
				t.Fatal("wide file read back wrong after the second client's patch")
			}
			if lc := c.LayoutOf(wino); lc != rfsrv.LayoutWide {
				t.Fatalf("wide file cached as %v after striped I/O, want LayoutWide", lc)
			}
		}
		for k := 0; k < n; k++ {
			if r.FS[k].FrameAt(wino, int64(k)*rfsrv.WideStripeSize/mem.PageSize) == nil {
				t.Fatalf("wide stripe %d missing on server %d", k, k)
			}
		}

		// A truncate fans to every server, and the last to answer is
		// outside the owner group {0, 1}: the file stays whole.
		dir0 := mkdirRes(t, p, a, n, 0, "e")
		in0 := func(s int) bool { return s < replicas }
		resp, err = a.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: dir0, Name: "t"})
		if err != nil {
			t.Fatal(err)
		}
		tino := resp.Attr.Ino
		tData := pattern(small)
		writeAt(t, p, r, a, tino, 0, tData)
		const cut = 4 * 1024
		if _, err := a.Meta(p, &rfsrv.Req{Op: rfsrv.OpTruncate, Ino: tino, Off: cut}); err != nil {
			t.Fatal(err)
		}
		if lc := a.LayoutOf(tino); lc != rfsrv.LayoutWhole {
			t.Fatalf("truncated whole-on-home file cached as %v, want LayoutWhole", lc)
		}
		tData = append(tData[:cut], bytes.Repeat([]byte{0x5a}, 2*cut)...)
		writeAt(t, p, r, a, tino, cut, tData[cut:])
		if got, n := readBack(t, p, r, b, tino, 0, small); n != len(tData) || !bytes.Equal(got, tData) {
			t.Fatalf("second client read %d bytes after truncate and rewrite, match=%v", n, bytes.Equal(got, tData))
		}
		for s := range r.Nodes {
			for pg := 0; pg < len(tData)/mem.PageSize; pg++ {
				if have := r.FS[s].FrameAt(tino, int64(pg)) != nil; have != in0(s) {
					t.Fatalf("rewritten file: server %d page %d present=%v, want %v", s, pg, have, in0(s))
				}
			}
		}

		// Kill the owner primary: the replica answers for the whole file.
		r.Nodes[owner].NIC.Kill()
		gresp, err = a.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino})
		if err != nil {
			t.Fatalf("getattr after the owner primary died: %v", err)
		}
		if gresp.Layout != rfsrv.LayoutWhole || gresp.Attr.Size != small {
			t.Fatalf("replica getattr: layout %v size %d, want LayoutWhole size %d", gresp.Layout, gresp.Attr.Size, small)
		}
		if got, n := readBack(t, p, r, b, ino, 0, small); n != small || !bytes.Equal(got, smallData) {
			t.Fatalf("failed-over read %d bytes, match=%v", n, bytes.Equal(got, smallData))
		}
		if b.Failovers.N == 0 {
			t.Error("second client's read did not fail over")
		}
		assertWindowsIdle(t, a)
		assertWindowsIdle(t, b)
	})
}
