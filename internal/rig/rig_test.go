package rig_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

// streamRig seeds one two-stripe file on a three-server cluster (R=2)
// and runs body in a proc with a view over it from a fresh client node.
func streamRig(t *testing.T, body func(p *sim.Proc, r *rig.Rig, cl *rfsrv.Cluster, ino kernel.InodeID) error) (*rig.Rig, error) {
	t.Helper()
	r := rig.New(nil)
	if err := r.AddServers(3, 0); err != nil {
		t.Fatal(err)
	}
	client := r.HW.AddNode("client")
	r.Go("body", func(p *sim.Proc) error {
		inos, err := r.Seed(p, 3, 1, 2*rig.Chunk, 2)
		if err != nil {
			return err
		}
		cl, err := r.View(p, mx.Attach(client), rig.Opts{Window: 2, Replicas: 2})
		if err != nil {
			return err
		}
		return body(p, r, cl, inos[0])
	})
	return r, r.Run(0, 1)
}

// TestRunEndsClean: a pipelined stream over a seeded replicated layout
// reads every byte and passes the end-of-run checks.
func TestRunEndsClean(t *testing.T) {
	var got int
	_, err := streamRig(t, func(p *sim.Proc, r *rig.Rig, cl *rfsrv.Cluster, ino kernel.InodeID) error {
		return rig.StreamReads(p, cl.Node(), cl, ino, 2*rig.Chunk, func(_ rfsrv.PendingOp, resp *rfsrv.Resp) {
			got += int(resp.N)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*rig.Chunk {
		t.Fatalf("streamed %d bytes, want %d", got, 2*rig.Chunk)
	}
}

// TestSeedPlacement: stripe k lives on servers k mod N .. k mod N+R-1
// and every copy carries the full size.
func TestSeedPlacement(t *testing.T) {
	r := rig.New(nil)
	if err := r.AddServers(3, 0); err != nil {
		t.Fatal(err)
	}
	var inos []kernel.InodeID
	r.Go("seed", func(p *sim.Proc) error {
		var err error
		inos, err = r.Seed(p, 3, 2, 3*rig.Chunk, 2)
		if err != nil {
			return err
		}
		for j, fs := range r.FS {
			for _, ino := range inos {
				a, err := fs.Getattr(p, ino)
				if err != nil {
					return err
				}
				if a.Size != 3*rig.Chunk {
					t.Errorf("server %d ino %d size %d, want %d", j, ino, a.Size, 3*rig.Chunk)
				}
			}
		}
		return nil
	})
	if err := r.Run(0, 1); err != nil {
		t.Fatal(err)
	}
	// Stripe k's data lives on servers k and k+1 (mod 3) only.
	for j, fs := range r.FS {
		for k := 0; k < 3; k++ {
			want := j == k || j == (k+1)%3
			if got := fs.FrameAt(inos[0], int64(k*rig.Chunk/mem.PageSize)) != nil; got != want {
				t.Errorf("server %d holds stripe %d: %v, want %v", j, k, got, want)
			}
		}
	}
}

// TestRunFailsOnLeakedBuffer: a pool buffer released while still
// pinned can never recycle, and the run must say so.
func TestRunFailsOnLeakedBuffer(t *testing.T) {
	_, err := streamRig(t, func(p *sim.Proc, r *rig.Rig, cl *rfsrv.Cluster, _ kernel.InodeID) error {
		b, err := fabric.PoolOf(cl.Node()).Get(4096)
		if err != nil {
			return err
		}
		b.Pin()
		b.Release()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "pool leaks") {
		t.Fatalf("run with a stuck pool buffer: err = %v, want a pool leak", err)
	}
}

// TestRunFailsOnUnretiredPending: a started read nobody waits for holds
// its window slot past the end of the run.
func TestRunFailsOnUnretiredPending(t *testing.T) {
	_, err := streamRig(t, func(p *sim.Proc, r *rig.Rig, cl *rfsrv.Cluster, ino kernel.InodeID) error {
		va, err := cl.Node().Kernel.Mmap(rig.Chunk, "buf")
		if err != nil {
			return err
		}
		_, err = cl.StartRead(p, ino, 0, core.Of(core.KernelSeg(cl.Node().Kernel, va, rig.Chunk)))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "window slots") {
		t.Fatalf("run with an unretired pending: err = %v, want held window slots", err)
	}
}

// TestRunFailureFirst: a failing proc's error wins over the completion
// count, and AtEnd steps are skipped.
func TestRunFailureFirst(t *testing.T) {
	r := rig.New(nil)
	ran := false
	r.AtEnd(func(p *sim.Proc) error { ran = true; return nil })
	r.Go("ok", func(p *sim.Proc) error { return nil })
	r.Go("bad", func(p *sim.Proc) error { return errBad })
	if err := r.Run(0, 2); err != errBad {
		t.Fatalf("err = %v, want %v", err, errBad)
	}
	if ran {
		t.Fatal("AtEnd step ran after a failure")
	}
}

var errBad = errors.New("bad proc")

// TestRunShortfall: a proc that never returns fails the run.
func TestRunShortfall(t *testing.T) {
	r := rig.New(nil)
	r.Go("stuck", func(p *sim.Proc) error {
		sim.NewSignal(r.Env).Wait(p)
		return nil
	})
	if err := r.Run(0, 1); err == nil || !strings.Contains(err.Error(), "0/1") {
		t.Fatalf("err = %v, want a 0/1 shortfall", err)
	}
}
