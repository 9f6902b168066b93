package orfs_test

import (
	"testing"

	"repro/internal/mx"
	"repro/internal/orfs"
	"repro/internal/rig"
	"repro/internal/sim"
)

// readaheadJump runs a window-8 readahead stream over one seeded file in
// a fresh engine: a few sequential pages, so prefetches are in flight,
// then a jump away that retires them. It returns the virtual end time.
func readaheadJump(t *testing.T) sim.Time {
	t.Helper()
	r := rig.New(nil)
	if err := r.AddServers(1, 0); err != nil {
		t.Fatal(err)
	}
	client := r.HW.AddNode("client")
	r.Go("stream", func(p *sim.Proc) error {
		inos, err := r.Seed(p, 1, 1, 4*rig.Chunk, 1)
		if err != nil {
			return err
		}
		sess, err := r.Sessions(p, mx.Attach(client), rig.Opts{Window: 8})
		if err != nil {
			return err
		}
		fs := orfs.New("orfs", sess[0])
		frame, err := client.Mem.AllocFrame()
		if err != nil {
			return err
		}
		for _, idx := range []int64{0, 1, 2, 3, 40} {
			if _, err := fs.ReadPage(p, inos[0], idx, frame); err != nil {
				return err
			}
		}
		return fs.Quiesce(p)
	})
	if err := r.Run(0, 1); err != nil {
		t.Fatal(err)
	}
	return r.Env.Now()
}

// TestReadaheadDropDeterministic: discarding a stream's in-flight
// prefetches retires them in page order, so identical runs end at the
// same virtual time (retiring in map order scattered the end time).
func TestReadaheadDropDeterministic(t *testing.T) {
	want := readaheadJump(t)
	for i := 0; i < 30; i++ {
		if got := readaheadJump(t); got != want {
			t.Fatalf("run %d ended at %v, run 0 at %v", i+1, got, want)
		}
	}
}
