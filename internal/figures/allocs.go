package figures

// This file holds the host-allocation probe behind the PR 6 zero-alloc
// data-path pass: a steady-state measurement of how many Go heap
// allocations one pipelined request costs on the host, after the
// per-object scratch (encode buffers, part freelists, slot-staged
// requests) has warmed up. bench_test.go reports it as a metric and
// alloc_gate_test.go pins a ceiling on it, so a regression that
// reintroduces per-request garbage fails CI rather than silently
// eroding simulation throughput.

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

// rpaWarmup is how many operations run before counting: enough to
// populate every freelist and grow every scratch buffer to its
// steady-state capacity.
const rpaWarmup = 32

// SizePublishAllocs measures the steady-state host allocations per
// extending one-page write through a 3-server striped cluster with the
// batched size-publish queue on (DESIGN.md §11): the write itself plus
// the amortized share of the combined flush that drains every
// DefaultSizePublishBatch writes. The PR 7 gate pins this so the
// coalescing path cannot quietly regrow per-write garbage.
func SizePublishAllocs(ops int) (float64, error) {
	if ops <= 0 {
		return 0, fmt.Errorf("figures: SizePublishAllocs needs ops > 0")
	}
	r := rig.New(nil)
	if err := r.AddServers(3, 0); err != nil {
		return 0, err
	}
	client := r.HW.AddNode("client")

	return measureAllocs(r, ops, func(p *sim.Proc) (func(i int) error, error) {
		cluster, err := r.View(p, mx.Attach(client), rig.Opts{Window: 8, Stripe: mem.PageSize})
		if err != nil {
			return nil, err
		}
		if err := cluster.SetSizePublishBatch(rfsrv.DefaultSizePublishBatch); err != nil {
			return nil, err
		}
		attr, err := cluster.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "probe"})
		if err != nil {
			return nil, err
		}
		va, err := client.Kernel.Mmap(mem.PageSize, "probe-buf")
		if err != nil {
			return nil, err
		}
		vec := core.Of(core.KernelSeg(client.Kernel, va, mem.PageSize))
		return func(i int) error {
			_, err := cluster.Write(p, attr.Attr.Ino, int64(i)*mem.PageSize, vec)
			return err
		}, nil
	})
}

// RequestPathAllocs measures the steady-state host allocations per
// synchronous 64 KB operation (alternating write and read) through one
// Session to one MX server, measured over ops operations with
// runtime.MemStats — the whole request path: encode, slot staging,
// transfer, server dispatch/worker, decode.
func RequestPathAllocs(ops int) (float64, error) {
	if ops <= 0 {
		return 0, fmt.Errorf("figures: RequestPathAllocs needs ops > 0")
	}
	r := rig.New(nil)
	if err := r.AddServers(1, 0); err != nil {
		return 0, err
	}
	client := r.HW.AddNode("client")

	return measureAllocs(r, ops, func(p *sim.Proc) (func(i int) error, error) {
		sessions, err := r.Sessions(p, mx.Attach(client), rig.Opts{Window: 8})
		if err != nil {
			return nil, err
		}
		sess := sessions[0]
		attr, err := sess.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "probe"})
		if err != nil {
			return nil, err
		}
		const chunk = 64 * 1024
		va, err := client.Kernel.Mmap(chunk, "probe-buf")
		if err != nil {
			return nil, err
		}
		vec := core.Of(core.KernelSeg(client.Kernel, va, chunk))
		return func(i int) error {
			off := int64(i%8) * chunk
			if i%2 == 0 {
				_, err := sess.Write(p, attr.Attr.Ino, off, vec)
				return err
			}
			_, err := sess.Read(p, attr.Attr.Ino, off, vec)
			return err
		}, nil
	})
}

// measureAllocs runs setup in a proc on r, then the operation it
// returns rpaWarmup times (operations are numbered consecutively), then
// ops more times, and returns the host mallocs per measured operation.
// The simulation is single-threaded on the host, so the delta is
// exact.
func measureAllocs(r *rig.Rig, ops int, setup func(p *sim.Proc) (func(i int) error, error)) (float64, error) {
	var allocs float64
	r.Go("probe", func(p *sim.Proc) error {
		op, err := setup(p)
		if err != nil {
			return err
		}
		for i := 0; i < rpaWarmup; i++ {
			if err := op(i); err != nil {
				return err
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := rpaWarmup; i < rpaWarmup+ops; i++ {
			if err := op(i); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(ops)
		return nil
	})
	if err := r.Run(0, 1); err != nil {
		return 0, err
	}
	return allocs, nil
}
