package main

// transport: four independent node pairs in one engine, each
// ping-ponging one message at a time through netpipe ends. It loads
// only sim, hw, gm, mx and fabric.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gm"
	"repro/internal/mx"
	"repro/internal/netpipe"
	"repro/internal/sim"
)

const (
	tpOpsPerPair = 400
	tpMaxSize    = 1 << 20
	// tpSmallMax bounds the small sizes the per-transport RTT medians use.
	tpSmallMax = 4096
)

// tpPair is one ping-pong pair: which driver, which buffer addressing.
type tpPair struct {
	name  string
	layer string // the driver layer the calls enter: mx or gm
	gm    bool
	mode  netpipe.AddrMode

	a, b  *netpipe.End
	sizes []int
	rtts  []sim.Time // per op, in issue order
}

type transportWL struct {
	pairs []*tpPair
}

// sizeMix returns n message sizes: 80% log-uniform in 1 B..4 KB and
// 20% log-uniform in 32 KB..1 MB. Each draw comes from its own
// stratum of the distribution, so every seed sees the same size
// profile in a different order and different exact sizes.
func sizeMix(rng *rand.Rand, n int) []int {
	small := n * 4 / 5
	out := make([]int, 0, n)
	logUniform := func(k, of int, lo, hi float64) int {
		u := (float64(k) + rng.Float64()) / float64(of)
		return int(math.Round(math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))))
	}
	for k := 0; k < small; k++ {
		out = append(out, logUniform(k, small, 1, tpSmallMax))
	}
	for k := 0; k < n-small; k++ {
		out = append(out, logUniform(k, n-small, 32<<10, tpMaxSize))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *transportWL) setup(r *run, p *sim.Proc) error {
	w.pairs = []*tpPair{
		{name: "mx-kernel", layer: "mx", mode: netpipe.KernelBuf},
		{name: "mx-user", layer: "mx", mode: netpipe.UserBuf},
		{name: "gm-kernel", layer: "gm", gm: true, mode: netpipe.KernelBuf},
		{name: "gm-phys", layer: "gm", gm: true, mode: netpipe.PhysBuf},
	}
	for _, pr := range w.pairs {
		a := r.hwc.AddNode(pr.name + "-a")
		b := r.hwc.AddNode(pr.name + "-b")
		var err error
		if pr.gm {
			if pr.a, err = netpipe.NewGMEnd(p, gm.Attach(a), 1, pr.mode, b.ID, 1, tpMaxSize); err != nil {
				return err
			}
			if pr.b, err = netpipe.NewGMEnd(p, gm.Attach(b), 1, pr.mode, a.ID, 1, tpMaxSize); err != nil {
				return err
			}
		} else {
			contig := pr.mode != netpipe.UserBuf
			if pr.a, err = netpipe.NewMXEnd(mx.Attach(a), 1, pr.mode, b.ID, 1, tpMaxSize, contig); err != nil {
				return err
			}
			if pr.b, err = netpipe.NewMXEnd(mx.Attach(b), 1, pr.mode, a.ID, 1, tpMaxSize, contig); err != nil {
				return err
			}
		}
		pr.sizes = sizeMix(rand.New(rand.NewSource(r.rng.Int63())), tpOpsPerPair)
	}
	return nil
}

func (w *transportWL) start(r *run) {
	for i, pr := range w.pairs {
		r.live += 2
		r.env.Spawn(pr.name+"-responder", func(p *sim.Proc) {
			defer func() { r.live-- }()
			for _, n := range pr.sizes {
				if got, err := pr.b.Pong(p, n); err != nil || got != n {
					r.mismatch("%s responder: got %d of %d bytes (%v)", pr.name, got, n, err)
					return
				}
				if err := pr.b.Ping(p, n); err != nil {
					return
				}
			}
		})
		r.env.Spawn(pr.name+"-initiator", func(p *sim.Proc) {
			defer func() { r.live-- }()
			for _, n := range pr.sizes {
				o := r.beginOp(p, i, "pingpong")
				sp := r.call(p, o, pr.layer, "End.Ping")
				err := pr.a.Ping(p, n)
				r.tr.end(p, sp)
				got := 0
				if err == nil {
					sp = r.call(p, o, pr.layer, "End.Pong")
					got, err = pr.a.Pong(p, n)
					r.tr.end(p, sp)
				}
				if err == nil && got != n {
					err = fmt.Errorf("%s: echo carried %d of %d bytes", pr.name, got, n)
				}
				r.endOp(p, o, int64(2*n), err)
				if err != nil {
					return
				}
				pr.rtts = append(pr.rtts, p.Now()-o.at)
			}
		})
	}
}

// anchor is one simulated figure the paper reports, beside the paper's
// value as EXPERIMENTS.md records it.
type anchor struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Sim   float64 `json:"sim"`
	Paper float64 `json:"paper"`
}

// audit runs the paper's anchor points on the same pairs after the
// measured phase: 1 B one-way latency (half the mean round trip) and
// the MX kernel 1 MB bandwidth.
func (w *transportWL) audit(r *run, p *sim.Proc) {
	oneWay := func(pr *tpPair, n, iters int) sim.Time {
		done := sim.NewSignal(r.env)
		r.env.Spawn(pr.name+"-anchor", func(q *sim.Proc) {
			for i := 0; i < iters; i++ {
				if _, err := pr.b.Pong(q, n); err != nil {
					break
				}
				if err := pr.b.Ping(q, n); err != nil {
					break
				}
			}
			done.Fire()
		})
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			if err := pr.a.Ping(p, n); err != nil {
				r.mismatch("%s anchor ping: %v", pr.name, err)
				break
			}
			if got, err := pr.a.Pong(p, n); err != nil || got != n {
				r.mismatch("%s anchor pong: %d of %d bytes (%v)", pr.name, got, n, err)
				break
			}
		}
		done.Wait(p)
		return (p.Now() - t0) / sim.Time(2*iters)
	}
	us := func(d sim.Time) float64 { return float64(d) / 1e3 }
	mxK, gmK, gmP := w.pairs[0], w.pairs[2], w.pairs[3]
	r.anchors = append(r.anchors,
		anchor{"MX kernel 1 B one-way (Fig 5a)", "us", us(oneWay(mxK, 1, 20)), 4.2},
		anchor{"GM kernel 1 B one-way (Fig 5a)", "us", us(oneWay(gmK, 1, 20)), 8.7},
		anchor{"GM physical 1 B one-way (Fig 4a)", "us", us(oneWay(gmP, 1, 20)), 7.7},
	)
	bw := float64(tpMaxSize) / oneWay(mxK, tpMaxSize, 4).Seconds() / 1e6
	r.anchors = append(r.anchors, anchor{"MX kernel 1 MB bandwidth (Fig 5b)", "MB/s", bw, 245})
}

func (w *transportWL) layers(m map[string]float64, ops float64) {
	small := func(pr *tpPair) []sim.Time {
		var out []sim.Time
		for i, d := range pr.rtts {
			if pr.sizes[i] <= tpSmallMax {
				out = append(out, d)
			}
		}
		return out
	}
	m["mx.rtt_p50_us"] = quantile(durUs(small(w.pairs[0])), 0.5)
	m["gm.rtt_p50_us"] = quantile(durUs(small(w.pairs[2])), 0.5)
	m["gm.phys_rtt_p50_us"] = quantile(durUs(small(w.pairs[3])), 0.5)
}
