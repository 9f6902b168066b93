package main

// Per-layer host microbenchmarks. Host time measured around a call a
// workload makes inside a simulated process also counts every other
// process the engine runs while that one is parked, so per-layer host
// cost comes only from these isolated loops. Each reports the median
// of microTrials trials of ns (or µs) per operation and heap
// allocations per operation.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

const (
	microTrials = 5
	// protoBench is a NIC protocol number no driver registers.
	protoBench = 200
)

// measure runs body, which performs n operations, microTrials times
// and returns the median host ns and heap allocations per operation.
func measure(n int, body func(n int)) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	for t := 0; t < microTrials; t++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		body(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

// inProc runs body inside one simulated process on a fresh engine
// with a bare node and returns when the engine drains.
func inProc(body func(p *sim.Proc, c *hw.Cluster, n *hw.Node)) {
	env := sim.NewEngine()
	c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	node := c.AddNode("bench")
	env.Spawn("micro", func(p *sim.Proc) { body(p, c, node) })
	env.Run(0)
}

// sink keeps results of measured calls alive.
var sink any

func runMicro() map[string]float64 {
	m := map[string]float64{}

	// sim: a proc switch is one ping or pong between two procs over
	// sim.Chan (two switches per round trip).
	m["sim.handoff_ns"], m["sim.handoff_allocs"] = measure(100000, func(n int) {
		env := sim.NewEngine()
		ping, pong := sim.NewChan[int](env), sim.NewChan[int](env)
		env.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				ping.Send(i)
				pong.Recv(p)
			}
		})
		env.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				pong.Send(ping.Recv(p))
			}
		})
		env.Run(0)
	})
	m["sim.timer_ns"], _ = measure(100000, func(n int) {
		env := sim.NewEngine()
		env.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		env.Run(0)
	})

	// hw: one single-frame message from NIC.Send to the receive
	// handler on a bare two-node rig, messages back to back.
	m["hw.frame_ns"], _ = measure(20000, func(n int) {
		env := sim.NewEngine()
		c := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
		a, b := c.AddNode("a"), c.AddNode("b")
		got := 0
		b.NIC.Handle(protoBench, func(p *sim.Proc, msg *hw.Message) { got++ })
		payload := make([]byte, 64)
		env.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a.NIC.Send(&hw.TxJob{Msg: &hw.Message{Dst: b.ID, Proto: protoBench}, Inline: payload})
			}
		})
		env.Run(0)
		if got != n {
			panic(fmt.Sprintf("frame microbenchmark delivered %d of %d", got, n))
		}
	})

	// fabric: a pooled buffer handed out and returned.
	m["fabric.pool_ns"], m["fabric.pool_allocs"] = measure(500000, func(n int) {
		c := hw.NewCluster(sim.NewEngine(), hw.DefaultParams(), hw.PCIXD)
		pool := fabric.PoolOf(c.AddNode("pool"))
		for i := 0; i < n; i++ {
			b, err := pool.Get(4096)
			if err != nil {
				panic(err)
			}
			b.Release()
		}
	})

	// rfsrv wire codec.
	req := &rfsrv.Req{Op: rfsrv.OpGetattr, Seq: 12345, EP: 11, Ino: 4242, Off: 65536, Len: 4096, Name: "c1-1234"}
	resp := &rfsrv.Resp{Seq: 12345, Attr: kernel.Attr{Ino: 4242, Kind: kernel.RegularFile, Size: 65536}, Epoch: 3, N: 4096}
	encReq := rfsrv.EncodeReq(req)
	encResp, err := rfsrv.EncodeResp(resp)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 0, 256)
	var encAllocs, decReqAllocs, decRespAllocs float64
	m["rfsrv.encode_req_ns"], encAllocs = measure(1000000, func(n int) {
		for i := 0; i < n; i++ {
			buf = rfsrv.EncodeReqInto(buf[:0], req)
		}
	})
	m["rfsrv.decode_req_ns"], decReqAllocs = measure(1000000, func(n int) {
		for i := 0; i < n; i++ {
			r, _, err := rfsrv.DecodeReq(encReq)
			if err != nil {
				panic(err)
			}
			sink = r
		}
	})
	m["rfsrv.decode_resp_ns"], decRespAllocs = measure(1000000, func(n int) {
		for i := 0; i < n; i++ {
			r, err := rfsrv.DecodeResp(encResp)
			if err != nil {
				panic(err)
			}
			sink = r
		}
	})
	m["rfsrv.codec_allocs"] = encAllocs + decReqAllocs + decRespAllocs

	// rfsrv routing on a 4-server sharded R=2 cluster view: one
	// OwnerServer, HomeServer and CanStart call each.
	var view *rfsrv.Cluster
	env := sim.NewEngine()
	hc := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
	srv, err := addServers(hc, 4, 2)
	if err != nil {
		panic(err)
	}
	client := hc.AddNode("client")
	env.Spawn("route-setup", func(p *sim.Proc) {
		if view, err = newView(p, client, srv, viewOpts{window: 8, replicas: 2, sharded: true}); err != nil {
			panic(err)
		}
	})
	env.Run(0)
	routeNs, _ := measure(1000000, func(n int) {
		hits := 0
		for i := 0; i < n; i++ {
			off := int64(i) * stripe
			ino := kernel.InodeID(i + 2)
			hits += view.OwnerServer(off) + view.HomeServer(ino)
			if view.CanStart(ino, off, 4096) {
				hits++
			}
		}
		sink = hits
	})
	m["rfsrv.route_ns"] = routeNs / 3

	// rfsrv session round trip: a getattr through Session.Meta on a
	// one-server rig, window 1.
	m["rfsrv.session_rtt_host_us"] = sessionRTT(2000)

	// memfs on a bare engine: create, 4 KB direct write, 4 KB direct read.
	m["memfs.create_ns"], m["memfs.write_4k_ns"], m["memfs.read_4k_ns"] = memfsMicro(10000)
	return m
}

// sessionRTT returns the median host µs of one Session.Meta getattr on
// a one-server rig, timing the loop inside the simulated process so
// rig set-up is excluded.
func sessionRTT(n int) float64 {
	var us []float64
	for t := 0; t < microTrials; t++ {
		env := sim.NewEngine()
		hc := hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)
		srv, err := addServers(hc, 1, 0)
		if err != nil {
			panic(err)
		}
		client := hc.AddNode("client")
		env.Spawn("session", func(p *sim.Proc) {
			view, err := newView(p, client, srv, viewOpts{window: 1, replicas: 1})
			if err != nil {
				panic(err)
			}
			s := view.Sessions()[0]
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if _, err := s.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: 0}); err != nil {
					panic(err)
				}
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
		})
		env.Run(0)
	}
	return median(us)
}

// memfsMicro returns the median host ns per memfs create, 4 KB direct
// write and 4 KB direct read, each loop timed inside one process.
func memfsMicro(n int) (create, write, read float64) {
	var cs, ws, rs []float64
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	for t := 0; t < microTrials; t++ {
		inProc(func(p *sim.Proc, c *hw.Cluster, node *hw.Node) {
			fs := memfs.New("bench", node, 0)
			va, err := node.Kernel.Mmap(4096, "buf")
			if err != nil {
				panic(err)
			}
			v := kvec(node.Kernel, va, 4096)
			t0 := time.Now()
			var ino kernel.InodeID
			for i := 0; i < n; i++ {
				a, err := fs.Create(p, fs.Root(), names[i])
				if err != nil {
					panic(err)
				}
				ino = a.Ino
			}
			cs = append(cs, float64(time.Since(t0).Nanoseconds())/float64(n))
			t0 = time.Now()
			for i := 0; i < n; i++ {
				if _, err := fs.WriteDirect(p, ino, int64(i%256)*4096, v); err != nil {
					panic(err)
				}
			}
			ws = append(ws, float64(time.Since(t0).Nanoseconds())/float64(n))
			t0 = time.Now()
			for i := 0; i < n; i++ {
				if _, err := fs.ReadDirect(p, ino, int64(i%256)*4096, v); err != nil {
					panic(err)
				}
			}
			rs = append(rs, float64(time.Since(t0).Nanoseconds())/float64(n))
		})
	}
	return median(cs), median(ws), median(rs)
}
