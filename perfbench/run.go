package main

// One repeat of one workload, run in its own process: build the rig,
// run the measured phase, audit the outputs, and report host and
// simulated figures. A process per repeat keeps repeats independent:
// the procs a finished engine leaves parked are never reclaimed, so
// running repeats back to back in one process would grow the heap and
// the GC cost from repeat to repeat.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/sim"
)

// simBudget bounds a repeat's simulated span, so a stalled workload
// ends as an error instead of spinning.
const simBudget = 30 * time.Second

// workload is one benchmark input: a rig, a closed-loop client
// population and an audit of what the clients left behind.
type workload interface {
	// setup builds the rig inside a simulated process; its host time
	// is setup_s.
	setup(r *run, p *sim.Proc) error
	// start spawns the client processes of the measured phase.
	start(r *run)
	// audit runs inside a simulated process once the measured phase
	// has drained and records every mismatch with r.mismatch.
	audit(r *run, p *sim.Proc)
	// layers adds the workload's per-layer counters to m; ops is the
	// number of completed client ops.
	layers(m map[string]float64, ops float64)
}

var workloads = map[string]func() workload{
	"transport":        func() workload { return &transportWL{} },
	"file-stream":      func() workload { return &fileStreamWL{window: 8} },
	"file-stream-sync": func() workload { return &fileStreamWL{window: 1} },
	"meta-storm":       func() workload { return &metaStormWL{} },
	"fault-churn":      func() workload { return &faultChurnWL{} },
}

// run is the state one repeat shares between the workload and the
// measurement.
type run struct {
	seed int64
	rng  *rand.Rand
	env  *sim.Engine
	hwc  *hw.Cluster
	tr   tracer

	start    sim.Time // simulated start of the measured phase
	lastDone sim.Time // completion of the last client op
	nextOp   int64
	live     int // client processes still running

	lats              []sim.Time
	lastOK            map[int]sim.Time // per client, when its last op completed
	attempted, failed int
	payload           int64
	mismatches        []string
	errs              []string
	anchors           []anchor
}

// opCtx is one client op in flight.
type opCtx struct {
	id     int64
	client int
	span   int
	at     sim.Time
}

// beginOp opens a client op: its id, its root span and its issue time.
func (r *run) beginOp(p *sim.Proc, client int, kind string) opCtx {
	r.nextOp++
	o := opCtx{id: r.nextOp, client: client, at: p.Now()}
	o.span = r.tr.begin(p, "bench", kind, o.id, client, -1)
	return o
}

// call opens a span for a benchmark call into layer within op o.
func (r *run) call(p *sim.Proc, o opCtx, layer, name string) int {
	return r.tr.begin(p, layer, name, o.id, o.client, o.span)
}

// endOp closes op o: a failed op counts against fail_ratio; a completed
// one contributes its latency and its useful payload bytes.
func (r *run) endOp(p *sim.Proc, o opCtx, bytes int64, err error) {
	r.tr.end(p, o.span)
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, fmt.Sprintf("seed %d op %d (client %d): %v", r.seed, o.id, o.client, err))
		}
		return
	}
	r.lats = append(r.lats, p.Now()-o.at)
	r.lastOK[o.client] = p.Now()
	r.payload += bytes
	if now := p.Now(); now > r.lastDone {
		r.lastDone = now
	}
}

// mismatch records an audit failure: the output differs from the
// seed-derived expectation. Each one counts as a failed op.
func (r *run) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf("seed %d: ", r.seed)+fmt.Sprintf(format, args...))
}

// hwSnap is the hardware counters summed or maxed over nodes.
type hwSnap struct {
	busy    map[string][]sim.Time // per resource kind, per node
	txMsgs  int64
	copyB   int64
	dropped int64
}

func snapHW(c *hw.Cluster) hwSnap {
	s := hwSnap{busy: map[string][]sim.Time{}}
	for _, n := range c.Nodes() {
		s.busy["link"] = append(s.busy["link"], n.NIC.Link.BusyTime())
		s.busy["txdma"] = append(s.busy["txdma"], n.NIC.TxDMA.BusyTime())
		s.busy["rxdma"] = append(s.busy["rxdma"], n.NIC.RxDMA.BusyTime())
		s.busy["fw"] = append(s.busy["fw"], n.NIC.Firmware.BusyTime())
		s.busy["cpu"] = append(s.busy["cpu"], n.CPU.Resource().BusyTime()/sim.Time(c.Params.CPUCores))
		s.txMsgs += n.NIC.TxMsgs.N
		s.copyB += n.CPU.CopyStats.Bytes
		s.dropped += n.NIC.Dropped.N
	}
	return s
}

// childResult is what one repeat reports to the parent process.
type childResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	SetupS    float64            `json:"setup_s"`
	HostS     float64            `json:"host_s"`
	Mallocs   uint64             `json:"mallocs"`
	LiveMB    float64            `json:"live_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Audit     []string           `json:"audit,omitempty"`
	Ops       int                `json:"ops"`
	P99Beyond int                `json:"p99_beyond"`
	Sim       map[string]float64 `json:"sim"`
	Layer     map[string]float64 `json:"layer"`
	Anchors   []anchor           `json:"anchors,omitempty"`
	Print     string             `json:"fingerprint"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// runChild executes one repeat.
func runChild(name string, seed int64, traceOn bool, outDir string) (*childResult, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := mk()
	res := &childResult{Workload: name, Seed: seed}

	t0 := time.Now()
	r := &run{seed: seed, rng: rand.New(rand.NewSource(seed)), env: sim.NewEngine(), lastOK: map[int]sim.Time{}}
	r.tr.on = traceOn
	r.hwc = hw.NewCluster(r.env, hw.DefaultParams(), hw.PCIXD)
	var setupErr error
	r.env.Spawn("bench-setup", func(p *sim.Proc) { setupErr = w.setup(r, p) })
	r.env.Run(0)
	if setupErr != nil {
		return nil, fmt.Errorf("setup: %w", setupErr)
	}
	res.SetupS = time.Since(t0).Seconds()

	before := snapHW(r.hwc)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	r.start = r.env.Now()
	w.start(r)
	r.env.Run(r.start + simBudget)
	res.HostS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&ms1)
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	if r.live > 0 {
		return nil, fmt.Errorf("%d client(s) still running after %v simulated (seed %d)", r.live, simBudget, seed)
	}
	makespan := r.lastDone - r.start
	after := snapHW(r.hwc)

	ops := float64(len(r.lats))
	m := map[string]float64{}
	lat := durUs(r.lats)
	m["sim_ops_per_s"] = ratio(ops, makespan.Seconds())
	m["sim_mb_per_s"] = ratio(float64(r.payload)/1e6, makespan.Seconds())
	m["sim_lat_p50_us"] = quantile(lat, 0.50)
	m["sim_lat_p99_us"] = quantile(lat, 0.99)
	res.P99Beyond = len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	for kind, xs := range after.busy {
		var hi float64
		for i := range xs {
			hi = max(hi, ratio(float64(xs[i]-before.busy[kind][i]), float64(makespan)))
		}
		m["hw."+kind+"_busy_max"] = hi
	}
	m["hw.frames_per_op"] = ratio(float64(after.txMsgs-before.txMsgs), ops)
	m["hw.copy_bytes_per_op"] = ratio(float64(after.copyB-before.copyB), ops)
	w.layers(m, ops)

	// Audit, then the clean-ending checks every workload shares.
	r.env.Spawn("bench-audit", func(p *sim.Proc) { w.audit(r, p) })
	r.env.Run(0)
	outstanding := 0
	for _, n := range r.hwc.Nodes() {
		pool := fabric.PoolOf(n)
		if err := pool.CheckLeaks(); err != nil {
			r.mismatch("node %s: %v", n.Name, err)
		}
		outstanding += pool.Outstanding()
	}
	m["hw.dropped"] = float64(snapHW(r.hwc).dropped)
	m["fabric.outstanding_end"] = float64(outstanding)
	m["sim.stranded_end"] = float64(r.env.Stranded())
	m["fail_ratio"] = ratio(float64(r.failed+len(r.mismatches)), float64(r.attempted))

	res.Attempted = r.attempted
	res.Failed = r.failed + len(r.mismatches)
	res.Errors = r.errs
	res.Audit = r.mismatches
	res.Ops = len(r.lats)
	res.Sim = m
	res.Anchors = r.anchors
	res.Print = fingerprint(m, r.lats, r.mismatches)

	layer := map[string]float64{}
	if traceOn {
		spanLayers(&r.tr, layer, ops)
		res.TraceFile = filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		meta := runMeta()
		meta["workload"], meta["seed"] = name, seed
		if err := r.tr.writeChrome(res.TraceFile, meta); err != nil {
			return nil, fmt.Errorf("trace export: %w", err)
		}
	}
	layer["sim.goroutines_end"] = float64(runtime.NumGoroutine())
	res.Layer = layer

	// Drop every reference the benchmark holds; what the heap still
	// holds after a GC is kept alive by the engine's parked procs.
	r, w = nil, nil
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	res.LiveMB = float64(ms2.HeapInuse+ms2.StackInuse) / (1 << 20)
	return res, nil
}

// fingerprint hashes every simulated output of a repeat: two repeats of
// one seed must agree bit for bit.
func fingerprint(m map[string]float64, lats []sim.Time, audit []string) string {
	h := sha256.New()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%x\n", k, math.Float64bits(m[k]))
	}
	for _, l := range lats {
		fmt.Fprintf(h, "%d,", int64(l))
	}
	for _, a := range audit {
		fmt.Fprintln(h, a)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
