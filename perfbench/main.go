// Command perfbench is the repository's benchmark: it runs one
// workload for a fixed host-time budget, checks the workload's
// outputs, and prints every end-to-end metric (or, with -trace 1,
// every per-layer metric) by name with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload transport --seed 1 --seconds 10 --trace 0
//
// Workloads: transport, file-stream, file-stream-sync, meta-storm,
// fault-churn (see BENCHMARK.json and perfbench/README.md). Every
// repeat runs in its own process and must reproduce the first repeat's
// simulated outputs bit for bit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a -trace 0 run reports.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "host_us_per_op", unit: "us"},
	{name: "host_allocs_per_op", unit: "count"},
	{name: "host_live_mb", unit: "MB"},
	{name: "sim_ops_per_s", unit: "1/s"},
	{name: "sim_mb_per_s", unit: "MB/s"},
	{name: "sim_lat_p50_us", unit: "us"},
	{name: "sim_lat_p99_us", unit: "us"},
}

// perLayer are the metrics a -trace 1 run reports (BENCHMARK.json's
// per_layer). A layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"trace.overhead_us_per_op", "us"},
	{"bench.self_us_per_op", "us"},
	{"kernel.self_us_per_op", "us"},
	{"rfsrv.self_us_per_op", "us"},
	{"mx.self_us_per_op", "us"},
	{"gm.self_us_per_op", "us"},
	{"sim.handoff_ns", "ns"},
	{"sim.handoff_allocs", "count"},
	{"sim.timer_ns", "ns"},
	{"sim.stranded_end", "count"},
	{"sim.goroutines_end", "count"},
	{"hw.link_busy_max", "ratio"},
	{"hw.txdma_busy_max", "ratio"},
	{"hw.rxdma_busy_max", "ratio"},
	{"hw.fw_busy_max", "ratio"},
	{"hw.cpu_busy_max", "ratio"},
	{"hw.frames_per_op", "count"},
	{"hw.copy_bytes_per_op", "B"},
	{"hw.dropped", "count"},
	{"hw.frame_ns", "ns"},
	{"mx.rtt_p50_us", "us"},
	{"gm.rtt_p50_us", "us"},
	{"gm.phys_rtt_p50_us", "us"},
	{"fabric.pool_ns", "ns"},
	{"fabric.pool_allocs", "count"},
	{"fabric.outstanding_end", "count"},
	{"kernel.read_p50_us", "us"},
	{"kernel.write_p50_us", "us"},
	{"kernel.fsync_p50_us", "us"},
	{"kernel.pagecache_hit_ratio", "ratio"},
	{"orfs.readahead_useful_ratio", "ratio"},
	{"orfs.rpcs_per_op", "count"},
	{"rfsrv.meta_p50_us", "us"},
	{"rfsrv.metabatch_p50_us", "us"},
	{"rfsrv.rename_p50_us", "us"},
	{"rfsrv.read_p50_us", "us"},
	{"rfsrv.write_p50_us", "us"},
	{"rfsrv.server_reqs_per_op", "count"},
	{"rfsrv.meta_fanout_per_op", "count"},
	{"rfsrv.setsize_per_write", "count"},
	{"rfsrv.batched_ratio", "ratio"},
	{"rfsrv.window_peak", "count"},
	{"rfsrv.reinstate_us", "us"},
	{"rfsrv.bounce_us", "us"},
	{"rfsrv.recovery_p50_us", "us"},
	{"rfsrv.recovery_max_us", "us"},
	{"rfsrv.failovers", "count"},
	{"rfsrv.resync_ops", "count"},
	{"rfsrv.resync_kb", "KB"},
	{"rfsrv.resync_fallbacks", "count"},
	{"faults.kills", "count"},
	{"faults.stalls", "count"},
	{"faults.bounces", "count"},
	{"rfsrv.encode_req_ns", "ns"},
	{"rfsrv.decode_req_ns", "ns"},
	{"rfsrv.decode_resp_ns", "ns"},
	{"rfsrv.codec_allocs", "count"},
	{"rfsrv.route_ns", "ns"},
	{"rfsrv.session_rtt_host_us", "us"},
	{"memfs.create_ns", "ns"},
	{"memfs.write_4k_ns", "ns"},
	{"memfs.read_4k_ns", "ns"},
}

// minRepeats is the fewest repeats a run makes, whatever its budget:
// two are needed for the determinism check, three for a median.
const minRepeats = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload: transport, file-stream, file-stream-sync, meta-storm or fault-churn")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "host seconds to measure")
		traceOn = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		outDir  = flag.String("out", ".bench_build", "directory for trace files")
		child   = flag.Bool("child", false, "run one repeat and print its raw result (internal)")
		micro   = flag.Bool("micro", false, "run the per-layer host microbenchmarks and print them (internal)")
		calib   = flag.Int("calib", 0, "time the host-speed reference loop this many times and print the times (internal)")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *calib > 0:
		emit(calibrateN(*calib))
	case *micro:
		emit(runMicro())
	case *child:
		res, err := runChild(*name, *seed, *traceOn == 1, *outDir)
		if err != nil {
			fatal(err)
		}
		emit(res)
	default:
		if _, ok := workloads[*name]; !ok {
			fatal(fmt.Errorf("unknown workload %q (want transport, file-stream, file-stream-sync, meta-storm or fault-churn)", *name))
		}
		if err := parent(*name, *seed, *seconds, *traceOn == 1, *outDir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// spawn runs this binary with args and decodes the JSON its last
// output line carries into v. It waits for the process to end.
func spawn(v any, args ...string) error {
	cmd := exec.Command(os.Args[0], args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	return json.Unmarshal([]byte(lines[len(lines)-1]), v)
}

// runMeta records what the host numbers depend on.
func runMeta() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit,
	}
}

// parent runs repeats, each in its own process, until the budget is
// spent, checks that they agree, and prints the report.
func parent(name string, seed int64, seconds float64, traceOn bool, outDir string) error {
	meta := runMeta()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v go=%s GOMAXPROCS=%d nproc=%d commit=%s\n",
		name, seed, seconds, traceOn, meta["go"], meta["gomaxprocs"], meta["nproc"], meta["commit"])
	common := []string{"-child", "-workload", name, "-seed", fmt.Sprint(seed), "-out", outDir}

	var microRes map[string]float64
	if traceOn {
		if err := spawn(&microRes, "-micro", "-out", outDir); err != nil {
			return err
		}
	}
	// The reference loop runs in a process of its own, out of reach of
	// the simulator's heap and goroutines: calRuns times before the
	// first repeat, and then after any repeat that ends calEvery or more
	// after the last calibration, calRuns times per calEvery elapsed.
	var cals []float64
	var lastCal time.Time
	runCalib := func(loops int) error {
		var xs []float64
		if err := spawn(&xs, "-calib", fmt.Sprint(loops), "-out", outDir); err != nil {
			return err
		}
		cals = append(cals, xs...)
		lastCal = time.Now()
		return nil
	}
	if err := runCalib(calRuns); err != nil {
		return err
	}
	var plain, traced []*childResult
	budget := time.Duration(seconds * float64(time.Second))
	t0 := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= minRepeats && (!traceOn || len(traced) >= minRepeats)
		if enough && time.Since(t0) >= budget {
			break
		}
		withTrace := traceOn && i%2 == 1
		args := append(append([]string(nil), common...), "-trace", "0")
		if withTrace {
			args[len(args)-1] = "1"
		}
		res := new(childResult)
		if err := spawn(res, args...); err != nil {
			return err
		}
		if withTrace {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
		if el := time.Since(lastCal); el >= calEvery {
			if err := runCalib(calRuns * int(el/calEvery)); err != nil {
				return err
			}
		}
	}

	all := append(append([]*childResult(nil), plain...), traced...)
	first := plain[0]
	deterministic := true
	attempted, failed := 0, 0
	for _, c := range all {
		attempted += c.Attempted
		failed += c.Failed
		if c.Print != first.Print {
			deterministic = false
		}
	}
	correct := deterministic && first.Failed == 0
	if !deterministic {
		fmt.Printf("DETERMINISM FAILURE: repeats of seed %d disagree on simulated outputs:", seed)
		for _, c := range all {
			fmt.Printf(" %s", c.Print)
		}
		fmt.Println()
	}
	for _, a := range first.Audit {
		fmt.Println("AUDIT MISMATCH:", a)
	}
	for _, e := range first.Errors {
		fmt.Println("FAILED OP:", e)
	}

	medianOf := func(cs []*childResult, f func(c *childResult) float64) float64 {
		xs := make([]float64, 0, len(cs))
		for _, c := range cs {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	hostUs := func(c *childResult) float64 { return c.HostS * 1e6 / float64(max(c.Ops, 1)) }
	rawSetup := medianOf(all, func(c *childResult) float64 { return c.SetupS })
	rawHostUs := medianOf(plain, hostUs)
	cal := median(cals)
	scale := calRef / cal
	fmt.Printf("host speed: reference loop %.2f ms (median of %d loops, reference %.0f ms); unscaled setup_s %.4f, host_us_per_op %.2f\n",
		cal*1e3, len(cals), calRef*1e3, rawSetup, rawHostUs)
	values := map[string]float64{
		"setup_s":            rawSetup * scale,
		"host_us_per_op":     rawHostUs * scale,
		"host_allocs_per_op": medianOf(plain, func(c *childResult) float64 { return float64(c.Mallocs) / float64(max(c.Ops, 1)) }),
		"host_live_mb":       medianOf(all, func(c *childResult) float64 { return c.LiveMB }),
	}
	for k, v := range first.Sim {
		values[k] = v
	}
	counts := map[string]string{
		"setup_s":            fmt.Sprintf("n=%d repeats", len(all)),
		"host_us_per_op":     fmt.Sprintf("n=%d repeats x %d ops", len(plain), first.Ops),
		"host_allocs_per_op": fmt.Sprintf("n=%d repeats x %d ops", len(plain), first.Ops),
		"host_live_mb":       fmt.Sprintf("n=%d repeats", len(all)),
		"sim_ops_per_s":      fmt.Sprintf("n=%d ops", first.Ops),
		"sim_mb_per_s":       fmt.Sprintf("n=%d ops", first.Ops),
		"sim_lat_p50_us":     fmt.Sprintf("n=%d ops", first.Ops),
		"sim_lat_p99_us":     fmt.Sprintf("n=%d ops, %d beyond p99", first.Ops, first.P99Beyond),
	}
	fmt.Printf("%-28s %14s %-6s %s\n", "end-to-end metric", "value", "unit", "samples")
	for _, d := range endToEnd {
		fmt.Printf("%-28s %14.4f %-6s %s\n", d.name, values[d.name], d.unit, counts[d.name])
	}
	fmt.Printf("%-28s %14.6f %-6s n=%d ops attempted per repeat\n", "fail_ratio", first.Sim["fail_ratio"], "ratio", first.Attempted)
	for _, a := range first.Anchors {
		fmt.Printf("anchor %-36s sim %9.3f %-4s paper %7.1f  error %+6.1f%%\n", a.Name, a.Sim, a.Unit, a.Paper, 100*(a.Sim-a.Paper)/a.Paper)
	}

	metrics := map[string]any{}
	if !traceOn {
		for _, d := range endToEnd {
			metrics[d.name] = map[string]any{"value": values[d.name], "unit": d.unit}
		}
	} else {
		lay := map[string]float64{}
		for k, v := range microRes {
			lay[k] = v
		}
		for k, v := range first.Sim {
			lay[k] = v
		}
		for k, v := range traced[0].Layer {
			lay[k] = v
		}
		lay["trace.overhead_us_per_op"] = (medianOf(traced, hostUs) - rawHostUs) * scale
		fmt.Printf("trace file: %s\n", traced[0].TraceFile)
		fmt.Printf("%-28s %14s %s\n", "per-layer metric", "value", "unit")
		for _, d := range perLayer {
			fmt.Printf("%-28s %14.4f %s\n", d.name, lay[d.name], d.unit)
			metrics[d.name] = map[string]any{"value": lay[d.name], "unit": d.unit}
		}
	}
	emit(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	return nil
}
