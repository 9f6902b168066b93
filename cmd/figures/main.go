// Command figures regenerates every table and figure of the paper's
// evaluation and prints them as text, with the paper's qualitative
// expectation under each one. This is the program whose output
// EXPERIMENTS.md records.
//
// Usage:
//
//	go run ./cmd/figures                            # everything
//	go run ./cmd/figures -only fig6                 # one experiment
//	go run ./cmd/figures -only smallfile,metadata   # a comma-separated few
//	go run ./cmd/figures -iters 20                  # more round trips per point
//	go run ./cmd/figures -json out.json             # machine-readable snapshot
//
// The -json snapshot is a local figure-diff tool: run it on two trees
// and diff the files. The repository's benchmark is declared in
// BENCHMARK.json and run with `bash perfbench/run.sh`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/figures"
)

// jsonPoint is one measured point of the machine-readable snapshot.
type jsonPoint struct {
	Size     int     `json:"size"`
	OneWayNS int64   `json:"oneway_ns,omitempty"`
	Value    float64 `json:"value"`
}

// jsonSeries is one labelled curve.
type jsonSeries struct {
	Label  string      `json:"label"`
	Points []jsonPoint `json:"points"`
}

// jsonFigure is one figure of the snapshot: the unit applies to every
// point's Value (latency figures also carry oneway_ns per point).
type jsonFigure struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	Unit   string       `json:"unit"`
	Series []jsonSeries `json:"series"`
}

// jsonElastic is the elastic-membership lifecycle section of the
// snapshot: per-phase throughput (kill -> heal -> replayed
// re-admission -> live Join) plus the recovery/migration accounting.
type jsonElastic struct {
	PreMBps       float64 `json:"pre_mbps"`
	DegradedMBps  float64 `json:"degraded_mbps"`
	PostMBps      float64 `json:"post_expansion_mbps"`
	Reinstates    int64   `json:"reinstates"`
	Refusals      int64   `json:"reinstate_refusals"`
	Spills        int64   `json:"resync_spills"`
	ResyncOps     int64   `json:"resync_ops"`
	ResyncBytes   int64   `json:"resync_bytes"`
	MigratedBytes int64   `json:"migrated_bytes"`
	Epoch         uint64  `json:"epoch"`
	Members       []int   `json:"members"`
}

// snapshot is the -json layout: every figure that ran, plus
// the allocation profile of the per-request hot path and (since PR 9)
// the elastic-membership lifecycle numbers.
type snapshot struct {
	Iters   int          `json:"iters"`
	Figures []jsonFigure `json:"figures"`
	Elastic *jsonElastic `json:"elastic,omitempty"`
	Allocs  struct {
		// RequestPathPerOp is the measured heap allocations per
		// client-observed cluster operation (see
		// figures.RequestPathAllocs); alloc_gate_test.go gates its
		// ceiling. SizePublishPerOp is the same number for an extending
		// write on the batched size-publish path (DESIGN.md §11).
		RequestPathPerOp float64 `json:"request_path_per_op"`
		SizePublishPerOp float64 `json:"size_publish_per_op"`
		Ops              int     `json:"ops"`
	} `json:"allocs"`
}

// add records a finished figure in the snapshot.
func (s *snapshot) add(f *figures.Figure) {
	unit := f.Unit
	if unit == "" {
		if f.Latency() {
			unit = "µs"
		} else {
			unit = "MB/s"
		}
	}
	jf := jsonFigure{ID: f.ID, Title: f.Title, Unit: unit}
	for _, sr := range f.Series {
		js := jsonSeries{Label: sr.Label}
		for _, pt := range sr.Points {
			jp := jsonPoint{Size: pt.Size, Value: pt.MBps}
			if f.Latency() {
				jp.OneWayNS = pt.OneWay.Nanoseconds()
				jp.Value = float64(pt.OneWay.Nanoseconds()) / 1000
			}
			js.Points = append(js.Points, jp)
		}
		jf.Series = append(jf.Series, js)
	}
	s.Figures = append(s.Figures, jf)
}

func main() {
	iters := flag.Int("iters", 10, "ping-pong iterations per message size")
	only := flag.String("only", "", "run only these comma-separated experiment ids (fig1b…fig8b, table1, scalability, multiserver, degraded, elastic, sharedfile, smallfile, metadata, torture)")
	jsonPath := flag.String("json", "", "also write a machine-readable snapshot (figures + hot-path allocs/op) to this file")
	flag.Parse()

	cfg := figures.Config{Iters: *iters, Warmup: 2}
	snap := &snapshot{Iters: *iters}
	sel := make(map[string]bool)
	for _, id := range strings.Split(strings.ToLower(*only), ",") {
		if id = strings.TrimSpace(id); id != "" {
			sel[id] = true
		}
	}
	want := func(id string) bool { return len(sel) == 0 || sel[id] }
	type job struct {
		id  string
		fig func() (*figures.Figure, error)
	}
	jobs := []job{
		{"fig1b", cfg.Fig1b},
		{"fig3b", cfg.Fig3b},
		{"fig4a", cfg.Fig4a},
		{"fig4b", cfg.Fig4b},
		{"fig5a", cfg.Fig5a},
		{"fig5b", cfg.Fig5b},
		{"fig6", cfg.Fig6},
		{"fig7a", cfg.Fig7a},
		{"fig7b", cfg.Fig7b},
		{"fig8a", cfg.Fig8a},
		{"fig8b", cfg.Fig8b},
	}
	ran := false
	emit := func(f *figures.Figure) {
		fmt.Println(f.Render(f.Latency()))
		snap.add(f)
	}
	for _, j := range jobs {
		if !want(j.id) {
			continue
		}
		ran = true
		f, err := j.fig()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", j.id, err)
			os.Exit(1)
		}
		emit(f)
	}
	if want("table1") {
		ran = true
		t, err := cfg.Table1()
		if err != nil {
			fmt.Fprintf(os.Stderr, "table1: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
	}
	multi := map[string]func() ([]*figures.Figure, error){
		"scalability": cfg.Scalability,
		"multiserver": cfg.MultiServer,
		"sharedfile":  cfg.SharedFile,
		"smallfile":   cfg.SmallFile,
		"metadata":    cfg.Metadata,
		"torture":     cfg.Torture,
	}
	for _, id := range []string{"scalability", "multiserver", "sharedfile", "smallfile", "metadata", "torture"} {
		if !want(id) {
			continue
		}
		ran = true
		figs, err := multi[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		for _, f := range figs {
			emit(f)
		}
	}
	if want("degraded") {
		ran = true
		tbl, err := cfg.Degraded()
		if err != nil {
			fmt.Fprintf(os.Stderr, "degraded: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(tbl.Render())
	}
	if want("elastic") {
		ran = true
		tbls, stats, err := cfg.Elastic()
		if err != nil {
			fmt.Fprintf(os.Stderr, "elastic: %v\n", err)
			os.Exit(1)
		}
		for _, tbl := range tbls {
			fmt.Println(tbl.Render())
		}
		snap.Elastic = &jsonElastic{
			PreMBps: stats.PreMBps, DegradedMBps: stats.DegradedMBps, PostMBps: stats.PostMBps,
			Reinstates: stats.Reinstates, Refusals: stats.Refusals, Spills: stats.Spills,
			ResyncOps: stats.ResyncOps, ResyncBytes: stats.ResyncBytes,
			MigratedBytes: stats.MigratedBytes, Epoch: stats.Epoch, Members: stats.Members,
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(1)
	}
	if *jsonPath != "" {
		const allocOps = 512
		perOp, err := figures.RequestPathAllocs(allocOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "request-path allocs: %v\n", err)
			os.Exit(1)
		}
		pubOp, err := figures.SizePublishAllocs(allocOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "size-publish allocs: %v\n", err)
			os.Exit(1)
		}
		snap.Allocs.RequestPathPerOp = perOp
		snap.Allocs.SizePublishPerOp = pubOp
		snap.Allocs.Ops = allocOps
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}
