package main

// Spans recorded by the benchmark around its own calls into each
// layer. Tracing never changes the simulation: spans read Proc.Now()
// only, so a traced run must reproduce the untraced run's simulated
// fingerprint exactly.

import (
	"encoding/json"
	"os"
	"sort"

	"repro/internal/sim"
)

// span is one benchmark call into a layer, in simulated time.
type span struct {
	Name   string
	Layer  string
	Start  sim.Time
	End    sim.Time
	Parent int   // index of the enclosing span, -1 for an op's root
	Op     int64 // client op id, shared by every span of one op
	Client int
}

// tracer keeps spans in memory; it records nothing when off.
type tracer struct {
	on    bool
	spans []span
}

func (t *tracer) begin(p *sim.Proc, layer, name string, op int64, client, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: p.Now(), End: p.Now(), Parent: parent, Op: op, Client: client})
	return len(t.spans) - 1
}

func (t *tracer) end(p *sim.Proc, id int) {
	if id >= 0 {
		t.spans[id].End = p.Now()
	}
}

// durations returns the sorted µs durations of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// selfTime returns, per layer, the simulated time spent in that layer's
// spans minus the part of each span its child spans cover.
func (t *tracer) selfTime() map[string]sim.Time {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]sim.Time)
	for i, s := range t.spans {
		covered := coveredTime(t.spans, children[i], s.Start, s.End)
		self[s.Layer] += s.End - s.Start - covered
	}
	return self
}

// coveredTime is the length of the union of the child intervals,
// clipped to [lo, hi].
func coveredTime(spans []span, kids []int, lo, hi sim.Time) sim.Time {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]sim.Time, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]sim.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB sim.Time
	started := false
	for _, x := range iv {
		if !started || x[0] > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = x[0], x[1], true
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// chromeEvent is one Chrome trace-event "complete" event; Perfetto and
// about:tracing open a file of them.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, simulated
// microseconds on the time axis and one thread per simulated client.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Client,
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanLayers derives the traced per-layer metrics: simulated span
// medians for the layer calls the workloads make, and simulated self
// time per layer per completed op.
func spanLayers(t *tracer, m map[string]float64, ops float64) {
	p50 := func(name string) float64 { return quantile(t.durations(name), 0.5) }
	m["kernel.read_p50_us"] = p50("File.ReadAt")
	m["kernel.write_p50_us"] = p50("File.WriteAt")
	m["kernel.fsync_p50_us"] = p50("File.Fsync")
	m["rfsrv.meta_p50_us"] = p50("Cluster.Meta")
	m["rfsrv.metabatch_p50_us"] = p50("Cluster.MetaBatch")
	m["rfsrv.rename_p50_us"] = p50("Cluster.Rename")
	m["rfsrv.read_p50_us"] = p50("Cluster.Read")
	m["rfsrv.write_p50_us"] = p50("Cluster.Write")
	m["rfsrv.reinstate_us"] = p50("Cluster.Reinstate")
	m["rfsrv.bounce_us"] = p50("Cluster.Bounce")
	self := t.selfTime()
	for _, layer := range []string{"bench", "kernel", "rfsrv", "mx", "gm"} {
		m[layer+".self_us_per_op"] = ratio(float64(self[layer])/1e3, ops)
	}
}
