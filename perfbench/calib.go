package main

// Host speed calibration. On a shared host the simulator's speed
// drifts by tens of percent over minutes as other tenants load the
// machine. The parent times a fixed reference loop in a process of its
// own (-calib) before the first repeat and about once a second after
// that, and scales the host-time metrics by calRef / (median of all
// loop times), so they read as if measured at the reference speed. The loop
// uses no code of the repository and never shares a process with a
// simulator, so the program's heap and parked goroutines do not reach
// its GC cost: a faster or leaner simulator lowers the scaled metrics,
// a busier host raises them less.

import (
	"container/heap"
	"time"
)

// calRef is the reference loop's time, in seconds, on the quiet 2-vCPU
// container BENCHMARK.json's bounds were measured on.
const calRef = 0.075

type calEvent struct {
	at, seq int64
}

type calHeap []*calEvent

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// A calibration runs the reference loop calRuns times for every
// calEvery of host time since the last one, so calibration takes about
// a fifth of a run whatever the length of its repeats.
const (
	calRuns  = 3
	calEvery = time.Second
)

// calibrateN times the reference loop n times, in seconds.
func calibrateN(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = calibrate()
	}
	return xs
}

// calibrate times the reference loop once, in seconds. The loop has
// two parts, the two resources the drift reaches the simulator
// through: an event heap with a goroutine handoff over unbuffered
// channels and a small allocation per event (the engine's proc
// switches), and bulk copies between fresh buffers larger than the
// caches (simulated DMA moves real bytes; a repeat's process faults its
// heap in, as the loop's fresh process does). The copy part counts four times, which makes the two parts
// weigh about the same.
func calibrate() float64 {
	events := calEvents()
	t0 := time.Now()
	src, dst := make([]byte, 8<<20), make([]byte, 8<<20)
	for i := 0; i < 6; i++ {
		copy(dst, src)
		src[i] = dst[len(dst)-1-i]
	}
	return (events + 4*time.Since(t0)).Seconds()
}

// calEvents runs the event part of the reference loop.
func calEvents() time.Duration {
	t0 := time.Now()
	yield, resume := make(chan struct{}), make(chan struct{})
	go func() {
		for range resume {
			yield <- struct{}{}
		}
		close(yield)
	}()
	h := &calHeap{}
	var seq int64
	for i := 0; i < 64; i++ {
		seq++
		heap.Push(h, &calEvent{at: int64(i * 7 % 13), seq: seq})
	}
	bufs := make(map[int64][]byte)
	for i := 0; i < 30000; i++ {
		e := heap.Pop(h).(*calEvent)
		resume <- struct{}{}
		<-yield
		seq++
		heap.Push(h, &calEvent{at: e.at + int64(i%17+1), seq: seq})
		bufs[seq%512] = make([]byte, 64+i%128)
	}
	close(resume)
	<-yield
	sink = len(bufs)
	return time.Since(t0)
}
