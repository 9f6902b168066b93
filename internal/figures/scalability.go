package figures

import (
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mx"
	"repro/internal/nbd"
	"repro/internal/netpipe"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

// This file holds the sliding-window scalability suite: ablations
// beyond the paper's figures that measure what pipelining outstanding
// requests (impossible in the paper's synchronous prototypes) buys
// each in-kernel application. Three scenarios run a sequential-read
// workload against one file server:
//
//   - orfs-direct:   O_DIRECT chunk reads issued through the session
//     window (the application-level readahead pattern);
//   - orfs-buffered: page-cache reads with ORFS prefetching the
//     following pages through the window;
//   - nbd:           buffered block-device reads, the page cache
//     combining pages into a queue of pipelined block requests.
//
// Window = 1 is the paper's synchronous protocol; the sweep shows how
// aggregate throughput and tail latency respond to deeper windows and
// to more concurrent clients.

const (
	scalChunk      = 64 * 1024 // application request size
	scalFilePerCli = 2 << 20   // bytes each client reads
)

// scalSample is one request's (or application read's) latency.
type scalResult struct {
	mbps     float64
	p50, p99 sim.Time
}

// percentile returns the q-quantile (0..1) of the sorted samples.
func percentile(samples []sim.Time, q float64) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	i := int(q * float64(len(samples)-1))
	return samples[i]
}

func summarize(samples []sim.Time, totalBytes int, makespan sim.Time) scalResult {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return scalResult{
		mbps: mbps(totalBytes, makespan),
		p50:  percentile(samples, 0.50),
		p99:  percentile(samples, 0.99),
	}
}

// readClient runs client i's workload of one read-suite scenario at
// the given per-server window and returns its latency samples.
// blockServers names the nbd scenario's servers.
type readClient func(p *sim.Proc, r *rig.Rig, scenario string, node *hw.Node, blockServers []hw.NodeID, inos []kernel.InodeID, i, window int) ([]sim.Time, error)

// readRun runs one point of the scalability or multiserver suite on a
// fresh cluster: servers rfsrv servers (block servers for nbd, whose
// unwritten blocks read as zeros) seeded with one file per client,
// then clients concurrent readers, each running client on its own
// node. It returns aggregate throughput plus per-request latency
// percentiles.
func (c Config) readRun(client readClient, scenario string, servers, clients, window int) (scalResult, error) {
	r := rig.New(c.Trace)
	var blockServers []hw.NodeID
	if scenario == "nbd" {
		for j := 0; j < servers; j++ {
			n := r.HW.AddNode(fmt.Sprintf("server%d", j))
			blockServers = append(blockServers, n.ID)
			srv, err := nbd.NewServer(n, clients*scalFilePerCli/nbd.BlockSize)
			if err != nil {
				return scalResult{}, err
			}
			if err := srv.ServeMX(mx.Attach(n), 1, 4); err != nil {
				return scalResult{}, err
			}
		}
	} else if err := r.AddServers(servers, 0); err != nil {
		return scalResult{}, err
	}

	var (
		samples []sim.Time
		started sim.Time
	)
	r.Go("seed", func(p *sim.Proc) error {
		inos := make([]kernel.InodeID, clients)
		if scenario != "nbd" {
			var err error
			if inos, err = r.Seed(p, servers, clients, scalFilePerCli, 1); err != nil {
				return err
			}
		}
		started = p.Now()
		for i := 0; i < clients; i++ {
			node := r.HW.AddNode(fmt.Sprintf("client%d", i))
			r.Go(fmt.Sprintf("cl%d", i), func(p *sim.Proc) error {
				lat, err := client(p, r, scenario, node, blockServers, inos, i, window)
				samples = append(samples, lat...)
				return err
			})
		}
		return nil
	})
	if err := r.Run(0, clients+1); err != nil {
		return scalResult{}, fmt.Errorf("figures: %s on %d servers, %d clients: %w", scenario, servers, clients, err)
	}
	return summarize(samples, clients*scalFilePerCli, r.Finished-started), nil
}

// scalRun executes one scenario at one (clients, window) point against
// one server.
func (c Config) scalRun(scenario string, clients, window int) (scalResult, error) {
	return c.readRun(scalClient, scenario, 1, clients, window)
}

// scalClient is the scalability suite's readClient: a plain session to
// the one server.
func scalClient(p *sim.Proc, r *rig.Rig, scenario string, node *hw.Node, blockServers []hw.NodeID, inos []kernel.InodeID, i, window int) ([]sim.Time, error) {
	ep := 10 + i
	switch scenario {
	case "orfs-direct":
		sess, err := r.Sessions(p, mx.Attach(node), rig.Opts{Window: window, EP: ep})
		if err != nil {
			return nil, err
		}
		return streamLatencies(p, node, sess[0], inos[i], scalFilePerCli)

	case "orfs-buffered":
		sess, err := r.Sessions(p, mx.Attach(node), rig.Opts{Window: window, EP: ep})
		if err != nil {
			return nil, err
		}
		osys := kernel.NewOS(node, 0)
		fs := orfs.New("orfs", sess[0])
		r.AtEnd(fs.Quiesce)
		osys.Mount("/mnt", fs)
		return scalBufferedReads(p, node, osys, fmt.Sprintf("/mnt/f%d", i), 0)

	case "nbd":
		bc, err := nbd.NewClient(mx.Attach(node), uint8(ep), blockServers[0], 1, len(inos)*scalFilePerCli/nbd.BlockSize)
		if err != nil {
			return nil, err
		}
		if err := bc.SetWindow(window); err != nil {
			return nil, err
		}
		osys := kernel.NewOS(node, 0)
		// The page cache combines up to `window` device pages per miss;
		// the device turns the combined range into a queue of block
		// requests pipelined through the client's window.
		osys.SetReadChunkPages(window)
		osys.Mount("/dev", nbd.NewDevice(bc))
		return scalBufferedReads(p, node, osys, "/dev/disk", int64(i)*scalFilePerCli)
	}
	return nil, fmt.Errorf("figures: unknown scalability scenario %q", scenario)
}

// streamLatencies runs rig.StreamReads over the first size bytes of
// ino and returns every request's latency. It takes any Async client:
// a Session drives one server, a Cluster stripes the same chunk stream
// across several.
func streamLatencies(p *sim.Proc, node *hw.Node, a rfsrv.Async, ino kernel.InodeID, size int) ([]sim.Time, error) {
	var samples []sim.Time
	err := rig.StreamReads(p, node, a, ino, size, func(pd rfsrv.PendingOp, _ *rfsrv.Resp) {
		samples = append(samples, p.Now()-pd.Issued())
	})
	return samples, err
}

// scalBufferedReads reads the file sequentially through the VFS in
// application-sized chunks, timing each read call.
func scalBufferedReads(p *sim.Proc, node *hw.Node, osys *kernel.OS, path string, base int64) ([]sim.Time, error) {
	f, err := osys.Open(p, path, 0)
	if err != nil {
		return nil, err
	}
	as := node.NewUserSpace("app")
	va, err := as.Mmap(scalChunk, "buf")
	if err != nil {
		return nil, err
	}
	var samples []sim.Time
	for off := int64(0); off < scalFilePerCli; off += scalChunk {
		t0 := p.Now()
		n, err := f.ReadAt(p, as, va, scalChunk, base+off)
		if err != nil {
			return nil, err
		}
		if n != scalChunk {
			return nil, fmt.Errorf("figures: short buffered read %d at %d", n, base+off)
		}
		samples = append(samples, p.Now()-t0)
	}
	return samples, f.Close(p)
}

// scalWindows and scalClients are the sweep axes of the suite.
var (
	scalWindows     = []int{1, 2, 4, 8, 16, 32}
	scalClientsAxis = []int{1, 2, 4, 8}
)

// readScenarios names the three workloads of the scalability and
// multiserver suites.
var readScenarios = []string{"orfs-direct", "orfs-buffered", "nbd"}

// readSweep runs every scenario at every x and returns one throughput
// series and a p50/p99 latency pair per scenario.
func readSweep(xs []int, run func(scen string, x int) (scalResult, error)) (bw, lat []netpipe.Series, err error) {
	for _, scen := range readScenarios {
		t := netpipe.Series{Label: scen}
		p50 := netpipe.Series{Label: scen + " p50"}
		p99 := netpipe.Series{Label: scen + " p99"}
		for _, x := range xs {
			r, err := run(scen, x)
			if err != nil {
				return nil, nil, err
			}
			t.Points = append(t.Points, netpipe.Point{Size: x, MBps: r.mbps})
			p50.Points = append(p50.Points, netpipe.Point{Size: x, OneWay: r.p50})
			p99.Points = append(p99.Points, netpipe.Point{Size: x, OneWay: r.p99})
		}
		bw = append(bw, t)
		lat = append(lat, p50, p99)
	}
	return bw, lat, nil
}

// Scalability runs the whole suite and returns four figures: aggregate
// throughput and p50/p99 latency against the window size (one client),
// and the same pair against the client count (window 8).
func (c Config) Scalability() ([]*Figure, error) {
	sweep := func(id, title, xlabel string, xs []int, run func(scen string, x int) (scalResult, error)) ([]*Figure, error) {
		bw, lat, err := readSweep(xs, run)
		if err != nil {
			return nil, err
		}
		return []*Figure{{
			ID: id, Title: title,
			XLabel: xlabel, YLabel: "aggregate throughput (MB/s)",
			Series: bw,
			Expected: "beyond the paper: its prototypes are synchronous (window = 1), " +
				"so these curves have no measured counterpart",
		}, {
			ID: id + "-lat", Title: title + " — request latency",
			XLabel: xlabel, YLabel: "latency p50/p99 (µs)",
			Series: lat,
			Expected: "deeper windows trade per-request latency (queueing) for " +
				"aggregate throughput; p99 grows with the window",
		}}, nil
	}
	win, err := sweep("scal-window",
		"Aggregate sequential-read throughput vs window size (1 client)",
		"window (outstanding requests)", scalWindows,
		func(scen string, w int) (scalResult, error) { return c.scalRun(scen, 1, w) })
	if err != nil {
		return nil, err
	}
	cli, err := sweep("scal-clients",
		"Aggregate sequential-read throughput vs concurrent clients (window 8)",
		"concurrent clients", scalClientsAxis,
		func(scen string, n int) (scalResult, error) { return c.scalRun(scen, n, 8) })
	if err != nil {
		return nil, err
	}
	return append(win, cli...), nil
}
