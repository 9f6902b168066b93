package figures

// This file holds the striped multi-server suite: the axis PR 2 could
// not move. Pipelining saturated ONE server's 250 MB/s link; here the
// same workloads stripe their data across 1..8 rfsrv (or NBD) servers
// through rfsrv.Cluster / nbd.NewStripedDevice, with enough concurrent
// clients that aggregate throughput is limited by server links, not by
// a single client NIC. Three scenarios, as in the scalability suite:
//
//   - orfs-direct:   64 KB O_DIRECT chunk reads through the striped
//     cluster's windows (one chunk = one stripe, chunks round-robin
//     across servers);
//   - orfs-buffered: page-cache reads with ORFS readahead prefetching
//     through the cluster's aggregate window;
//   - nbd:           buffered reads of a block-striped device, the
//     page cache combining enough pages per miss to span every server.
//
// Every point runs at the scalability suite's best window (8 per
// server) with a fixed client count, so the single moving variable is
// the server count. The one-server configuration is the cluster code
// path end to end, and is bit-identical to driving a plain Session
// (rfsrv.TestClusterOneServerMatchesSession guards the client layer,
// TestMultiServerOneServerMatchesScalability the whole harness).

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mx"
	"repro/internal/nbd"
	"repro/internal/orfs"
	"repro/internal/rig"
	"repro/internal/sim"
)

const (
	// msWindow is the per-server window: the best window from the PR 2
	// scalability sweep (window 8 saturates one link).
	msWindow = 8
	// msClients is the fixed client count: enough client NICs that
	// 8 server links can in principle be kept busy (each link is
	// 250 MB/s on both sides).
	msClients = 8
)

// msServersAxis is the swept server count.
var msServersAxis = []int{1, 2, 4, 8}

// msRun executes one scenario at one (servers, clients) point.
func (c Config) msRun(scenario string, servers, clients int) (scalResult, error) {
	return c.readRun(msClient, scenario, servers, clients, msWindow)
}

// msClient is the multiserver suite's readClient: a striped view over
// every server (a block-striped device for nbd).
func msClient(p *sim.Proc, r *rig.Rig, scenario string, node *hw.Node, blockServers []hw.NodeID, inos []kernel.InodeID, i, window int) ([]sim.Time, error) {
	switch scenario {
	case "orfs-direct":
		cluster, err := r.View(p, mx.Attach(node), rig.Opts{Window: window})
		if err != nil {
			return nil, err
		}
		return streamLatencies(p, node, cluster, inos[i], scalFilePerCli)

	case "orfs-buffered":
		cluster, err := r.View(p, mx.Attach(node), rig.Opts{Window: window})
		if err != nil {
			return nil, err
		}
		osys := kernel.NewOS(node, 0)
		fs := orfs.New("orfs", cluster)
		r.AtEnd(fs.Quiesce)
		osys.Mount("/mnt", fs)
		return scalBufferedReads(p, node, osys, fmt.Sprintf("/mnt/f%d", i), 0)

	case "nbd":
		m := mx.Attach(node)
		totalBlocks := len(inos) * scalFilePerCli / nbd.BlockSize
		cls := make([]*nbd.Client, len(blockServers))
		for j, sid := range blockServers {
			bc, err := nbd.NewClient(m, uint8(10+j), sid, 1, totalBlocks)
			if err != nil {
				return nil, err
			}
			if err := bc.SetWindow(window); err != nil {
				return nil, err
			}
			cls[j] = bc
		}
		dev, err := nbd.NewStripedDevice(cls)
		if err != nil {
			return nil, err
		}
		osys := kernel.NewOS(node, 0)
		// Combine enough device pages per miss that the resulting block
		// queue spans every server's window.
		osys.SetReadChunkPages(window * len(blockServers))
		osys.Mount("/dev", dev)
		return scalBufferedReads(p, node, osys, "/dev/disk", int64(i)*scalFilePerCli)
	}
	return nil, fmt.Errorf("figures: unknown multiserver scenario %q", scenario)
}

// MultiServer runs the whole suite and returns two figures: aggregate
// throughput and p50/p99 request latency against the server count,
// with the window and client count fixed.
func (c Config) MultiServer() ([]*Figure, error) {
	bwSeries, latSeries, err := readSweep(msServersAxis, func(scen string, s int) (scalResult, error) {
		return c.msRun(scen, s, msClients)
	})
	if err != nil {
		return nil, err
	}
	bwFig := &Figure{
		ID:     "multiserver",
		Title:  fmt.Sprintf("Aggregate striped-read throughput vs server count (%d clients, window %d, %d KB stripes)", msClients, msWindow, rig.Chunk/1024),
		XLabel: "servers (data striped across)", YLabel: "aggregate throughput (MB/s)",
		Series: bwSeries,
		Expected: "beyond the paper: its platform serves every client from one node; " +
			"striping should scale aggregate bandwidth with the server count until " +
			"client links saturate",
	}
	latFig := &Figure{
		ID:     "multiserver-lat",
		Title:  "Striped-read request latency vs server count",
		XLabel: "servers (data striped across)", YLabel: "latency p50/p99 (µs)",
		Series: latSeries,
		Expected: "more servers drain the same per-client window faster, so request " +
			"latency falls as the cluster widens",
	}
	return []*Figure{bwFig, latFig}, nil
}
