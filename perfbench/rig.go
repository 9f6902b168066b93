package main

// Rig builders shared by the cluster workloads and the rfsrv
// microbenchmarks, all from the repository's exported constructors.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

const stripe = rfsrv.DefaultStripeSize

// serverSet is N rfsrv servers over memfs backing stores, serving MX
// on endpoint 1 with 4 workers.
type serverSet struct {
	nodes   []*hw.Node
	fs      []*memfs.FS
	servers []*rfsrv.Server
}

// addServers builds n servers; replicas > 0 turns on the sharded
// namespace with that replication factor.
func addServers(c *hw.Cluster, n, replicas int) (*serverSet, error) {
	s := &serverSet{}
	for i := 0; i < n; i++ {
		node := c.AddNode(fmt.Sprintf("server%d", i))
		fs := memfs.New(fmt.Sprintf("backing%d", i), node, 0)
		srv := rfsrv.NewServer(node, fs)
		if replicas > 0 {
			fs.SetInodePartition(i, n)
			if err := srv.EnableSharding(i, n, replicas); err != nil {
				return nil, err
			}
		}
		if _, err := srv.ServeMX(mx.Attach(node), 1, 4); err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, node)
		s.fs = append(s.fs, fs)
		s.servers = append(s.servers, srv)
	}
	return s, nil
}

// viewOpts configures one client's cluster view.
type viewOpts struct {
	window   int
	replicas int
	sharded  bool
	timeout  sim.Time        // reply deadline; 0 waits forever
	peers    []*rfsrv.Server // resync peers for Reinstate
	view     *rfsrv.MemberView
	epBase   int    // first local endpoint; 0 selects 10
	mx       *mx.MX // the node's MX driver; nil attaches one
}

// newView builds a cluster client on node over every server: one
// kernel-side MX client per server on its own endpoint, one session
// per server.
func newView(p *sim.Proc, node *hw.Node, s *serverSet, o viewOpts) (*rfsrv.Cluster, error) {
	m := o.mx
	if m == nil {
		m = mx.Attach(node)
	}
	if o.epBase == 0 {
		o.epBase = 10
	}
	sessions := make([]*rfsrv.Session, len(s.nodes))
	for i, srv := range s.nodes {
		fc, err := rfsrv.NewMXClient(m, uint8(o.epBase+i), true, node.Kernel, srv.ID, 1)
		if err != nil {
			return nil, err
		}
		if o.timeout > 0 {
			fc.SetRequestTimeout(o.timeout)
		}
		if sessions[i], err = rfsrv.NewSession(p, fc, o.window); err != nil {
			return nil, err
		}
	}
	cl, err := rfsrv.NewReplicatedCluster(p, sessions, stripe, o.replicas)
	if err != nil {
		return nil, err
	}
	if o.sharded {
		if err := cl.EnableShardedNamespace(); err != nil {
			return nil, err
		}
	}
	if o.peers != nil {
		if err := cl.SetResyncPeers(o.peers); err != nil {
			return nil, err
		}
	}
	if o.view != nil {
		cl.AttachView(o.view)
	}
	return cl, nil
}

// rfCounters sums the rfsrv, orfs and page-cache counters the
// per-layer metrics are computed from.
func rfCounters(s *serverSet, views []*rfsrv.Cluster, mounts []*orfs.FS, oses []*kernel.OS) map[string]float64 {
	c := map[string]float64{}
	if s != nil {
		for _, srv := range s.servers {
			c["server_reqs"] += float64(srv.Requests.N)
		}
	}
	for _, cl := range views {
		c["meta_fanout"] += float64(cl.MetaFanout.N)
		c["setsizes"] += float64(cl.SetSizes.N)
		c["failovers"] += float64(cl.Failovers.N)
		c["resync_ops"] += float64(cl.ResyncOps.N)
		c["resync_bytes"] += float64(cl.ResyncBytes.Bytes)
		c["resync_fallbacks"] += float64(cl.ResyncFallbacks.N)
		for _, se := range cl.Sessions() {
			c["issued"] += float64(se.Issued.N)
			c["batched"] += float64(se.Batched.N)
			c["window_peak"] = max(c["window_peak"], float64(se.MaxInFlight()))
		}
	}
	for _, f := range mounts {
		c["orfs_rpcs"] += float64(f.MetaOps.N + f.ReadOps.N + f.WriteOps.N)
		c["ra_hits"] += float64(f.ReadaheadHits.N)
		c["prefetched"] += float64(f.Prefetched.N)
	}
	for _, o := range oses {
		c["pc_hits"] += float64(o.PC.HitCount.N)
		c["pc_misses"] += float64(o.PC.MissCount.N)
	}
	return c
}

// clusterLayers turns the counter deltas since the measured phase
// began into per-layer metrics.
func clusterLayers(m, before, after map[string]float64, ops, writes float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	m["rfsrv.server_reqs_per_op"] = ratio(d("server_reqs"), ops)
	m["rfsrv.meta_fanout_per_op"] = ratio(d("meta_fanout"), ops)
	m["rfsrv.setsize_per_write"] = ratio(d("setsizes"), writes)
	m["rfsrv.batched_ratio"] = ratio(d("batched"), d("issued"))
	m["rfsrv.window_peak"] = after["window_peak"]
	m["rfsrv.failovers"] = d("failovers")
	m["rfsrv.resync_ops"] = d("resync_ops")
	m["rfsrv.resync_kb"] = d("resync_bytes") / 1024
	m["rfsrv.resync_fallbacks"] = d("resync_fallbacks")
	m["orfs.rpcs_per_op"] = ratio(d("orfs_rpcs"), ops)
	m["orfs.readahead_useful_ratio"] = ratio(d("ra_hits"), d("prefetched"))
	m["kernel.pagecache_hit_ratio"] = ratio(d("pc_hits"), d("pc_hits")+d("pc_misses"))
}

// fill writes the seed-derived content of bytes [off, off+len(b)) of
// one generation of one file into b: a splitmix stream keyed by tag,
// so any range can be regenerated and checked independently.
func fill(b []byte, tag uint64, off int64) {
	word, x := ^uint64(0), uint64(0)
	for i := range b {
		pos := uint64(off) + uint64(i)
		if pos/8 != word {
			word = pos / 8
			x = tag + word*0x9E3779B97F4A7C15
			x ^= x >> 30
			x *= 0xBF58476D1CE4E5B9
			x ^= x >> 27
		}
		b[i] = byte(x >> (8 * (pos % 8)))
	}
}

func kvec(as *vm.AddressSpace, va vm.VirtAddr, n int) core.Vector {
	return core.Of(core.KernelSeg(as, va, n))
}
