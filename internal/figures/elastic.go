package figures

// This file holds the elastic-membership suite (DESIGN.md §13): one
// run that walks the full lifecycle the elastic layer promises —
// healthy traffic, a mid-run server kill, degraded operation, heal,
// journaled-replay re-admission (Reinstate replays what each client's
// journal recorded instead of refusing), and finally a live Join that
// expands the cluster from N to N+1 under load — while measuring
// aggregate client throughput in every phase.
//
// The setup is the degraded suite's replicated unsharded cluster with
// a membership view layered on: an operator cluster on its own node
// publishes a shared MemberView (initial members = the first N of N+1
// sessions; the last slot stands by), every client attaches to it, and
// the reply deadline is calibrated from a fault-free baseline exactly
// like the degraded suite. Clients stream synchronous stripe reads
// with periodic overwrites mixed in, so the exclusion window leaves
// real dirty data in the journals and Reinstate has bytes to replay.
// Synchronous ops are deliberate: a client blocked at the membership
// fence cannot retire pipelined pendings, so a Start/Wait pipeline
// against a fencing view must drain before blocking — the simple
// always-drained shape is the one the suite measures.
//
// The acceptance number is the last row: post-expansion throughput
// (N+1 servers, fresh epoch, stripes re-placed) at or above 0.9x the
// pre-kill rate — growing the cluster must not cost the steady state.

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	"repro/internal/rig"
	"repro/internal/sim"
)

const (
	// elServers is the total session count: elActive initial members
	// plus one standby slot the Join admits.
	elServers = 4
	// elActive is the initial membership width.
	elActive = 3
	// elJoiner is the standby session slot Join admits mid-run.
	elJoiner = 3
	// elVictim is the member slot the schedule kills, heals and
	// re-admits. Slot 1: a member, never the minting home (slot 0), so
	// the kill exercises failover and journaling, not namespace loss.
	elVictim = 1
	// elReplicas is the replication factor: 2 survives the kill.
	elReplicas = 2
	// elWindow is the per-server session window.
	elWindow = 4
	// elClients is the streaming client count.
	elClients = 6
	// elStripes is each client's file length in stripes: enough that
	// reads sweep the whole placement ring every few iterations.
	elStripes = 12
	// elWriteEvery mixes one stripe overwrite into every so many
	// reads, so an excluded server accumulates journaled dirty data.
	elWriteEvery = 6
)

// Phase durations (virtual). The schedule is time-driven: traffic
// runs elPreDur healthy, the victim is dark elDwellDur, clients heal
// two deadlines after the revive, the Join runs once every client is
// clean, and the run samples elTailDur of post-expansion steady state.
const (
	elPreDur   = 2 * sim.Time(1e6) // 2ms
	elDwellDur = 1 * sim.Time(1e6) // 1ms
	elTailDur  = 2 * sim.Time(1e6) // 2ms
)

// elCtl is the shared phase state between the controller proc and the
// clients (cooperative scheduling: plain fields, no locks).
type elCtl struct {
	heal bool // clients may Reinstate their exclusions now
	done bool // clients drain and exit
}

// elResult is one elastic run: per-phase timestamps, every client's
// read-completion samples, the worst request latency (deadline
// calibration), and the membership/recovery accounting.
type elResult struct {
	started, finished sim.Time
	killAt, healAt    sim.Time
	joinStart, cutAt  sim.Time
	samples           []dgSample
	maxLat            sim.Time

	failovers, reinstates, refusals int64
	resyncOps, spills               int64
	resyncBytes, migratedBytes      int64
	epoch                           uint64
	members                         []int
}

// window returns aggregate read throughput over [from, to).
func (r *elResult) window(from, to sim.Time) float64 {
	var b int
	for _, s := range r.samples {
		if s.at >= from && s.at < to {
			b += s.bytes
		}
	}
	return mbps(b, to-from)
}

// elClient streams synchronous stripe reads (with periodic stripe
// overwrites) through cl against its own file until the controller
// flags done (or the run fails), re-admitting its exclusions once heal
// is up.
func elClient(p *sim.Proc, r *rig.Rig, cl *rfsrv.Cluster, ino kernel.InodeID, ctl *elCtl, res *elResult) error {
	node := cl.Node()
	va, err := node.Kernel.Mmap(rig.Chunk, "el-buf")
	if err != nil {
		return err
	}
	buf := vecKernel(node.Kernel, va, rig.Chunk)
	for k := 0; !ctl.done && !r.Failed(); k++ {
		if ctl.heal {
			for _, s := range cl.DownServers() {
				// A replay interrupted by residual timeouts keeps the
				// journal and is retried on the next pass.
				if err := cl.Reinstate(p, s); err != nil {
					break
				}
			}
		}
		issued := p.Now()
		resp, err := cl.Read(p, ino, int64(k%elStripes)*rig.Chunk, buf)
		if err != nil {
			return err
		}
		res.maxLat = max(res.maxLat, p.Now()-issued)
		res.samples = append(res.samples, dgSample{at: p.Now(), bytes: int(resp.N)})
		if k%elWriteEvery == elWriteEvery-1 {
			// Rotate overwrites with a stride coprime to the stripe
			// count, so dirty data spreads across the placement ring.
			issued := p.Now()
			if _, err := cl.Write(p, ino, int64((k*5)%elStripes)*rig.Chunk, buf); err != nil {
				return err
			}
			res.maxLat = max(res.maxLat, p.Now()-issued)
		}
	}
	return nil
}

// elRun executes one elastic lifecycle on a fresh simulated cluster.
// timeout == 0 runs the fault-free calibration baseline: no kill, no
// join, just elPreDur+elTailDur of healthy traffic measuring makespan
// throughput and worst latency.
func (c Config) elRun(timeout sim.Time) (*elResult, error) {
	r := rig.New(c.Trace)
	if err := r.AddServers(elServers, 0); err != nil {
		return nil, err
	}
	opNode := r.HW.AddNode("operator")
	opts := rig.Opts{Window: elWindow, Replicas: elReplicas, Timeout: timeout, Resync: true}

	res := &elResult{}
	ctl := &elCtl{}
	clusters := make([]*rfsrv.Cluster, elClients)
	r.Go("el-setup", func(p *sim.Proc) error {
		// Seed the initial members only: the standby slot's store is
		// rebuilt by the Join from the authoritative snapshot.
		inos, err := r.Seed(p, elActive, elClients, elStripes*rig.Chunk, elReplicas)
		if err != nil {
			return err
		}
		// The operator cluster publishes the shared membership view
		// (members = the first elActive slots) and holds the bulk
		// resync channel for the Join's store rebuild.
		op, err := r.View(p, mx.Attach(opNode), opts)
		if err != nil {
			return err
		}
		if err := op.SetMembers(elActive); err != nil {
			return err
		}
		view := op.ShareView()
		res.started = p.Now()
		for i := 0; i < elClients; i++ {
			i := i
			node := r.HW.AddNode(fmt.Sprintf("client%d", i))
			r.Go(fmt.Sprintf("el-c%d", i), func(p *sim.Proc) error {
				o := opts
				o.View = view
				cl, err := r.View(p, mx.Attach(node), o)
				if err != nil {
					return err
				}
				clusters[i] = cl
				return elClient(p, r, cl, inos[i], ctl, res)
			})
		}
		r.Go("el-controller", func(p *sim.Proc) error {
			return elControl(p, r, op, view, clusters, timeout, ctl, res)
		})
		return nil
	})
	if err := r.Run(0, elClients+2); err != nil {
		return nil, fmt.Errorf("figures: elastic: %w", err)
	}
	res.finished = r.Finished
	for _, cluster := range clusters {
		res.failovers += cluster.Failovers.N
		res.reinstates += cluster.Reinstates.N
		res.refusals += cluster.ReinstateRefusals.N
		res.resyncOps += cluster.ResyncOps.N
		res.resyncBytes += cluster.ResyncBytes.Bytes
		res.spills += cluster.ResyncSpills.N
	}
	return res, nil
}

// elControl is the time-driven schedule of a run: healthy traffic,
// then (timeout > 0) the victim's kill, revive, the clients' heal, and
// the Join under load, then the post-expansion tail; it flags the
// clients done at the end.
func elControl(p *sim.Proc, r *rig.Rig, op *rfsrv.Cluster, view *rfsrv.MemberView, clusters []*rfsrv.Cluster, timeout sim.Time, ctl *elCtl, res *elResult) error {
	defer func() { ctl.done = true }()
	p.Sleep(elPreDur)
	if timeout == 0 {
		// Baseline: healthy traffic only.
		p.Sleep(elTailDur)
		return nil
	}
	res.killAt = p.Now()
	r.Nodes[elVictim].NIC.Kill()
	p.Sleep(elDwellDur)
	r.Nodes[elVictim].NIC.Revive()
	// Two deadlines: every flight lost to the kill has expired and
	// late frames have drained; then clients re-admit via journal
	// replay.
	p.Sleep(2 * timeout)
	res.healAt = p.Now()
	ctl.heal = true
	for polls := 0; ; polls++ {
		if r.Failed() {
			return nil
		}
		clean := true
		for _, cluster := range clusters {
			if cluster == nil || len(cluster.DownServers()) > 0 {
				clean = false
				break
			}
		}
		if clean {
			break
		}
		if polls > 400 {
			state := ""
			for i, cluster := range clusters {
				if cluster != nil {
					state += fmt.Sprintf(" c%d:down=%v reinst=%d refus=%d", i,
						cluster.DownServers(), cluster.Reinstates.N, cluster.ReinstateRefusals.N)
				}
			}
			return fmt.Errorf("figures: elastic clients never healed:%s", state)
		}
		p.Sleep(50 * sim.Time(1e3))
	}
	// Expand N -> N+1 under load: online stripe migration, then the
	// epoch cutover every attached client adopts.
	res.joinStart = p.Now()
	if err := op.Join(p, elJoiner); err != nil {
		return fmt.Errorf("join of standby slot %d: %w", elJoiner, err)
	}
	res.cutAt = p.Now()
	res.epoch = view.Epoch()
	res.members = view.Members()
	res.migratedBytes = op.Migrated.Bytes
	p.Sleep(elTailDur)
	return nil
}

// elPhases derives the per-phase throughput rows of a faulted run:
// pre-kill, degraded (post-settle, victim dark or excluded), and
// post-expansion steady state.
func elPhases(res *elResult, timeout sim.Time) (pre, degraded, post float64) {
	pre = res.window(res.started, res.killAt)
	degraded = res.window(res.killAt+timeout, res.healAt)
	post = res.window(res.cutAt, res.finished)
	return
}

// ElasticStats carries the elastic suite's raw numbers for the
// machine-readable benchmark snapshot (cmd/figures -json).
type ElasticStats struct {
	PreMBps, DegradedMBps, PostMBps float64
	Reinstates, Refusals, Spills    int64
	ResyncOps                       int64
	ResyncBytes, MigratedBytes      int64
	Epoch                           uint64
	Members                         []int
}

// Elastic runs the elastic-membership lifecycle and returns its two
// tables — per-phase aggregate throughput across kill, heal,
// journaled-replay re-admission and live N->N+1 expansion, and the
// recovery/migration accounting behind it — plus the raw stats for
// the benchmark snapshot.
func (c Config) Elastic() ([]*Table, *ElasticStats, error) {
	base, err := c.elRun(0)
	if err != nil {
		return nil, nil, err
	}
	timeout := base.maxLat * 5 / 2
	res, err := c.elRun(timeout)
	if err != nil {
		return nil, nil, err
	}
	pre, degraded, post := elPhases(res, timeout)
	baseline := base.window(base.started, base.finished)
	phases := &Table{
		ID: "elastic",
		Title: fmt.Sprintf("Elastic membership: throughput across kill -> heal -> replayed re-admission -> Join %d->%d under load (%d clients, R=%d, deadline 2.5x max fault-free latency)",
			elActive, elActive+1, elClients, elReplicas),
		Columns: []string{"phase", "servers", "window ms", "MB/s", "vs pre-kill"},
		Rows: [][]string{
			{"fault-free baseline", fmt.Sprintf("%d", elActive),
				fmt.Sprintf("%.1f", ms(base.finished-base.started)),
				fmt.Sprintf("%.1f", baseline), "-"},
			{"pre-kill", fmt.Sprintf("%d", elActive),
				fmt.Sprintf("%.1f", ms(res.killAt-res.started)),
				fmt.Sprintf("%.1f", pre), "1.00"},
			{"degraded (victim excluded)", fmt.Sprintf("%d", elActive-1),
				fmt.Sprintf("%.1f", ms(res.healAt-res.killAt-timeout)),
				fmt.Sprintf("%.1f", degraded), fmt.Sprintf("%.2f", degraded/pre)},
			{"post-expansion", fmt.Sprintf("%d", elActive+1),
				fmt.Sprintf("%.1f", ms(res.finished-res.cutAt)),
				fmt.Sprintf("%.1f", post), fmt.Sprintf("%.2f", post/pre)},
		},
		Expected: "beyond the paper (its platform is static): the kill degrades " +
			"throughput, journaled replay re-admits the healed server without an " +
			"out-of-band resync, and the live Join restores at least 0.9x the " +
			"pre-kill rate on the expanded cluster",
	}
	accounting := &Table{
		ID:    "elastic-recovery",
		Title: "Elastic membership: recovery and migration accounting of the run above",
		Columns: []string{"reinstates", "refusals", "resync ops", "resync KB",
			"spills", "join migrated KB", "epoch", "members"},
		Rows: [][]string{{
			fmt.Sprintf("%d", res.reinstates),
			fmt.Sprintf("%d", res.refusals),
			fmt.Sprintf("%d", res.resyncOps),
			fmt.Sprintf("%.0f", float64(res.resyncBytes)/1024),
			fmt.Sprintf("%d", res.spills),
			fmt.Sprintf("%.0f", float64(res.migratedBytes)/1024),
			fmt.Sprintf("%d", res.epoch),
			fmt.Sprintf("%v", res.members),
		}},
		Expected: "every exclusion re-admits through journal replay (no refusals, " +
			"no spills, resync bytes > 0 from the overwrites the victim missed), " +
			"and the Join migrates every stripe the joiner now owns",
	}
	stats := &ElasticStats{
		PreMBps: pre, DegradedMBps: degraded, PostMBps: post,
		Reinstates: res.reinstates, Refusals: res.refusals, Spills: res.spills,
		ResyncOps: res.resyncOps, ResyncBytes: res.resyncBytes,
		MigratedBytes: res.migratedBytes, Epoch: res.epoch, Members: res.members,
	}
	return []*Table{phases, accounting}, stats, nil
}

// ms renders a virtual duration in milliseconds.
func ms(d sim.Time) float64 { return float64(d) / 1e6 }
