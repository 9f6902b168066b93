package main

// fault-churn: a smaller mix of namespace and stripe data ops from 3
// clients on the sharded R=2 cluster with a 5 ms reply deadline, while
// a seeded schedule kills or stalls one server NIC at a time, revives
// it, lets the clients re-admit it with Cluster.Reinstate (journal
// replay), and an operator bounces one member through Cluster.Bounce.
// It is the only workload that runs failover, exclusion, the resync
// journal, replay and migration. The schedule follows the torture
// harness's data mode: a victim is struck only if every owner group
// keeps a reachable member in every client's view, so every op is
// expected to succeed and every byte to survive.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/rfsrv"
	"repro/internal/sim"
)

const (
	fcClients     = 3
	fcOps         = 350 // per client
	fcDirs        = 2
	fcInitFiles   = 3
	fcTimeout     = 5 * time.Millisecond
	fcMaxFileSize = 256 << 10
	fcMinData     = 4 << 10
	fcMaxData     = 64 << 10
	fcTick        = 100 * time.Microsecond
)

// fcMix is fault-churn's op mix: meta-storm's namespace kinds beside
// stripe reads and writes.
var fcMix = []weighted{
	{opCreate, 12}, {opLookup, 9}, {opGetattr, 9}, {opReaddir, 3},
	{opRename, 6}, {opUnlink, 5}, {opBatch, 6},
	{opStripeRead, 25}, {opStripeWrite, 25},
}

type fcFault struct {
	at      sim.Time
	sampled []bool
}

type faultChurnWL struct {
	srv      *serverSet
	clients  []*nsClient
	operator *rfsrv.Cluster
	view     *rfsrv.MemberView
	schedRng *rand.Rand
	bncRng   *rand.Rand
	before   map[string]float64

	clientsLive    int
	procsLive      int // schedule and membership processes still running
	nicDown        []bool
	memberBusy     bool
	lastFaultClear sim.Time
	faults         []*fcFault
	recovery       []sim.Time
	kills, stalls  int
	bounces        int
}

func (w *faultChurnWL) setup(r *run, p *sim.Proc) error {
	var err error
	if w.srv, err = addServers(r.hwc, msServers, msReplicas); err != nil {
		return err
	}
	w.nicDown = make([]bool, msServers)
	opNode := r.hwc.AddNode("operator")
	o := viewOpts{window: msWindow, replicas: msReplicas, sharded: true, timeout: fcTimeout, peers: w.srv.servers}
	if w.operator, err = newView(p, opNode, w.srv, o); err != nil {
		return err
	}
	w.view = w.operator.ShareView()
	o.view = w.view
	for i := 0; i < fcClients; i++ {
		c := &nsClient{idx: i, node: r.hwc.AddNode(fmt.Sprintf("client%d", i)), rng: rand.New(rand.NewSource(r.rng.Int63()))}
		c.plan = plan(c.rng, fcOps, fcMix)
		c.sizes = strata(c.rng, fcOps*35/100, fcMinData, fcMaxData)
		if err := nsSetup(r, p, c, w.srv, o, fcDirs, fcInitFiles); err != nil {
			return err
		}
		w.clients = append(w.clients, c)
	}
	w.schedRng = rand.New(rand.NewSource(r.rng.Int63()))
	w.bncRng = rand.New(rand.NewSource(r.rng.Int63()))
	return nil
}

func (w *faultChurnWL) start(r *run) {
	w.before = w.counters()
	w.clientsLive = len(w.clients)
	for _, c := range w.clients {
		r.live++
		r.env.Spawn(fmt.Sprintf("fc-client%d", c.idx), func(p *sim.Proc) {
			defer func() { r.live--; w.clientsLive-- }()
			for k, kind := range c.plan {
				if k%8 == 0 {
					w.reinstate(r, p, c)
				}
				switch kind {
				case opStripeRead:
					w.dataRead(r, p, c)
				case opStripeWrite:
					f := c.pickFile()
					off, n := c.writeRange(f, c.nextSize(), fcMaxFileSize)
					c.write(r, p, "stripe-write", f, off, n)
				default:
					c.nsOp(r, p, kind)
				}
				if r.lastOK[c.idx] == p.Now() {
					w.sampleRecovery(c, p.Now())
				}
			}
		})
	}
	w.procsLive = 2
	r.env.Spawn("fc-schedule", func(p *sim.Proc) { w.schedule(r, p); w.procsLive-- })
	r.env.Spawn("fc-membership", func(p *sim.Proc) { w.membership(r, p); w.procsLive-- })
}

// dataRead reads up to one stripe of a non-empty file and checks the
// bytes against the model.
func (w *faultChurnWL) dataRead(r *run, p *sim.Proc, c *nsClient) {
	f := c.pickFile()
	if len(f.data) == 0 {
		off, n := c.writeRange(f, c.nextSize(), fcMaxFileSize)
		c.write(r, p, "stripe-write", f, off, n)
		return
	}
	off := c.rng.Int63n(int64(len(f.data)))
	n := int(min(fcMaxData, int64(len(f.data))-off))
	o := r.beginOp(p, c.idx, "stripe-read")
	sp := r.call(p, o, "rfsrv", "Cluster.Read")
	resp, err := c.cl.Read(p, f.ino, off, kvec(c.node.Kernel, c.va, n))
	r.tr.end(p, sp)
	if err == nil && int(resp.N) != n {
		err = fmt.Errorf("read %s/%s [%d,+%d) returned %d bytes", f.dir.name, f.name, off, n, resp.N)
	}
	r.endOp(p, o, int64(n), err)
	if err != nil {
		return
	}
	if err := c.node.Kernel.ReadBytesInto(c.va, c.scratch[:n]); err != nil || !bytes.Equal(c.scratch[:n], f.data[off:off+int64(n)]) {
		r.mismatch("client %d: read %s/%s [%d,+%d) returned wrong bytes", c.idx, f.dir.name, f.name, off, n)
	}
}

// sampleRecovery records, for each fault this client has not yet
// sampled, the time from the fault to this client's first completed op.
func (w *faultChurnWL) sampleRecovery(c *nsClient, now sim.Time) {
	for _, f := range w.faults {
		if !f.sampled[c.idx] && now > f.at {
			f.sampled[c.idx] = true
			w.recovery = append(w.recovery, now-f.at)
		}
	}
}

// reinstate re-admits every server this client excluded whose NIC is
// back; a refused or interrupted replay is retried on a later op.
func (w *faultChurnWL) reinstate(r *run, p *sim.Proc, c *nsClient) {
	for _, s := range c.cl.DownServers() {
		if w.nicDown[s] {
			continue
		}
		sp := r.tr.begin(p, "rfsrv", "Cluster.Reinstate", 0, c.idx, -1)
		_ = c.cl.Reinstate(p, s) // a failed replay keeps its journal; the audit reports what never heals
		r.tr.end(p, sp)
	}
}

// victimSafe reports whether striking v keeps every owner group
// reachable in every client's view.
func (w *faultChurnWL) victimSafe(v int) bool {
	dark := uint64(1) << uint(v)
	for s, down := range w.nicDown {
		if down {
			dark |= 1 << uint(s)
		}
	}
	for _, c := range w.clients {
		excl := dark
		for _, s := range c.cl.DownServers() {
			excl |= 1 << uint(s)
		}
		for res := 0; res < msServers; res++ {
			var group uint64
			for j := 0; j < msReplicas; j++ {
				group |= 1 << uint((res+j)%msServers)
			}
			if excl&group == group {
				return false
			}
		}
	}
	return true
}

// schedule kills or stalls one server NIC at a time while the clients
// run, with a quarantine after each fault so exclusions settle.
func (w *faultChurnWL) schedule(r *run, p *sim.Proc) {
	rng := w.schedRng
	for w.clientsLive > 0 {
		p.Sleep(time.Duration(300+rng.Intn(1700)) * time.Microsecond)
		if w.clientsLive == 0 {
			break
		}
		if w.memberBusy {
			continue
		}
		victim := -1
		for _, v := range rng.Perm(msServers) {
			if !w.nicDown[v] && w.victimSafe(v) {
				victim = v
				break
			}
		}
		if victim < 0 {
			continue
		}
		nic := w.srv.nodes[victim].NIC
		w.nicDown[victim] = true
		w.faults = append(w.faults, &fcFault{at: p.Now(), sampled: make([]bool, len(w.clients))})
		if rng.Intn(100) < 60 {
			w.kills++
			nic.Kill()
			p.Sleep(time.Duration(500+rng.Intn(1500)) * time.Microsecond)
			nic.Revive()
		} else {
			w.stalls++
			d := fcTimeout + time.Duration(500+rng.Intn(1500))*time.Microsecond
			nic.StallFor(d)
			p.Sleep(d)
		}
		w.nicDown[victim] = false
		w.lastFaultClear = p.Now()
		p.Sleep(fcTimeout + 300*time.Microsecond)
	}
}

// membership bounces a random member through the stop-world
// retire-and-rejoin path whenever the cluster is quiet: no dark NIC, no
// client-side exclusion, and residual timeouts drained.
func (w *faultChurnWL) membership(r *run, p *sim.Proc) {
	rng := w.bncRng
	for w.clientsLive > 0 {
		p.Sleep(time.Duration(3000+rng.Intn(5000)) * time.Microsecond)
		if w.clientsLive == 0 {
			return
		}
		w.memberBusy = true
		for !w.quiet(p.Now()) {
			p.Sleep(fcTick)
			if w.clientsLive == 0 {
				w.memberBusy = false
				return
			}
		}
		v := rng.Intn(msServers)
		sp := r.tr.begin(p, "rfsrv", "Cluster.Bounce", 0, -1, -1)
		err := w.operator.Bounce(p, v)
		r.tr.end(p, sp)
		if err != nil {
			r.mismatch("bounce of server %d: %v", v, err)
		}
		w.bounces++
		w.memberBusy = false
	}
}

func (w *faultChurnWL) quiet(now sim.Time) bool {
	if now-w.lastFaultClear < 2*fcTimeout {
		return false
	}
	for _, down := range w.nicDown {
		if down {
			return false
		}
	}
	for _, c := range w.clients {
		if len(c.cl.DownServers()) > 0 {
			return false
		}
	}
	return true
}

func (w *faultChurnWL) counters() map[string]float64 {
	views := make([]*rfsrv.Cluster, 0, len(w.clients))
	for _, c := range w.clients {
		views = append(views, c.cl)
	}
	return rfCounters(w.srv, views, nil, nil)
}

// audit runs once the schedule has revived its last victim: it lets
// late frames and armed deadlines drain, re-admits every excluded
// server, then lists every directory and reads every file back.
func (w *faultChurnWL) audit(r *run, p *sim.Proc) {
	if w.procsLive > 0 {
		r.mismatch("fault schedule still running after the clients finished")
		return
	}
	p.Sleep(2*fcTimeout + 500*time.Microsecond)
	for _, c := range w.clients {
		for try := 0; try < 3 && len(c.cl.DownServers()) > 0; try++ {
			for _, s := range c.cl.DownServers() {
				if err := c.cl.Reinstate(p, s); err != nil && try == 2 {
					r.mismatch("client %d: reinstate of server %d at end of run: %v", c.idx, s, err)
				}
			}
		}
		c.auditNS(r, p, true)
	}
}

func (w *faultChurnWL) layers(m map[string]float64, ops float64) {
	writes := 0
	for _, c := range w.clients {
		writes += c.writes
	}
	clusterLayers(m, w.before, w.counters(), ops, float64(writes))
	rec := durUs(w.recovery)
	m["rfsrv.recovery_p50_us"] = quantile(rec, 0.5)
	if len(rec) > 0 {
		m["rfsrv.recovery_max_us"] = rec[len(rec)-1]
	}
	m["faults.kills"] = float64(w.kills)
	m["faults.stalls"] = float64(w.stalls)
	m["faults.bounces"] = float64(w.bounces)
}
