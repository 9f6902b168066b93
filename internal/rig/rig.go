// Package rig builds the one simulated topology every rfsrv cluster
// experiment shares: memfs-backed rfsrv servers on a PCI-XD MX fabric,
// client views of them, a server-side striped seed, a pipelined-read
// loop, and a run harness that ends every run with clean-ending
// checks. The cluster figures, the torture harness and the rfsrv
// cluster tests all build on it, so each states only what makes it
// different: its server count, its view options, its workload.
//
// The rig adds no simulated work of its own. Callers still decide when
// nodes are created, drivers attached and procs spawned — that order
// is part of every figure's bit-identical output.
package rig

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Chunk is the request size of StreamReads and the stripe unit of Seed:
// one default stripe, so a striped cluster maps each chunk onto exactly
// one server and consecutive chunks round-robin.
const Chunk = rfsrv.DefaultStripeSize

// Rig is one simulated cluster: an engine, its fabric, the server set,
// and the run harness's state.
type Rig struct {
	Env *sim.Engine
	HW  *hw.Cluster

	// The server set, index-aligned: server i runs on Nodes[i], backed
	// by FS[i].
	Nodes   []*hw.Node
	FS      []*memfs.FS
	Servers []*rfsrv.Server

	// Finished is the latest virtual time a Go proc returned nil; Done
	// counts those procs.
	Finished sim.Time
	Done     int

	err      error
	atEnd    []func(p *sim.Proc) error
	sessions []*rfsrv.Session // every session built, for CheckEnd
}

// New creates an empty rig on a fresh engine. trace, when non-nil,
// receives the engine's trace records.
func New(trace func(t sim.Time, format string, args ...any)) *Rig {
	env := sim.NewEngine()
	if trace != nil {
		env.SetTrace(trace)
	}
	return &Rig{Env: env, HW: hw.NewCluster(env, hw.DefaultParams(), hw.PCIXD)}
}

// AddServers adds n servers, each on its own node with a memfs backing
// store, serving MX endpoint 1 with 4 workers. replicas > 0 shards the
// namespace over them (directory-owned metadata, owner groups of that
// size) with inode minting partitioned by server; 0 leaves every server
// holding the whole replicated namespace.
func (r *Rig) AddServers(n, replicas int) error {
	for i := 0; i < n; i++ {
		node := r.HW.AddNode(fmt.Sprintf("server%d", i))
		fs := memfs.New(fmt.Sprintf("backing%d", i), node, 0)
		srv := rfsrv.NewServer(node, fs)
		if replicas > 0 {
			fs.SetInodePartition(i, n)
			if err := srv.EnableSharding(i, n, replicas); err != nil {
				return err
			}
		}
		if _, err := srv.ServeMX(mx.Attach(node), 1, 4); err != nil {
			return err
		}
		r.Nodes = append(r.Nodes, node)
		r.FS = append(r.FS, fs)
		r.Servers = append(r.Servers, srv)
	}
	return nil
}

// Opts configures one client view of the server set.
type Opts struct {
	Window   int               // per-server session window
	Stripe   int               // stripe width; 0 selects rfsrv.DefaultStripeSize
	Replicas int               // replication factor; 0 means 1
	Sharded  bool              // directory-owned namespace routing
	Timeout  sim.Time          // per-request reply deadline; 0 waits forever
	Resync   bool              // the rig's servers as resync peers (Reinstate, Join)
	View     *rfsrv.MemberView // shared membership view to follow
	EP       int               // first local endpoint; 0 selects 10
}

// Sessions opens one kernel-side MX client per server on m's node, on
// consecutive endpoints from o.EP, each wrapped in a session of window
// o.Window with o.Timeout armed.
func (r *Rig) Sessions(p *sim.Proc, m *mx.MX, o Opts) ([]*rfsrv.Session, error) {
	ep := o.EP
	if ep == 0 {
		ep = 10
	}
	node := m.Node()
	sessions := make([]*rfsrv.Session, len(r.Nodes))
	for i, srv := range r.Nodes {
		fc, err := rfsrv.NewMXClient(m, uint8(ep+i), true, node.Kernel, srv.ID, 1)
		if err != nil {
			return nil, err
		}
		if o.Timeout > 0 {
			fc.SetRequestTimeout(o.Timeout)
		}
		if sessions[i], err = rfsrv.NewSession(p, fc, o.Window); err != nil {
			return nil, err
		}
		r.sessions = append(r.sessions, sessions[i])
	}
	return sessions, nil
}

// View builds a striped, replicated cluster client over every server
// from m's node: Sessions, then the cluster with o's stripe, replicas,
// namespace routing, resync peers and membership view.
func (r *Rig) View(p *sim.Proc, m *mx.MX, o Opts) (*rfsrv.Cluster, error) {
	sessions, err := r.Sessions(p, m, o)
	if err != nil {
		return nil, err
	}
	cl, err := rfsrv.NewReplicatedCluster(p, sessions, o.Stripe, max(o.Replicas, 1))
	if err != nil {
		return nil, err
	}
	if o.Sharded {
		if err := cl.EnableShardedNamespace(); err != nil {
			return nil, err
		}
	}
	if o.Resync {
		if err := cl.SetResyncPeers(r.Servers); err != nil {
			return nil, err
		}
	}
	if o.View != nil {
		cl.AttachView(o.View)
	}
	return cl, nil
}

// Seed creates files f0..f(files-1) of size bytes on the first width
// servers, server-side, in the layout a replicated striped cluster
// client's own writes would leave: the namespace replicated in the same
// creation order everywhere (so inode numbers agree), stripe k written
// to servers (k mod width)..(k mod width)+replicas-1 at its global
// offset, and every copy extended to the full size. Seeding server-side
// keeps setup cost out of the measurement. It returns the inodes.
func (r *Rig) Seed(p *sim.Proc, width, files, size, replicas int) ([]kernel.InodeID, error) {
	inos := make([]kernel.InodeID, files)
	for j, fs := range r.FS[:width] {
		k := r.Nodes[j].Kernel
		seedVA, err := k.Mmap(Chunk, "seed")
		if err != nil {
			return nil, err
		}
		for i := range inos {
			attr, err := fs.Create(p, fs.Root(), fmt.Sprintf("f%d", i))
			if err != nil {
				return nil, err
			}
			if j == 0 {
				inos[i] = attr.Ino
			} else if attr.Ino != inos[i] {
				return nil, fmt.Errorf("rig: seed inode divergence (%d vs %d)", attr.Ino, inos[i])
			}
			for s := 0; s < size/Chunk; s++ {
				if (j-s%width+width)%width >= replicas {
					continue
				}
				if _, err := fs.WriteDirect(p, attr.Ino, int64(s)*Chunk, kvec(k, seedVA, Chunk)); err != nil {
					return nil, err
				}
			}
			if err := fs.Truncate(p, attr.Ino, int64(size)); err != nil {
				return nil, err
			}
		}
	}
	return inos, nil
}

// StreamReads reads bytes [0, size) of ino through a in Chunk-sized
// requests, sliding a's window: one buffer per window slot so
// transfers never share staging, pendings retired in issue order, and
// issues paced with CanStart so a full per-server window retires the
// oldest chunk instead of blocking the pipeline. done sees every
// retired request with its reply.
func StreamReads(p *sim.Proc, node *hw.Node, a rfsrv.Async, ino kernel.InodeID, size int, done func(pd rfsrv.PendingOp, resp *rfsrv.Resp)) error {
	window := a.Window()
	bufs := make([]core.Vector, window)
	for i := range bufs {
		va, err := node.Kernel.Mmap(Chunk, "stream-buf")
		if err != nil {
			return err
		}
		bufs[i] = kvec(node.Kernel, va, Chunk)
	}
	var q []rfsrv.PendingOp
	retire := func(pd rfsrv.PendingOp) error {
		resp, err := pd.Wait(p)
		if err != nil {
			return err
		}
		done(pd, resp)
		return nil
	}
	for issued := 0; issued < size/Chunk; issued++ {
		off := int64(issued) * Chunk
		for len(q) > 0 && (len(q) == window || !a.CanStart(ino, off, Chunk)) {
			pd := q[0]
			q = q[1:]
			if err := retire(pd); err != nil {
				return err
			}
		}
		pd, err := a.StartRead(p, ino, off, bufs[issued%window])
		if err != nil {
			return err
		}
		q = append(q, pd)
	}
	for _, pd := range q {
		if err := retire(pd); err != nil {
			return err
		}
	}
	return nil
}

// Go spawns a proc running body. A non-nil error latches the run's
// first failure; a nil return stamps Finished and counts toward Done.
func (r *Rig) Go(name string, body func(p *sim.Proc) error) {
	r.Env.Spawn(name, func(p *sim.Proc) {
		if err := body(p); err != nil {
			r.fail(err)
			return
		}
		r.Finished = max(r.Finished, p.Now())
		r.Done++
	})
}

func (r *Rig) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failed reports whether a Go proc has failed, so long-running procs
// can wind down early.
func (r *Rig) Failed() bool { return r.err != nil }

// AtEnd queues fn for the end of a successful run: it runs, in queue
// order in one proc, once the events drain with every Go proc done —
// for audits of the final state and teardown that must stay out of
// the measurement (Finished and Done ignore it). An error fails the
// run.
func (r *Rig) AtEnd(fn func(p *sim.Proc) error) { r.atEnd = append(r.atEnd, fn) }

// Run processes events until the queue drains or, with budget > 0, the
// virtual clock passes budget. It then checks that exactly want Go
// procs finished, runs the AtEnd steps, and returns the first failure,
// else CheckEnd's verdict.
func (r *Rig) Run(budget sim.Time, want int) error {
	r.Env.Run(budget)
	if r.err == nil && r.Done != want {
		r.err = fmt.Errorf("rig: %d/%d procs finished", r.Done, want)
	}
	if r.err == nil && len(r.atEnd) > 0 {
		ended := false
		r.Env.Spawn("rig-at-end", func(p *sim.Proc) {
			for _, fn := range r.atEnd {
				if err := fn(p); err != nil {
					r.fail(err)
					return
				}
			}
			ended = true
		})
		r.Env.Run(budget)
		if !ended {
			r.fail(fmt.Errorf("rig: end-of-run steps did not finish"))
		}
	}
	if r.err != nil {
		return r.err
	}
	return r.CheckEnd()
}

// CheckEnd asserts the run ended clean: no node's fabric pool holds a
// buffer that can never recycle (poisoned, or released but still
// pinned), and every session the rig built has retired all its
// pendings.
func (r *Rig) CheckEnd() error {
	for _, n := range r.HW.Nodes() {
		if err := fabric.PoolOf(n).CheckLeaks(); err != nil {
			return fmt.Errorf("rig: node %s: %w", n.Name, err)
		}
	}
	for _, s := range r.sessions {
		if k := s.InFlight(); k != 0 {
			return fmt.Errorf("rig: session on node %s still holds %d window slots", s.Node().Name, k)
		}
	}
	return nil
}

func kvec(as *vm.AddressSpace, va vm.VirtAddr, n int) core.Vector {
	return core.Of(core.KernelSeg(as, va, n))
}
