package rfsrv_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/memfs"
	"repro/internal/mx"
	"repro/internal/orfa"
	"repro/internal/orfs"
	"repro/internal/rfsrv"
	"repro/internal/sim"
	"repro/internal/vm"
)

const us = time.Microsecond

// pairRig is a two-node client/server fixture with both transports served.
type pairRig struct {
	env            *sim.Engine
	params         *hw.Params
	client, server *hw.Node
	serverFS       *memfs.FS
	srv            *rfsrv.Server
	gmC            *gm.GM
	mxC            *mx.MX
}

func newRig(t *testing.T) *pairRig {
	t.Helper()
	env := sim.NewEngine()
	params := hw.DefaultParams()
	c := hw.NewCluster(env, params, hw.PCIXD)
	r := &pairRig{env: env, params: params}
	r.client, r.server = c.AddNode("client"), c.AddNode("server")
	r.gmC = gm.Attach(r.client)
	r.mxC = mx.Attach(r.client)
	gmS := gm.Attach(r.server)
	mxS := mx.Attach(r.server)
	r.serverFS = memfs.New("backing", r.server, 0)
	r.srv = rfsrv.NewServer(r.server, r.serverFS)
	if _, err := r.srv.ServeMX(mxS, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.ServeGM(gmS, 1); err != nil {
		t.Fatal(err)
	}
	return r
}

// run executes body in a proc and fails the test on deadlock.
func (r *pairRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("test", func(p *sim.Proc) {
		body(p)
		done = true
	})
	r.env.Run(0)
	if !done {
		t.Fatal("test body deadlocked")
	}
}

// mxKernelClient builds an ORFS-style transport.
func (r *pairRig) mxKernelClient(t *testing.T) *rfsrv.MXClient {
	t.Helper()
	cl, err := rfsrv.NewMXClient(r.mxC, 2, true, r.client.Kernel, r.server.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func (r *pairRig) gmKernelClient(t *testing.T, p *sim.Proc, cachePages int) *rfsrv.GMClient {
	t.Helper()
	cl, err := rfsrv.NewGMClient(p, r.gmC, 2, true, r.client.Kernel, r.server.ID, 1, cachePages)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*31 + 5)
	}
	return out
}

// seed creates a file directly in the server's backing store.
func (r *pairRig) seed(t *testing.T, p *sim.Proc, name string, data []byte) kernel.InodeID {
	t.Helper()
	attr, err := r.serverFS.Create(p, r.serverFS.Root(), name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.serverFS.WriteDirect(p, attr.Ino, 0, nil); err == nil {
		_ = err
	}
	// Write via direct bytes through a kernel vector on the server.
	kva, err := r.server.Kernel.Mmap(len(data)+mem.PageSize, "seed")
	if err != nil {
		t.Fatal(err)
	}
	r.server.Kernel.WriteBytes(kva, data)
	if n, err := r.serverFS.WriteDirect(p, attr.Ino, 0, core.Of(core.KernelSeg(r.server.Kernel, kva, len(data)))); err != nil || n != len(data) {
		t.Fatalf("seed write: %d %v", n, err)
	}
	return attr.Ino
}

func TestMetaOpsOverBothTransports(t *testing.T) {
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			r.run(t, func(p *sim.Proc) {
				var cl rfsrv.Client
				if transport == "mx" {
					cl = r.mxKernelClient(t)
				} else {
					cl = r.gmKernelClient(t, p, 1024)
				}
				root, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpGetattr, Ino: 0})
				if err != nil || root.Attr.Kind != kernel.Directory {
					t.Fatalf("root getattr: %+v %v", root, err)
				}
				mk, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpMkdir, Ino: root.Attr.Ino, Name: "d"})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: mk.Attr.Ino, Name: "f"}); err != nil {
					t.Fatal(err)
				}
				lk, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: mk.Attr.Ino, Name: "f"})
				if err != nil || lk.Attr.Kind != kernel.RegularFile {
					t.Fatalf("lookup: %+v %v", lk, err)
				}
				rd, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpReaddir, Ino: mk.Attr.Ino})
				if err != nil || len(rd.Entries) != 1 || rd.Entries[0].Name != "f" {
					t.Fatalf("readdir: %+v %v", rd, err)
				}
				if _, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpLookup, Ino: root.Attr.Ino, Name: "nope"}); err != kernel.ErrNotFound {
					t.Fatalf("missing lookup: %v", err)
				}
			})
		})
	}
}

func TestReadIntoPhysicalFrames(t *testing.T) {
	// The buffered-access core: read file pages straight into
	// page-cache-like frames over both transports.
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			data := pattern(3*mem.PageSize + 100)
			r.run(t, func(p *sim.Proc) {
				ino := r.seed(t, p, "f", data)
				var cl rfsrv.Client
				if transport == "mx" {
					cl = r.mxKernelClient(t)
				} else {
					cl = r.gmKernelClient(t, p, 1024)
				}
				for idx := int64(0); idx < 4; idx++ {
					frame, _ := r.client.Mem.AllocFrame()
					resp, err := cl.Read(p, ino, idx*mem.PageSize, core.Of(core.PhysSeg(frame.Addr(), mem.PageSize)))
					if err != nil {
						t.Fatal(err)
					}
					want := data[idx*mem.PageSize:]
					if len(want) > mem.PageSize {
						want = want[:mem.PageSize]
					}
					if int(resp.N) != len(want) {
						t.Fatalf("page %d: n=%d want %d", idx, resp.N, len(want))
					}
					if !bytes.Equal(frame.Data()[:resp.N], want) {
						t.Fatalf("page %d corrupted", idx)
					}
				}
				// Past EOF: zero-length read must not hang.
				frame, _ := r.client.Mem.AllocFrame()
				resp, err := cl.Read(p, ino, 100*mem.PageSize, core.Of(core.PhysSeg(frame.Addr(), mem.PageSize)))
				if err != nil || resp.N != 0 {
					t.Fatalf("EOF read: n=%d err=%v", resp.N, err)
				}
			})
		})
	}
}

func TestReadIntoUserBuffer(t *testing.T) {
	// The direct-access core: arbitrary-size reads into user memory,
	// including a rendezvous-sized one.
	for _, transport := range []string{"mx", "gm"} {
		for _, n := range []int{777, 4096, 60000, 300000} {
			t.Run(fmt.Sprintf("%s-%d", transport, n), func(t *testing.T) {
				r := newRig(t)
				data := pattern(n)
				r.run(t, func(p *sim.Proc) {
					ino := r.seed(t, p, "f", data)
					var cl rfsrv.Client
					if transport == "mx" {
						cl = r.mxKernelClient(t)
					} else {
						cl = r.gmKernelClient(t, p, 1024)
					}
					as := r.client.NewUserSpace("app")
					va, _ := as.Mmap(n+mem.PageSize, "buf")
					resp, err := cl.Read(p, ino, 0, core.Of(core.UserSeg(as, va, n)))
					if err != nil || int(resp.N) != n {
						t.Fatalf("read: n=%d err=%v", resp.N, err)
					}
					got, _ := as.ReadBytes(va, n)
					if !bytes.Equal(got, data) {
						t.Fatal("user-buffer read corrupted")
					}
				})
			})
		}
	}
}

func TestWriteFromUserBuffer(t *testing.T) {
	for _, transport := range []string{"mx", "gm"} {
		for _, n := range []int{100, 5000, 300000} { // includes chunked write
			t.Run(fmt.Sprintf("%s-%d", transport, n), func(t *testing.T) {
				r := newRig(t)
				data := pattern(n)
				r.run(t, func(p *sim.Proc) {
					var cl rfsrv.Client
					if transport == "mx" {
						cl = r.mxKernelClient(t)
					} else {
						cl = r.gmKernelClient(t, p, 1024)
					}
					created, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "w"})
					if err != nil {
						t.Fatal(err)
					}
					as := r.client.NewUserSpace("app")
					va, _ := as.Mmap(n+mem.PageSize, "buf")
					as.WriteBytes(va, data)
					resp, err := cl.Write(p, created.Attr.Ino, 0, core.Of(core.UserSeg(as, va, n)))
					if err != nil || int(resp.N) != n {
						t.Fatalf("write: n=%d err=%v", resp.N, err)
					}
					// Verify server-side content.
					got := make([]byte, n)
					kva, _ := r.server.Kernel.Mmap(n+mem.PageSize, "check")
					rn, err := r.serverFS.ReadDirect(p, created.Attr.Ino, 0, core.Of(core.KernelSeg(r.server.Kernel, kva, n)))
					if err != nil || rn != n {
						t.Fatalf("server readback: %d %v", rn, err)
					}
					chunk, _ := r.server.Kernel.ReadBytes(kva, n)
					copy(got, chunk)
					if !bytes.Equal(got, data) {
						t.Fatal("written data corrupted")
					}
				})
			})
		}
	}
}

func TestZeroLengthWrite(t *testing.T) {
	// A zero-byte write must complete the protocol handshake (not hang
	// or error) on both transports — the empty-vector path through the
	// fabric.
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			r.run(t, func(p *sim.Proc) {
				var cl rfsrv.Client
				if transport == "mx" {
					cl = r.mxKernelClient(t)
				} else {
					cl = r.gmKernelClient(t, p, 1024)
				}
				created, err := cl.Meta(p, &rfsrv.Req{Op: rfsrv.OpCreate, Ino: 0, Name: "empty"})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := cl.Write(p, created.Attr.Ino, 0, nil)
				if err != nil || resp.N != 0 {
					t.Fatalf("zero-length write: n=%d err=%v", resp.N, err)
				}
			})
		})
	}
}

func TestORFSMountedEndToEnd(t *testing.T) {
	// Full stack: application → VFS → page cache → ORFS → transport →
	// server → memfs, both transports, buffered and direct.
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			r.run(t, func(p *sim.Proc) {
				var cl rfsrv.Client
				if transport == "mx" {
					cl = r.mxKernelClient(t)
				} else {
					cl = r.gmKernelClient(t, p, 4096)
				}
				osys := kernel.NewOS(r.client, 0)
				osys.Mount("/mnt/orfs", orfs.New("orfs", cl))
				as := r.client.NewUserSpace("app")
				buf, _ := as.Mmap(1<<20, "buf")

				data := pattern(200000)
				f, err := osys.Open(p, "/mnt/orfs/data", kernel.OCreate)
				if err != nil {
					t.Fatal(err)
				}
				as.WriteBytes(buf, data)
				if n, err := f.Write(p, as, buf, len(data)); err != nil || n != len(data) {
					t.Fatalf("write: %d %v", n, err)
				}
				if err := f.Close(p); err != nil {
					t.Fatal(err)
				}

				// Buffered read back.
				g, _ := osys.Open(p, "/mnt/orfs/data", 0)
				n, err := g.ReadAt(p, as, buf, len(data), 0)
				if err != nil || n != len(data) {
					t.Fatalf("buffered read: %d %v", n, err)
				}
				got, _ := as.ReadBytes(buf, n)
				if !bytes.Equal(got, data) {
					t.Fatal("buffered roundtrip corrupted")
				}
				g.Close(p)

				// Direct read back.
				d, _ := osys.Open(p, "/mnt/orfs/data", kernel.ODirect)
				n, err = d.ReadAt(p, as, buf, len(data), 0)
				if err != nil || n != len(data) {
					t.Fatalf("direct read: %d %v", n, err)
				}
				got, _ = as.ReadBytes(buf, n)
				if !bytes.Equal(got, data) {
					t.Fatal("direct roundtrip corrupted")
				}
				d.Close(p)

				// Metadata via VFS.
				a, err := osys.Stat(p, "/mnt/orfs/data")
				if err != nil || a.Size != int64(len(data)) {
					t.Fatalf("stat: %+v %v", a, err)
				}
			})
		})
	}
}

func TestORFAEndToEnd(t *testing.T) {
	for _, transport := range []string{"mx", "gm"} {
		t.Run(transport, func(t *testing.T) {
			r := newRig(t)
			r.run(t, func(p *sim.Proc) {
				as := r.client.NewUserSpace("app")
				var cl rfsrv.Client
				if transport == "mx" {
					c, err := rfsrv.NewMXClient(r.mxC, 3, false, as, r.server.ID, 1)
					if err != nil {
						t.Fatal(err)
					}
					cl = c
				} else {
					c, err := rfsrv.NewGMClient(p, r.gmC, 3, false, as, r.server.ID, 1, 4096)
					if err != nil {
						t.Fatal(err)
					}
					cl = c
				}
				lib := orfa.New(cl, as)
				buf, _ := as.Mmap(1<<20, "buf")
				if err := lib.Mkdir(p, "/d"); err != nil {
					t.Fatal(err)
				}
				fd, err := lib.Create(p, "/d/file")
				if err != nil {
					t.Fatal(err)
				}
				data := pattern(150000)
				as.WriteBytes(buf, data)
				if n, err := lib.Write(p, fd, buf, len(data)); err != nil || n != len(data) {
					t.Fatalf("write: %d %v", n, err)
				}
				lib.Seek(p, fd, 0, 0)
				if n, err := lib.Read(p, fd, buf, len(data)); err != nil || n != len(data) {
					t.Fatalf("read: %d %v", n, err)
				}
				got, _ := as.ReadBytes(buf, len(data))
				if !bytes.Equal(got, data) {
					t.Fatal("ORFA roundtrip corrupted")
				}
				a, err := lib.Stat(p, "/d/file")
				if err != nil || a.Size != int64(len(data)) {
					t.Fatalf("stat: %+v %v", a, err)
				}
				ents, err := lib.Readdir(p, "/d")
				if err != nil || len(ents) != 1 {
					t.Fatalf("readdir: %v %v", ents, err)
				}
				if err := lib.Close(p, fd); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

func TestORFSMetadataBenefitsFromVFSCache(t *testing.T) {
	// §3.1: ORFS (kernel) caches metadata; ORFA pays a round-trip per
	// walk. Stat the same path repeatedly and compare RPC counts.
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cl := r.mxKernelClient(t)
		fs := orfs.New("orfs", cl)
		osys := kernel.NewOS(r.client, 0)
		osys.Mount("/mnt", fs)
		r.seed(t, p, "f", pattern(100))
		for i := 0; i < 10; i++ {
			if _, err := osys.Stat(p, "/mnt/f"); err != nil {
				t.Fatal(err)
			}
		}
		if fs.MetaOps.N > 3 {
			t.Errorf("ORFS issued %d metadata RPCs for 10 stats (dentry cache broken)", fs.MetaOps.N)
		}

		// ORFA: every stat walks remotely.
		as := r.client.NewUserSpace("app")
		acl, err := rfsrv.NewMXClient(r.mxC, 5, false, as, r.server.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		lib := orfa.New(acl, as)
		for i := 0; i < 10; i++ {
			if _, err := lib.Stat(p, "/f"); err != nil {
				t.Fatal(err)
			}
		}
		if lib.MetaRPCs.N < 20 {
			t.Errorf("ORFA issued only %d metadata RPCs for 10 stats (should walk every time)", lib.MetaRPCs.N)
		}
	})
}

func TestGMRegistrationCacheEffect(t *testing.T) {
	// Fig 3(b): repeated direct reads into the same user buffer are
	// faster with the registration cache than without.
	r := newRig(t)
	const n = 64 * 1024
	var withCache, withoutCache sim.Time
	r.run(t, func(p *sim.Proc) {
		ino := r.seed(t, p, "f", pattern(n))
		as := r.client.NewUserSpace("app")
		va, _ := as.Mmap(n, "buf")

		cached := r.gmKernelClient(t, p, 4096)
		t0 := p.Now()
		for i := 0; i < 10; i++ {
			if _, err := cached.Read(p, ino, 0, core.Of(core.UserSeg(as, va, n))); err != nil {
				t.Fatal(err)
			}
		}
		withCache = p.Now() - t0

		uncached, err := rfsrv.NewGMClient(p, r.gmC, 4, true, r.client.Kernel, r.server.ID, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		va2, _ := as.Mmap(n, "buf2")
		t1 := p.Now()
		for i := 0; i < 10; i++ {
			if _, err := uncached.Read(p, ino, 0, core.Of(core.UserSeg(as, va2, n))); err != nil {
				t.Fatal(err)
			}
		}
		withoutCache = p.Now() - t1
	})
	if withoutCache < withCache*12/10 {
		t.Errorf("no-cache reads (%v) should be well above cached (%v)", withoutCache, withCache)
	}
}

func TestConcurrentClientsDistinctTags(t *testing.T) {
	// Two MX clients hammer the server concurrently; replies must not
	// cross wires.
	r := newRig(t)
	data1, data2 := pattern(40000), bytes.Repeat([]byte{0xAB}, 40000)
	var ok1, ok2 bool
	r.env.Spawn("seed", func(p *sim.Proc) {
		ino1 := r.seed(t, p, "f1", data1)
		ino2 := r.seed(t, p, "f2", data2)
		for i, cfg := range []struct {
			ep   uint8
			ino  kernel.InodeID
			want []byte
			ok   *bool
		}{
			{10, ino1, data1, &ok1}, {11, ino2, data2, &ok2},
		} {
			cfg := cfg
			r.env.Spawn(fmt.Sprintf("cl%d", i), func(p *sim.Proc) {
				cl, err := rfsrv.NewMXClient(r.mxC, cfg.ep, true, r.client.Kernel, r.server.ID, 1)
				if err != nil {
					t.Error(err)
					return
				}
				kva, _ := r.client.Kernel.Mmap(len(cfg.want), "buf")
				for iter := 0; iter < 5; iter++ {
					resp, err := cl.Read(p, cfg.ino, 0, core.Of(core.KernelSeg(r.client.Kernel, kva, len(cfg.want))))
					if err != nil || int(resp.N) != len(cfg.want) {
						t.Errorf("read: %v %v", resp, err)
						return
					}
					got, _ := r.client.Kernel.ReadBytes(kva, len(cfg.want))
					if !bytes.Equal(got, cfg.want) {
						t.Error("cross-wired replies")
						return
					}
				}
				*cfg.ok = true
			})
		}
	})
	r.env.Run(0)
	if !ok1 || !ok2 {
		t.Fatal("concurrent clients did not finish")
	}
}

// Property: random op sequences through ORFS match the same sequence
// applied to a local reference model.
func TestORFSMatchesLocalReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		ok := true
		r := newRigQuiet()
		r.env.Spawn("t", func(p *sim.Proc) {
			cl, err := rfsrv.NewMXClient(r.mxC, 2, true, r.client.Kernel, r.server.ID, 1)
			if err != nil {
				ok = false
				return
			}
			osys := kernel.NewOS(r.client, 64)
			osys.Mount("/m", orfs.New("orfs", cl))
			as := r.client.NewUserSpace("app")
			buf, _ := as.Mmap(1<<20, "buf")
			rng := rand.New(rand.NewSource(seed))
			ref := []byte{}
			fh, err := osys.Open(p, "/m/f", kernel.OCreate)
			if err != nil {
				ok = false
				return
			}
			for op := 0; op < 12; op++ {
				off := rng.Int63n(100 * 1024)
				n := rng.Intn(50*1024) + 1
				if rng.Intn(2) == 0 {
					data := make([]byte, n)
					rng.Read(data)
					as.WriteBytes(buf, data)
					if _, err := fh.WriteAt(p, as, buf, n, off); err != nil {
						ok = false
						return
					}
					if need := int(off) + n; need > len(ref) {
						ref = append(ref, make([]byte, need-len(ref))...)
					}
					copy(ref[off:], data)
				} else {
					rn, err := fh.ReadAt(p, as, buf, n, off)
					if err != nil {
						ok = false
						return
					}
					want := 0
					if int(off) < len(ref) {
						want = len(ref) - int(off)
						if want > n {
							want = n
						}
					}
					if rn != want {
						ok = false
						return
					}
					if rn > 0 {
						got, _ := as.ReadBytes(buf, rn)
						if !bytes.Equal(got, ref[off:int(off)+rn]) {
							ok = false
							return
						}
					}
				}
			}
			fh.Close(p)
		})
		r.env.Run(0)
		return ok
	}
	// Fixed seed: the repo's determinism claim extends to test inputs
	// (Go >= 1.20 auto-seeds the global source otherwise).
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// newRigQuiet builds the fixture without a *testing.T (for quick.Check).
func newRigQuiet() *pairRig {
	env := sim.NewEngine()
	params := hw.DefaultParams()
	c := hw.NewCluster(env, params, hw.PCIXD)
	r := &pairRig{env: env, params: params}
	r.client, r.server = c.AddNode("client"), c.AddNode("server")
	r.gmC = gm.Attach(r.client)
	r.mxC = mx.Attach(r.client)
	mxS := mx.Attach(r.server)
	r.serverFS = memfs.New("backing", r.server, 0)
	r.srv = rfsrv.NewServer(r.server, r.serverFS)
	r.srv.ServeMX(mxS, 1, 1)
	return r
}

var _ = vm.PageSize // keep import
