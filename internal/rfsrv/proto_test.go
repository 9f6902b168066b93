package rfsrv_test

// Wire-format tests: the fixed header sizes, the full width of the
// epoch fields end to end through a server, and the decoder fuzz
// targets (FuzzDecodeReq, FuzzDecodeResp), whose seed corpora run
// under plain go test.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rfsrv"
	"repro/internal/sim"
)

// TestWireHeaderSizes pins the fixed header sizes: a request is 41
// bytes and a reply 52 bytes before names, listings and data.
func TestWireHeaderSizes(t *testing.T) {
	if n := len(rfsrv.EncodeReq(&rfsrv.Req{})); n != 41 {
		t.Errorf("request fixed header %d bytes, want 41", n)
	}
	enc, err := rfsrv.EncodeResp(&rfsrv.Resp{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(enc); n != 52 {
		t.Errorf("reply fixed header %d bytes, want 52", n)
	}
}

// TestMaxNameLenFitsOneBuffer pins the longest legal name to what a
// 4 KB request buffer holds beside the 41-byte header: 4055 bytes. The
// names of 4056 to 4064 bytes a 32-byte header once left room for are
// refused at the client boundary and dropped by the decoder.
func TestMaxNameLenFitsOneBuffer(t *testing.T) {
	if rfsrv.MaxNameLen != 4055 {
		t.Fatalf("MaxNameLen = %d, want 4055", rfsrv.MaxNameLen)
	}
	ok := rfsrv.EncodeReq(&rfsrv.Req{Op: rfsrv.OpCreate, Name: string(bytes.Repeat([]byte{'n'}, rfsrv.MaxNameLen))})
	if len(ok) != 4096 {
		t.Fatalf("maximal request encodes to %d bytes, want 4096", len(ok))
	}
	if _, _, err := rfsrv.DecodeReq(ok); err != nil {
		t.Fatalf("maximal name refused by the decoder: %v", err)
	}
	for n := rfsrv.MaxNameLen + 1; n <= 4064; n++ {
		req := &rfsrv.Req{Op: rfsrv.OpCreate, Name: string(bytes.Repeat([]byte{'n'}, n))}
		if err := rfsrv.ValidateReq(req); err != rfsrv.ErrNameTooLong {
			t.Fatalf("%d-byte name: ValidateReq = %v, want ErrNameTooLong", n, err)
		}
		if _, _, err := rfsrv.DecodeReq(rfsrv.EncodeReq(req)); err == nil {
			t.Fatalf("%d-byte name accepted by the decoder", n)
		}
	}
}

// TestWireEpochsFullWidth drives epochs past every width the fields
// once had through a live server: a size epoch of 2^31 refuses an
// OpSetSize that observed epoch 0, a size epoch of 2^48 comes back
// intact, and a membership epoch of 2^16 is stamped on replies as is.
func TestWireEpochsFullWidth(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		c := r.mxKernelClient(t)
		meta := func(req *rfsrv.Req) (*rfsrv.Resp, error) {
			t.Helper()
			resp, err := c.Meta(p, req)
			if resp == nil {
				t.Fatalf("%v: no reply: %v", req.Op, err)
			}
			return resp, err
		}
		cresp, err := meta(&rfsrv.Req{Op: rfsrv.OpCreate, Name: "f"})
		if err != nil {
			t.Fatal(err)
		}
		ino := cresp.Attr.Ino

		const e31 = 1 << 31
		if _, err := meta(&rfsrv.Req{Op: rfsrv.OpSyncEpoch, Ino: ino, Epoch: e31}); err != nil {
			t.Fatal(err)
		}
		resp, err := meta(&rfsrv.Req{Op: rfsrv.OpSetSize, Ino: ino, Off: 4096, Epoch: 0})
		if !errors.Is(err, rfsrv.ErrStaleEpoch) || resp.Status != rfsrv.StStale || resp.Epoch != e31 {
			t.Fatalf("setsize observed at 0 vs server epoch 2^31: status %d epoch %d err %v, want StStale at 2^31", resp.Status, resp.Epoch, err)
		}
		if resp, err = meta(&rfsrv.Req{Op: rfsrv.OpSetSize, Ino: ino, Off: 4096, Epoch: e31}); err != nil || resp.Attr.Size != 4096 {
			t.Fatalf("setsize at the current epoch: size %d err %v", resp.Attr.Size, err)
		}

		const e48 = 1<<48 + 7
		if _, err := meta(&rfsrv.Req{Op: rfsrv.OpSyncEpoch, Ino: ino, Epoch: e48}); err != nil {
			t.Fatal(err)
		}
		if resp, err = meta(&rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil || resp.Epoch != e48 {
			t.Fatalf("getattr epoch %d err %v, want %d", resp.Epoch, err, uint64(e48))
		}

		if resp, err = meta(&rfsrv.Req{Op: rfsrv.OpMember, Off: 0, Len: 1, Epoch: 1 << 16}); err != nil || resp.MemberEpoch != 65536 {
			t.Fatalf("member commit reply MemberEpoch %d err %v, want 65536", resp.MemberEpoch, err)
		}
		if resp, err = meta(&rfsrv.Req{Op: rfsrv.OpGetattr, Ino: ino}); err != nil || resp.MemberEpoch != 65536 || resp.Epoch != e48 {
			t.Fatalf("getattr after commit: member %d size epoch %d err %v", resp.MemberEpoch, resp.Epoch, err)
		}
	})
}

// reqCorpus is one request per operation, every field set.
func reqCorpus() [][]byte {
	var out [][]byte
	for op := rfsrv.OpLookup; op <= rfsrv.OpSyncEpoch; op++ {
		out = append(out, rfsrv.EncodeReq(&rfsrv.Req{
			Op: op, Seq: uint64(op) << 40, EP: 11, Ino: kernel.InodeID(op) + 2,
			Off: int64(op) * 4096, Len: uint32(op), Epoch: 1<<48 + uint64(op),
			Layout: rfsrv.LayoutClass(uint8(op) % 3), Name: op.String(),
		}))
	}
	return out
}

// respCorpus is one reply per operation plus a readdir listing, and
// two replies whose layout class and file kind are out of range.
func respCorpus(t testing.TB) [][]byte {
	enc := func(r *rfsrv.Resp) []byte {
		b, err := rfsrv.EncodeResp(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var out [][]byte
	for op := rfsrv.OpLookup; op <= rfsrv.OpSyncEpoch; op++ {
		out = append(out, enc(&rfsrv.Resp{
			Seq: uint64(op), Status: int32(op) % 4,
			Attr:  kernel.Attr{Ino: kernel.InodeID(op) + 2, Kind: kernel.FileKind(op % 2), Size: int64(op) << 20},
			Epoch: 1<<48 + uint64(op), MemberEpoch: 1<<16 + uint64(op),
			Layout: rfsrv.LayoutClass(uint8(op) % 3), N: uint32(op) * 512,
		}))
	}
	out = append(out, enc(&rfsrv.Resp{Seq: 99, Attr: kernel.Attr{Ino: 1, Kind: kernel.Directory}, Entries: []kernel.DirEntry{
		{Name: "a", Ino: 5, Kind: kernel.RegularFile},
		{Name: "subdir", Ino: 6, Kind: kernel.Directory},
	}}))
	// Out-of-range bytes, located by diffing two valid encodings so the
	// test does not restate the codec's offsets.
	out = append(out,
		corrupt(enc(&rfsrv.Resp{Layout: rfsrv.LayoutStandard}), enc(&rfsrv.Resp{Layout: rfsrv.LayoutWide}), byte(rfsrv.LayoutWide)+1),
		corrupt(enc(&rfsrv.Resp{Attr: kernel.Attr{Kind: kernel.RegularFile}}), enc(&rfsrv.Resp{Attr: kernel.Attr{Kind: kernel.Directory}}), byte(kernel.Directory)+1))
	return out
}

// corrupt returns a with v written into the one byte where a and b
// differ.
func corrupt(a, b []byte, v byte) []byte {
	for i := range a {
		if a[i] != b[i] {
			a[i] = v
			return a
		}
	}
	panic("encodings do not differ")
}

// FuzzDecodeReq: no input panics, and an accepted request re-encodes
// to exactly the bytes it was decoded from.
func FuzzDecodeReq(f *testing.F) {
	for _, b := range reqCorpus() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, err := rfsrv.DecodeReq(b)
		if err != nil {
			return
		}
		enc := rfsrv.EncodeReq(r)
		if !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, b[:n])
		}
		r2, n2, err := rfsrv.DecodeReq(enc)
		if err != nil || n2 != n || !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip: %+v vs %+v (%v)", r, r2, err)
		}
	})
}

// FuzzDecodeResp: no input panics, an accepted reply carries only
// defined layout classes and file kinds, and it re-encodes to a
// message that decodes to the same reply.
func FuzzDecodeResp(f *testing.F) {
	for _, b := range respCorpus(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := rfsrv.DecodeResp(b)
		if err != nil {
			return
		}
		if !rfsrv.ValidLayout(r.Layout) || !validKind(r.Attr.Kind) {
			t.Fatalf("accepted layout %d / kind %d", r.Layout, r.Attr.Kind)
		}
		for _, e := range r.Entries {
			if !validKind(e.Kind) {
				t.Fatalf("accepted dirent kind %d", e.Kind)
			}
		}
		enc, err := rfsrv.EncodeResp(r)
		if err != nil {
			t.Fatalf("re-encoding an accepted reply: %v", err)
		}
		r2, err := rfsrv.DecodeResp(enc)
		if err != nil || !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip: %+v vs %+v (%v)", r, r2, err)
		}
	})
}

func validKind(k kernel.FileKind) bool { return k == kernel.RegularFile || k == kernel.Directory }
