// Package mx models Myrinet Express (MX) and, in particular, the MX
// kernel interface the paper's authors designed with Myricom (§4.2) —
// the paper's primary artifact.
//
// Key properties, each contrasted with GM:
//
//   - No application-visible memory registration: MX copies or pins
//     internally per message. Small messages (≤ Params.MXSmallMax) go by
//     programmed I/O; medium messages (≤ Params.MXMediumMax) are copied
//     through pre-registered bounce buffers on both sides; large
//     messages use a rendezvous (RTS/CTS) and are pinned and DMAed
//     zero-copy.
//   - The kernel interface is first-class: "latency and bandwidth do
//     not differ between user and kernel communications" (§5.1). There
//     is no kernel penalty, and kernel page pinning is cheaper.
//   - Requests are vectorial and address-typed (core.Vector): user
//     virtual (pin+translate), kernel virtual (translate), physical
//     (as-is) — §4.2's three address kinds.
//   - Completion is flexible: the application waits on a specific
//     request or on any (§5.2: "allowing the application to wait on a
//     single or any pending request").
//   - Copy-removal modes (§5.1 / Fig 6): WithNoSendCopy skips the
//     send-side bounce copy for physically contiguous non-user
//     segments (implemented in the paper, +17 % at 32 KB);
//     WithNoRecvCopy skips the receive-side copy (the paper's
//     prediction, impossible in their NIC at the time).
package mx

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// message kinds on the wire.
const (
	kindEager uint8 = iota // small or medium, payload inline
	kindRTS                // rendezvous request: "I have N bytes for match M"
	kindCTS                // clear to send
	kindData               // rendezvous payload
)

// MX is the per-node driver instance.
type MX struct {
	node      *hw.Node
	p         *hw.Params
	endpoints map[uint8]*Endpoint
	rndvSeq   uint64
}

// Attach installs the MX driver on a node. Call once per node.
func Attach(node *hw.Node) *MX {
	m := &MX{node: node, p: node.Cluster.Params, endpoints: make(map[uint8]*Endpoint)}
	node.NIC.Handle(hw.ProtoMX, m.receive)
	return m
}

// Node returns the node this driver serves.
func (m *MX) Node() *hw.Node { return m.node }

// Option configures an endpoint.
type Option func(*Endpoint)

// WithNoSendCopy enables the send-side copy removal for physically
// contiguous kernel/physical medium messages (§5.1, Fig 6
// "No-send-copy").
func WithNoSendCopy() Option { return func(ep *Endpoint) { ep.noSendCopy = true } }

// WithNoRecvCopy enables the receive-side copy removal the paper
// predicts (Fig 6 "No-copy", dashed): requires receive processing in
// the NIC, so it is a what-if mode here exactly as in the paper.
func WithNoRecvCopy() Option { return func(ep *Endpoint) { ep.noRecvCopy = true } }

// Endpoint is an MX communication endpoint (user or kernel).
type Endpoint struct {
	mx     *MX
	id     uint8
	kernel bool

	noSendCopy bool
	noRecvCopy bool

	posted     []*Request // posted receives, matched in post order
	unexpected []*unexp

	completions *sim.Chan[*Request] // completed receives, for WaitAny

	rndvOut map[uint64]*Request // our RTSes awaiting CTS
	rndvIn  map[uint64]*Request // matched RTSes awaiting data

	// Stats
	Sends, Recvs sim.Counter
}

type unexp struct {
	src     hw.NodeID
	srcEp   uint8
	info    uint64
	eager   []byte // staged payload (eager) …
	rndvID  uint64 // … or pending rendezvous
	rndvLen int
}

// OpenEndpoint opens endpoint id. kernel selects the kernel interface —
// which, unlike GM's, costs the same as the user one.
func (m *MX) OpenEndpoint(id uint8, kernel bool, opts ...Option) (*Endpoint, error) {
	if _, dup := m.endpoints[id]; dup {
		return nil, fmt.Errorf("mx: endpoint %d already open on %s", id, m.node.Name)
	}
	ep := &Endpoint{
		mx:          m,
		id:          id,
		kernel:      kernel,
		completions: sim.NewChan[*Request](m.node.Cluster.Env),
		rndvOut:     make(map[uint64]*Request),
		rndvIn:      make(map[uint64]*Request),
	}
	for _, o := range opts {
		o(ep)
	}
	m.endpoints[id] = ep
	return ep, nil
}

// Kernel reports whether this is a kernel endpoint.
func (ep *Endpoint) Kernel() bool { return ep.kernel }

// ID returns the endpoint number.
func (ep *Endpoint) ID() uint8 { return ep.id }

// Status is the outcome of a completed request.
type Status struct {
	Src  hw.NodeID
	Info uint64 // sender's match information
	Len  int    // bytes transferred
	Err  error  // truncation etc.
}

// Request is an in-flight send or receive.
type Request struct {
	ep     *Endpoint
	isRecv bool
	done   *sim.Signal
	status Status

	// receive state
	match     core.Match
	vector    core.Vector
	extents   []mem.Extent
	recvCopy  int    // bytes of deferred receive-side bounce copy
	unpin     func() // posted user pages to unpin at completion
	charged   bool
	truncated bool

	// send state (rendezvous)
	sendVec core.Vector
	rndvID  uint64
}

// Done reports whether the request has completed (mx_test).
func (r *Request) Done() bool { return r.done.Fired() }

// Wait blocks until the request completes and returns its status,
// charging the host-side completion work (event consumption, deferred
// receive copy, unpinning) exactly once.
func (r *Request) Wait(p *sim.Proc) Status {
	r.done.Wait(p)
	r.charge(p)
	return r.status
}

// WaitTimeout is Wait with a deadline; ok is false on timeout.
func (r *Request) WaitTimeout(p *sim.Proc, d sim.Time) (Status, bool) {
	if !r.done.Fired() {
		if fired := r.done.WaitTimeout(p, d); !fired {
			return Status{}, false
		}
	}
	r.charge(p)
	return r.status, true
}

// Test polls for completion without blocking or charging.
func (r *Request) Test() (Status, bool) {
	if !r.done.Fired() {
		return Status{}, false
	}
	return r.status, true
}

func (r *Request) charge(p *sim.Proc) {
	if r.charged {
		return
	}
	r.charged = true
	cpu := r.ep.mx.node.CPU
	cpu.Compute(p, r.ep.mx.p.MXHostEvent)
	if r.recvCopy > 0 {
		// The host drains the bounce ring into the destination buffer:
		// the receive-side copy of the medium-message protocol.
		cpu.Copy(p, r.recvCopy)
	}
	if r.unpin != nil {
		pages := r.vector.UserPages()
		if pages > 0 {
			cpu.Unpin(p, pages)
		}
		r.unpin()
		r.unpin = nil
	}
}

// resolve translates and (for user segments) pins a vector, charging
// the CPU costs. It returns the merged extents and an unpin closure
// (nil if nothing was pinned).
func (ep *Endpoint) resolve(p *sim.Proc, v core.Vector) ([]mem.Extent, func(), error) {
	if err := v.Validate(); err != nil {
		return nil, nil, err
	}
	userPages := v.UserPages()
	var unpin func()
	if userPages > 0 {
		var err error
		unpin, err = v.Pin()
		if err != nil {
			return nil, nil, err
		}
		ep.mx.node.CPU.Pin(p, userPages, false)
	} else if ep.kernel {
		// Kernel/physical addressing: cheap or free translation; pin
		// cost only when pages are not already locked. Kernel virtual
		// memory is "often already pinned" (§4.2): charge the cheaper
		// kernel rate for translation bookkeeping.
		kpages := 0
		for _, s := range v {
			if s.Type == core.KernelVirtual {
				kpages += s.Pages()
			}
		}
		if kpages > 0 {
			ep.mx.node.CPU.Pin(p, kpages, true)
		}
	}
	xs, err := v.Extents()
	if err != nil {
		if unpin != nil {
			unpin()
		}
		return nil, nil, err
	}
	return xs, unpin, nil
}

// Send posts a send of vector v with match information info to
// endpoint (dst, dstEp). The returned request completes when the
// application buffer is reusable.
func (ep *Endpoint) Send(p *sim.Proc, dst hw.NodeID, dstEp uint8, info uint64, v core.Vector) (*Request, error) {
	m := ep.mx
	n := v.TotalLen()
	req := &Request{ep: ep, done: sim.NewSignal(m.node.Cluster.Env), sendVec: v}
	req.status = Status{Info: info, Len: n}
	m.node.CPU.Compute(p, m.p.MXHostSend)
	ep.Sends.Add(n)
	m.node.Cluster.Env.Tracef("mx[%s:%d] send %dB info=%#x -> node %d ep %d",
		m.node.Name, ep.id, n, info, dst, dstEp)

	switch {
	case n <= m.p.MXSmallMax:
		return ep.sendSmall(p, req, dst, dstEp, info, v)
	case n <= m.p.MXMediumMax:
		return ep.sendMedium(p, req, dst, dstEp, info, v)
	default:
		return ep.sendLarge(p, req, dst, dstEp, info, v)
	}
}

// sendSmall: the host reads the (tiny) payload and pushes it to the
// NIC by programmed I/O; no pinning, no DMA on the send side.
func (ep *Endpoint) sendSmall(p *sim.Proc, req *Request, dst hw.NodeID, dstEp uint8, info uint64, v core.Vector) (*Request, error) {
	m := ep.mx
	xs, err := v.Extents()
	if err != nil {
		return nil, err
	}
	data := m.node.Mem.Gather(xs)
	m.node.CPU.PIO(p, len(data)+16) // payload + descriptor
	msg := &hw.Message{
		Dst: dst, Proto: hw.ProtoMX, Kind: kindEager, Tag: info,
		Header: []byte{dstEp, ep.id},
	}
	m.node.NIC.Send(&hw.TxJob{Msg: msg, Inline: data, PIO: true})
	req.done.Fire() // buffer reusable: bytes are in NIC SRAM
	return req, nil
}

// sendMedium: default MX copies into a pre-registered bounce buffer
// ("uses a copy on both sides when processing medium side messages",
// §5.1). Two zero-copy cases skip the send copy:
//
//   - Physically addressed vectors on kernel endpoints always go
//     zero-copy: this is the kernel API subsuming the paper's GM
//     physical-address primitives (§4.1) — the NIC gather-DMAs the
//     extents directly (page-cache pages are already locked).
//   - With WithNoSendCopy, physically *contiguous* kernel-virtual
//     vectors also go zero-copy (the Fig 6 "No-send-copy" MCP change,
//     +17 % at 32 KB).
func (ep *Endpoint) sendMedium(p *sim.Proc, req *Request, dst hw.NodeID, dstEp uint8, info uint64, v core.Vector) (*Request, error) {
	m := ep.mx
	msg := &hw.Message{
		Dst: dst, Proto: hw.ProtoMX, Kind: kindEager, Tag: info,
		Header: []byte{dstEp, ep.id},
	}
	if ep.kernel && ep.zeroCopySend(v) {
		xs, unpin, err := ep.resolve(p, v)
		if err != nil {
			return nil, err
		}
		m.node.NIC.Send(&hw.TxJob{Msg: msg, Gather: xs})
		m.node.Cluster.Env.Spawn("mx-zsend", func(w *sim.Proc) {
			msg.TxDone.Wait(w)
			if unpin != nil {
				unpin()
			}
			req.done.Fire()
		})
		return req, nil
	}
	xs, err := v.Extents()
	if err != nil {
		return nil, err
	}
	data := m.node.Mem.Gather(xs)
	m.node.CPU.Copy(p, len(data)) // the send-side bounce copy
	m.node.NIC.Send(&hw.TxJob{Msg: msg, Inline: data})
	req.done.Fire() // buffer reusable after the copy
	return req, nil
}

// zeroCopySend reports whether a medium message may skip the bounce
// copy on this (kernel) endpoint.
func (ep *Endpoint) zeroCopySend(v core.Vector) bool {
	if v.AllPhysical() {
		return true
	}
	if !ep.noSendCopy || hasUser(v) {
		return false
	}
	contig, err := v.PhysicallyContiguous()
	return err == nil && contig
}

func hasUser(v core.Vector) bool {
	for _, s := range v {
		if s.Type == core.UserVirtual {
			return true
		}
	}
	return false
}

// sendLarge: rendezvous. Pin the source, send an RTS, wait for the CTS
// (driven by the receive path), then DMA the payload zero-copy.
func (ep *Endpoint) sendLarge(p *sim.Proc, req *Request, dst hw.NodeID, dstEp uint8, info uint64, v core.Vector) (*Request, error) {
	m := ep.mx
	xs, unpin, err := ep.resolve(p, v)
	if err != nil {
		return nil, err
	}
	m.node.CPU.Compute(p, m.p.MXRendezvous) // rendezvous protocol setup
	id := m.rndvSeq
	m.rndvSeq++
	req.rndvID = id
	req.extents = xs
	req.unpin = func() {
		if unpin != nil {
			unpin()
		}
	}
	ep.rndvOut[id] = req
	hdr := make([]byte, 2+8+4)
	hdr[0], hdr[1] = dstEp, ep.id
	put64(hdr[2:], id)
	put32(hdr[10:], uint32(v.TotalLen()))
	msg := &hw.Message{Dst: dst, Proto: hw.ProtoMX, Kind: kindRTS, Tag: info, Header: hdr}
	m.node.NIC.Send(&hw.TxJob{Msg: msg, PIO: true, Inline: nil})
	return req, nil
}

// Recv posts a receive of vector v for messages matching match. The
// returned request completes when data is in place.
//
// Posting is cheap: nothing is pinned yet. Eager (small/medium)
// deliveries never pin the destination — data flows through the bounce
// ring or straight into physical extents. Only when the receive matches
// a rendezvous does MX pin the buffer (see pinForRendezvous), which is
// how the real implementation avoids GM's register-everything model.
func (ep *Endpoint) Recv(p *sim.Proc, match core.Match, v core.Vector) (*Request, error) {
	m := ep.mx
	if err := v.Validate(); err != nil {
		return nil, err
	}
	xs, err := v.Extents()
	if err != nil {
		return nil, err
	}
	m.node.CPU.Compute(p, m.p.MXHostSend/2) // post descriptor
	req := &Request{
		ep: ep, isRecv: true, done: sim.NewSignal(m.node.Cluster.Env),
		match: match, vector: v, extents: xs,
	}
	// Unexpected queue first (in arrival order).
	for i, u := range ep.unexpected {
		if !match.Accepts(u.info) {
			continue
		}
		ep.unexpected = append(ep.unexpected[:i], ep.unexpected[i+1:]...)
		if u.eager != nil {
			ep.completeEager(req, u.src, u.info, u.eager)
		} else {
			ep.rndvIn[u.rndvID] = req
			req.status = Status{Src: u.src, Info: u.info}
			ep.sendCTS(p, u.src, u.srcEp, u.rndvID, v.TotalLen(), u.rndvLen, req)
		}
		return req, nil
	}
	ep.posted = append(ep.posted, req)
	return req, nil
}

// CancelRecv withdraws a posted receive (mx_cancel): the request is
// removed from the match list, completes with ErrCancelled, and its
// buffer is guaranteed never to be scattered into. A receive that
// matched a rendezvous whose data has not yet arrived is cancellable
// too — dropping the rendezvous record makes any late data message
// fall on the floor (the sender's transfer completes into nothing),
// which is what makes reply deadlines against a dead-then-revived
// peer safe. It returns false — and does nothing — only when the
// receive has completed (data already landed); the caller must then
// Wait it to consume the result.
func (ep *Endpoint) CancelRecv(p *sim.Proc, req *Request) bool {
	for i, r := range ep.posted {
		if r == req {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			ep.mx.node.CPU.Compute(p, ep.mx.p.MXHostSend/2) // descriptor removal
			req.status.Err = ErrCancelled
			req.done.Fire()
			return true
		}
	}
	// A request sits under at most one rendezvous id: find it, then
	// act outside the map iteration.
	found := false
	var id uint64
	for k, r := range ep.rndvIn {
		if r == req {
			id, found = k, true
			break
		}
	}
	if !found {
		return false
	}
	delete(ep.rndvIn, id)
	ep.mx.node.CPU.Compute(p, ep.mx.p.MXHostSend/2) // descriptor removal
	// The buffer was pinned when the CTS went out; undo it here — the
	// completion path that normally unpins will never run.
	if req.unpin != nil {
		if pages := req.vector.UserPages(); pages > 0 {
			ep.mx.node.CPU.Unpin(p, pages)
		}
		req.unpin()
		req.unpin = nil
	}
	req.status.Err = ErrCancelled
	req.done.Fire()
	return true
}

// ErrCancelled is the completion status of a receive withdrawn by
// CancelRecv.
var ErrCancelled = fmt.Errorf("mx: request cancelled")

// WaitAny blocks until any posted receive of the endpoint completes and
// returns it ("wait on a single or any pending request", §5.2).
// Receives already consumed through Request.Wait are skipped.
func (ep *Endpoint) WaitAny(p *sim.Proc) *Request {
	for {
		r := ep.completions.Recv(p)
		if r.charged {
			continue
		}
		r.charge(p)
		return r
	}
}

// pinForRendezvous pins a matched rendezvous receive buffer, charging
// the pinning cost in the calling process (the host does this work
// whether the match happened at post time or on RTS arrival).
func (ep *Endpoint) pinForRendezvous(p *sim.Proc, req *Request) error {
	v := req.vector
	if userPages := v.UserPages(); userPages > 0 {
		unpin, err := v.Pin()
		if err != nil {
			return err
		}
		req.unpin = unpin
		ep.mx.node.CPU.Pin(p, userPages, false)
		return nil
	}
	kpages := 0
	for _, s := range v {
		if s.Type == core.KernelVirtual {
			kpages += s.Pages()
		}
	}
	if kpages > 0 {
		ep.mx.node.CPU.Pin(p, kpages, true)
	}
	return nil
}

// sendCTS tells the sender to transmit rendezvous id; recvLen is our
// buffer size, sendLen the announced size (for truncation).
func (ep *Endpoint) sendCTS(p *sim.Proc, dst hw.NodeID, dstEp uint8, id uint64, recvLen, sendLen int, req *Request) {
	m := ep.mx
	if err := ep.pinForRendezvous(p, req); err != nil {
		req.status.Err = err
		req.done.Fire()
		ep.completions.Send(req)
		return
	}
	if recvLen < sendLen {
		req.truncated = true
	}
	hdr := make([]byte, 2+8+4)
	hdr[0], hdr[1] = dstEp, ep.id
	put64(hdr[2:], id)
	put32(hdr[10:], uint32(min(recvLen, sendLen)))
	msg := &hw.Message{Dst: dst, Proto: hw.ProtoMX, Kind: kindCTS, Header: hdr}
	m.node.NIC.Send(&hw.TxJob{Msg: msg, PIO: true})
}

// completeEager finishes a receive whose payload is at hand (either
// just delivered or staged in the unexpected queue).
func (ep *Endpoint) completeEager(req *Request, src hw.NodeID, info uint64, data []byte) {
	n := len(data)
	req.status = Status{Src: src, Info: info, Len: n}
	if n > req.vector.TotalLen() {
		n = req.vector.TotalLen()
		req.status.Len = n
		req.status.Err = fmt.Errorf("mx: message truncated to %d bytes", n)
	}
	ep.mx.node.Mem.Scatter(mem.Clip(req.extents, n), data[:n])
	// Receive-side bounce copy, charged at Wait time. It is skipped
	// when the message was small (PIO-sized), or when the NIC could
	// place the data directly: physically addressed kernel receives
	// (the page-cache path, as with the GM physical extension), or —
	// under the predicted WithNoRecvCopy mode — physically contiguous
	// kernel-virtual destinations.
	if n > ep.mx.p.MXSmallMax && !ep.zeroCopyRecv(req) {
		req.recvCopy = n
	}
	ep.Recvs.Add(n)
	ep.mx.node.Cluster.Env.Tracef("mx[%s:%d] recv %dB info=%#x from node %d",
		ep.mx.node.Name, ep.id, n, info, src)
	req.done.Fire()
	ep.completions.Send(req)
}

// zeroCopyRecv reports whether a medium delivery lands directly in the
// posted buffer on this endpoint (no host drain copy).
func (ep *Endpoint) zeroCopyRecv(req *Request) bool {
	if !ep.kernel {
		return false
	}
	if req.vector.AllPhysical() {
		return true
	}
	return ep.noRecvCopy && !hasUser(req.vector) && len(req.extents) <= 1
}

// receive runs in the NIC rx-pump process.
func (m *MX) receive(p *sim.Proc, msg *hw.Message) {
	if len(msg.Header) < 2 {
		panic("mx: short header")
	}
	ep := m.endpoints[msg.Header[0]]
	if ep == nil {
		return // endpoint closed: drop
	}
	srcEp := msg.Header[1]
	switch msg.Kind {
	case kindEager:
		if req := ep.takePosted(msg.Tag); req != nil {
			ep.completeEager(req, msg.Src, msg.Tag, msg.Payload)
			return
		}
		ep.unexpected = append(ep.unexpected, &unexp{
			src: msg.Src, srcEp: srcEp, info: msg.Tag,
			eager: append([]byte(nil), msg.Payload...),
		})
	case kindRTS:
		id := get64(msg.Header[2:])
		length := int(get32(msg.Header[10:]))
		if req := ep.takePosted(msg.Tag); req != nil {
			ep.rndvIn[id] = req
			req.status = Status{Src: msg.Src, Info: msg.Tag}
			ep.sendCTS(p, msg.Src, srcEp, id, req.vector.TotalLen(), length, req)
			return
		}
		ep.unexpected = append(ep.unexpected, &unexp{
			src: msg.Src, srcEp: srcEp, info: msg.Tag, rndvID: id, rndvLen: length,
		})
	case kindCTS:
		id := get64(msg.Header[2:])
		length := int(get32(msg.Header[10:]))
		req := ep.rndvOut[id]
		if req == nil {
			return
		}
		delete(ep.rndvOut, id)
		ep.startData(req, msg.Src, srcEp, id, length)
	case kindData:
		id := get64(msg.Header[2:])
		req := ep.rndvIn[id]
		if req == nil {
			return
		}
		delete(ep.rndvIn, id)
		n := len(msg.Payload)
		ep.mx.node.Mem.Scatter(mem.Clip(req.extents, n), msg.Payload[:n])
		req.status.Len = n
		if req.truncated {
			req.status.Err = fmt.Errorf("mx: rendezvous truncated to %d bytes", n)
		}
		ep.Recvs.Add(n)
		req.done.Fire()
		ep.completions.Send(req)
	}
}

// startData launches the rendezvous payload transfer (runs in the
// receive pump of the *sender's* NIC, where the CTS arrived).
func (ep *Endpoint) startData(req *Request, dst hw.NodeID, dstEp uint8, id uint64, length int) {
	m := ep.mx
	hdr := make([]byte, 2+8)
	hdr[0], hdr[1] = dstEp, ep.id
	put64(hdr[2:], id)
	msg := &hw.Message{
		Dst: dst, Proto: hw.ProtoMX, Kind: kindData, Tag: req.status.Info, Header: hdr,
	}
	xs := mem.Clip(req.extents, length)
	// The flat large-message penalty (immature large-message path,
	// §5.1) rides on the data message's firmware processing.
	m.node.NIC.Send(&hw.TxJob{Msg: msg, Gather: xs, FwExtra: m.p.MXLargeOverhead})
	m.node.Cluster.Env.Spawn("mx-rndv-done", func(w *sim.Proc) {
		msg.TxDone.Wait(w)
		if req.unpin != nil {
			pages := req.sendVec.UserPages()
			if pages > 0 {
				m.node.CPU.Unpin(w, pages)
			}
			req.unpin()
			req.unpin = nil
		}
		req.status.Len = length
		req.done.Fire()
	})
}

// takePosted removes and returns the oldest posted receive matching info.
func (ep *Endpoint) takePosted(info uint64) *Request {
	for i, r := range ep.posted {
		if r.match.Accepts(info) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			return r
		}
	}
	return nil
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func get64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func put32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func get32(b []byte) uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(b[i]) << (8 * i)
	}
	return v
}
