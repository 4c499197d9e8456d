package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flecc/internal/airline"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/wire"
)

// Tracing is done entirely from the benchmark's own files: spans are
// recorded by decorators around the public things the benchmark hands to
// the system (codecs, the resolver, endpoints, observers) and around the
// benchmark's own calls into cache.Manager. Spans stay in memory and are
// written out once, at the end. In-program spans (lane wait, gate drain,
// barrier wait) are a later change.

type spanKind uint8

const (
	kOp spanKind = iota // root: one client operation
	kCachePull
	kCachePush
	kCacheSetMode
	kCacheOpen
	kCacheClose
	kDial      // DialNetwork.Attach: connect + hello handshake
	kRTT       // client Endpoint.Call, request out to reply in
	kServe     // server side of a client request (router or directory)
	kShardHop  // router → shard directory, inside kServe (sharded only)
	kLeg       // DM-initiated call to a view (invalidate / gather)
	kHandler   // the view's cache manager serving a kLeg
	kDMExtract // primary codec Extract / ExtractKeys
	kDMMerge   // primary codec Merge
	kCMExtract // view codec Extract
	kCMMerge   // view codec Merge
	kResolve   // application conflict resolver
	kReplShip  // one replication batch, primary → standby round trip
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.op", "cache.pull", "cache.push", "cache.setmode", "cache.open", "cache.close",
	"transport.dial", "transport.rtt", "server.serve", "shard.hop", "directory.leg", "cache.handler",
	"airline.dm_extract", "airline.dm_merge", "airline.cm_extract", "airline.cm_merge",
	"image.resolve", "repl.ship",
}

// span is one recorded interval. peer/seq identify the request a span
// belongs to — (view name, connection Seq), the transport's own
// correlation key — so the client and server halves of one request can be
// joined after the run.
type span struct {
	id, parent uint64
	kind       spanKind
	detail     uint8 // opKind for kOp, wire.Type for request spans
	start, end int64 // ns since the tracer's epoch
	peer       string
	seq        uint64
	n          int32 // payload size where it matters (entries or bytes)
}

func (s span) dur() int64 { return s.end - s.start }

// spanBuf is an append-only span list. Driver goroutines own one each (the
// lock is uncontended there); server-side recorders share one.
type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// captureLimit bounds how many inputs are kept for the post-run replays
// (wire.Encode/Decode, Store.Commit/Extract).
const captureLimit = 4096

type capturedCommit struct {
	writer string
	img    *image.Image
	ops    int
}

type capturedExtract struct {
	view string
	gap  uint64 // reply.Version - req.Since: how far behind the puller was
	init bool
	n    int // entries in the live reply
}

type openReq struct {
	id, parent uint64
	start      int64
	typ        wire.Type
	since      uint64
}

type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	views sync.Map // view name → *viewTrace

	shared spanBuf // server-side, handler, codec and replication spans

	// Server-side request correlation (one mutex: the observers run on
	// many transport goroutines).
	mu       sync.Mutex
	serve    map[reqKey]openReq // client requests being served
	serveBy  map[string]openReq // view → its open kServe span
	recent   uint64             // most recently opened, still open kServe
	legs     map[reqKey]openReq // DM-initiated calls in flight
	hops     map[uint64]openReq // router→shard hops in flight, by bridge Seq
	msgs     [][]byte           // captured wire messages (encoded)
	commits  []capturedCommit
	extracts []capturedExtract

	// Counters kept at the boundaries where the work happens.
	serverMsgs atomic.Int64
}

type reqKey struct {
	peer string
	seq  uint64
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		serve:   map[reqKey]openReq{},
		serveBy: map[string]openReq{},
		legs:    map[reqKey]openReq{},
		hops:    map[uint64]openReq{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }
func (t *tracer) id() uint64 { return t.nextID.Add(1) }

// hooks returns the server-side decorators for boot.
func (t *tracer) hooks() hooks {
	return hooks{
		codec:     func(db *airline.ReservationSystem) image.Codec { return &tracedPrimary{inner: db, t: t} },
		resolver:  t.wrapResolver,
		serverObs: transport.ObserverFunc(t.onServerMessage),
		bridgeObs: transport.ObserverFunc(t.onBridgeMessage),
		replEp:    func(ep transport.Endpoint) transport.Endpoint { return &tracedReplEp{Endpoint: ep, t: t} },
	}
}

// onServerMessage observes every frame crossing the listener's wire.
func (t *tracer) onServerMessage(from, to string, m *wire.Message) {
	t.serverMsgs.Add(1)
	if m.Type == wire.THello || m.Type == wire.THelloAck {
		return
	}
	now := t.now()
	reply := m.IsReply()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.msgs) < captureLimit {
		// Handlers may reuse the message after the observer returns, so
		// the capture is its encoding, taken now.
		t.msgs = append(t.msgs, wire.Encode(m))
	}
	switch {
	case to == dirName && !reply: // client request arrives
		o := openReq{id: t.id(), start: now, typ: m.Type, since: uint64(m.Since)}
		t.serve[reqKey{from, m.Seq}] = o
		t.serveBy[from] = o
		t.recent = o.id
		if m.Type == wire.TPush && m.Img != nil && len(t.commits) < captureLimit {
			t.commits = append(t.commits, capturedCommit{writer: from, img: m.Img.Clone(), ops: int(m.Ops)})
		}
	case from == dirName && reply: // its reply leaves
		k := reqKey{to, m.Seq}
		o, ok := t.serve[k]
		if !ok {
			return
		}
		delete(t.serve, k)
		if t.serveBy[to].id == o.id {
			delete(t.serveBy, to)
		}
		if t.recent == o.id {
			t.recent = 0
			for _, other := range t.serve {
				t.recent = other.id
				break
			}
		}
		sp := span{id: o.id, kind: kServe, detail: uint8(o.typ), start: o.start, end: now, peer: to, seq: m.Seq}
		if m.Img != nil {
			sp.n = int32(m.Img.Len())
		}
		t.shared.add(sp)
		if (o.typ == wire.TPull || o.typ == wire.TInit) && m.Type == wire.TImage && len(t.extracts) < captureLimit {
			t.extracts = append(t.extracts, capturedExtract{
				view: to, gap: uint64(m.Version) - o.since, init: o.typ == wire.TInit, n: int(sp.n),
			})
		}
	case from == dirName && !reply: // DM-initiated call to a view
		// The observer cannot see which request caused a leg; it is
		// attached to the most recently opened request still being served
		// (exact with one request in flight, best effort with more).
		t.legs[reqKey{to, m.Seq}] = openReq{id: t.id(), parent: t.recent, start: now, typ: m.Type}
	case to == dirName && reply: // the view's answer
		k := reqKey{from, m.Seq}
		o, ok := t.legs[k]
		if !ok {
			return
		}
		delete(t.legs, k)
		t.shared.add(span{id: o.id, parent: o.parent, kind: kLeg, detail: uint8(o.typ), start: o.start, end: now, peer: from, seq: m.Seq})
		if m.Img != nil && m.Img.Len() > 0 && len(t.commits) < captureLimit {
			t.commits = append(t.commits, capturedCommit{writer: from, img: m.Img.Clone(), ops: int(m.Ops)})
		}
	}
}

// onBridgeMessage observes the in-process router→shard hops. The envelope
// names the originating view, and a view has one request in flight, so the
// hop is joined to its kServe span exactly.
func (t *tracer) onBridgeMessage(from, to string, m *wire.Message) {
	now := t.now()
	switch {
	case m.Type == wire.TRouted && from == dirName:
		t.mu.Lock()
		o := t.serveBy[m.View]
		t.hops[m.Seq] = openReq{parent: o.id, start: now, typ: o.typ}
		t.mu.Unlock()
	case m.IsReply() && to == dirName:
		t.mu.Lock()
		o, ok := t.hops[m.Seq]
		delete(t.hops, m.Seq)
		t.mu.Unlock()
		if ok {
			t.shared.add(span{id: t.id(), parent: o.parent, kind: kShardHop, detail: uint8(o.typ), start: o.start, end: now, peer: from, seq: m.Seq})
		}
	}
}

func (t *tracer) recentServe() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent
}

// tracedPrimary times the original component's codec. It keeps the keyed
// extractor so the store's delta-pull fast path stays on.
type tracedPrimary struct {
	inner *airline.ReservationSystem
	t     *tracer
}

func (c *tracedPrimary) record(kind spanKind, start int64, img *image.Image) {
	sp := span{id: c.t.id(), parent: c.t.recentServe(), kind: kind, start: start, end: c.t.now()}
	if img != nil {
		sp.n = int32(img.Len())
	}
	c.t.shared.add(sp)
}

func (c *tracedPrimary) Extract(props property.Set) (*image.Image, error) {
	start := c.t.now()
	img, err := c.inner.Extract(props)
	c.record(kDMExtract, start, img)
	return img, err
}

func (c *tracedPrimary) ExtractKeys(props property.Set, keys []string) (*image.Image, error) {
	start := c.t.now()
	img, err := c.inner.ExtractKeys(props, keys)
	c.record(kDMExtract, start, img)
	return img, err
}

func (c *tracedPrimary) Merge(img *image.Image, props property.Set) error {
	start := c.t.now()
	err := c.inner.Merge(img, props)
	c.record(kDMMerge, start, img)
	return err
}

func (t *tracer) wrapResolver(r image.Resolver) image.Resolver {
	return func(c image.Conflict) (image.Entry, error) {
		start := t.now()
		e, err := r(c)
		t.shared.add(span{id: t.id(), parent: t.recentServe(), kind: kResolve, start: start, end: t.now()})
		return e, err
	}
}

// tracedReplEp times every replication batch on the primary→standby link.
type tracedReplEp struct {
	transport.Endpoint
	t *tracer
}

func (e *tracedReplEp) Call(to string, req *wire.Message) (*wire.Message, error) {
	start := e.t.now()
	reply, err := e.Endpoint.Call(to, req)
	e.t.shared.add(span{id: e.t.id(), parent: e.t.recentServe(), kind: kReplShip, start: start, end: e.t.now(), n: int32(len(req.Blob))})
	return reply, err
}

// viewTrace is the client-side trace state of one view. A view is driven
// by one driver goroutine, which records into its own buffer; DM-initiated
// handlers run on the connection's goroutines and record into the shared
// one.
type viewTrace struct {
	t    *tracer
	name string
	buf  *spanBuf // the owning driver's

	curOp      uint64        // open kOp span (driver goroutine only)
	curCache   atomic.Uint64 // open cache.* span
	curHandler atomic.Uint64 // open cache.handler span
	lastSeq    atomic.Uint64 // Seq of the view's latest outgoing request

	mu       sync.Mutex
	handlers map[uint64]openReq
}

func (t *tracer) newView(name string, buf *spanBuf) *viewTrace {
	vt := &viewTrace{t: t, name: name, buf: buf, handlers: map[uint64]openReq{}}
	t.views.Store(name, vt)
	return vt
}

func (t *tracer) dropView(name string) { t.views.Delete(name) }

// onClientMessage observes the frames of every connection the benchmark's
// DialNetwork dialed.
func (t *tracer) onClientMessage(from, to string, m *wire.Message) {
	reply := m.IsReply()
	if !reply {
		if v, ok := t.views.Load(from); ok { // the view's own request going out
			v.(*viewTrace).lastSeq.Store(m.Seq)
			return
		}
		if v, ok := t.views.Load(to); ok { // DM-initiated request arriving
			vt := v.(*viewTrace)
			id := t.id()
			vt.mu.Lock()
			vt.handlers[m.Seq] = openReq{id: id, start: t.now(), typ: m.Type}
			vt.mu.Unlock()
			vt.curHandler.Store(id)
		}
		return
	}
	if v, ok := t.views.Load(from); ok { // the view's handler reply going out
		vt := v.(*viewTrace)
		vt.mu.Lock()
		o, ok := vt.handlers[m.Seq]
		delete(vt.handlers, m.Seq)
		vt.mu.Unlock()
		if !ok {
			return
		}
		vt.curHandler.CompareAndSwap(o.id, 0)
		t.shared.add(span{id: o.id, kind: kHandler, detail: uint8(o.typ), start: o.start, end: t.now(), peer: from, seq: m.Seq})
	}
}

// begin/end bracket one of the benchmark's own calls into the cache layer.
func (vt *viewTrace) begin() (id uint64, start int64) {
	id = vt.t.id()
	vt.curCache.Store(id)
	return id, vt.t.now()
}

func (vt *viewTrace) end(kind spanKind, id uint64, start int64) {
	vt.curCache.Store(0)
	vt.buf.add(span{id: id, parent: vt.curOp, kind: kind, start: start, end: vt.t.now(), peer: vt.name})
}

// tracedEndpoint times the view's client-initiated calls.
type tracedEndpoint struct {
	transport.Endpoint
	vt *viewTrace
}

func (e *tracedEndpoint) Call(to string, req *wire.Message) (*wire.Message, error) {
	start := e.vt.t.now()
	reply, err := e.Endpoint.Call(to, req)
	e.vt.buf.add(span{
		id: e.vt.t.id(), parent: e.vt.curCache.Load(), kind: kRTT, detail: uint8(req.Type),
		start: start, end: e.vt.t.now(), peer: e.vt.name, seq: e.vt.lastSeq.Load(),
	})
	return reply, err
}

// tracedViewCodec times the view's extractFromView / mergeIntoView. The
// cache manager calls it both from the driver's goroutine (push extract,
// pull merge) and from DM-initiated handlers (fetch/invalidate extract).
type tracedViewCodec struct {
	inner image.Codec
	vt    *viewTrace
}

// detail values of view-codec spans: which side of the cache manager the
// call ran under.
const (
	underHandler uint8 = 1
	underCache   uint8 = 2
)

func (c *tracedViewCodec) record(kind spanKind, start int64, img *image.Image) {
	parent, under := c.vt.curHandler.Load(), underHandler
	if parent == 0 {
		parent, under = c.vt.curCache.Load(), underCache
	}
	sp := span{id: c.vt.t.id(), parent: parent, kind: kind, detail: under, start: start, end: c.vt.t.now(), peer: c.vt.name}
	if img != nil {
		sp.n = int32(img.Len())
	}
	c.vt.t.shared.add(sp)
}

func (c *tracedViewCodec) Extract(props property.Set) (*image.Image, error) {
	start := c.vt.t.now()
	img, err := c.inner.Extract(props)
	c.record(kCMExtract, start, img)
	return img, err
}

func (c *tracedViewCodec) Merge(img *image.Image, props property.Set) error {
	start := c.vt.t.now()
	err := c.inner.Merge(img, props)
	c.record(kCMMerge, start, img)
	return err
}

// allSpans gathers every buffer's spans and resolves the parents that can
// only be joined after the run: a kServe span hangs under the client kRTT
// span of the same request, a kHandler span under the DM's kLeg.
func (t *tracer) allSpans(driverBufs []*spanBuf) []span {
	var all []span
	collect := func(b *spanBuf) {
		b.mu.Lock() // the replication heartbeat may still be recording
		all = append(all, b.spans...)
		b.mu.Unlock()
	}
	for _, b := range driverBufs {
		collect(b)
	}
	collect(&t.shared)
	rtt := map[reqKey]uint64{}
	leg := map[reqKey]uint64{}
	for _, s := range all {
		switch s.kind {
		case kRTT:
			rtt[reqKey{s.peer, s.seq}] = s.id
		case kLeg:
			leg[reqKey{s.peer, s.seq}] = s.id
		}
	}
	for i := range all {
		s := &all[i]
		switch s.kind {
		case kServe:
			s.parent = rtt[reqKey{s.peer, s.seq}]
		case kHandler:
			s.parent = leg[reqKey{s.peer, s.seq}]
		}
	}
	return all
}

// writeTrace writes the spans as JSON lines: one header line, then one
// object per span with name, start, end (ns), parent and request id.
func writeTrace(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans\":%d,\"time_unit\":\"ns\"}\n", workload, seed, len(spans))
	buf := make([]byte, 0, 256)
	for _, s := range spans {
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendUint(buf, s.id, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, s.parent, 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, spanNames[s.kind]...)
		buf = append(buf, `","detail":"`...)
		switch s.kind {
		case kOp:
			buf = append(buf, opKind(s.detail).String()...)
		case kRTT, kServe, kShardHop, kLeg, kHandler:
			buf = append(buf, wire.Type(s.detail).String()...)
		}
		buf = append(buf, `","start":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, `,"req":"`...)
		if s.seq != 0 {
			buf = append(buf, s.peer...)
			buf = append(buf, '#')
			buf = strconv.AppendUint(buf, s.seq, 10)
		}
		buf = append(buf, "\"}\n"...)
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
