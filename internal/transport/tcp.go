package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flecc/internal/wire"
)

// peer manages one full-duplex framed connection. Both sides can initiate
// requests; the read loop demultiplexes replies (matched by Seq to a
// pending call) from incoming requests, each handed to a parked worker or,
// when none is parked, to a new one. The read loop never waits for a
// handler, so a handler may itself issue nested calls over the same
// connection without deadlocking, and replies go out in whatever order
// their handlers finish.
type peer struct {
	name    string // local node name
	conn    net.Conn
	handler Handler
	// obs observes every frame crossing this connection — incoming
	// requests and replies as they are read, outgoing requests and
	// replies as they are written — giving the process a complete local
	// wire view. Nil disables observation.
	obs *Observers

	// fr is the buffered, scratch-reusing frame reader over conn: only the
	// read loop touches it. wq is the group-commit outbound path: any
	// goroutine enqueues on it, and concurrent frames coalesce into
	// batched writes while preserving enqueue order. stats is the shared
	// counter set wq reports to (also counts late replies).
	fr    *wire.FrameReader
	wq    *writeQueue
	stats *WireStats

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	closed  bool
	err     error

	seq atomic.Uint64

	// work hands requests from the read loop to parked workers (see
	// worker); idle counts the workers parked on it. The read loop closes
	// work when it ends, so parked workers exit through wg.
	work chan *wire.Message
	idle atomic.Int32
	// serving counts the requests read but not yet answered: a reply is
	// counted out once it is queued.
	serving atomic.Int32

	// onFirstMessage, if set, is invoked with the first message received;
	// the TCP server uses it to admit the connection under the remote
	// node's name. A non-nil error rejects the connection: the peer
	// answers with a TErr frame and shuts down (the name-collision guard).
	onFirstMessage func(first *wire.Message, p *peer) error

	onClose func(p *peer)
	wg      sync.WaitGroup
}

// pendingCall is one outbound request waiting for its reply. It resolves
// exactly once — when the matching reply arrives, when the caller times
// out, or when the peer shuts down — and every resolution path goes
// through the peer's pending map under its mutex, so a reply racing a
// timeout is never delivered twice and a reply arriving after the
// timeout is counted and dropped by the read loop.
//
// Records are pooled (calls). One goes back to the pool only after its
// caller has consumed done, by which time its Seq has left the pending
// map, so a late reply (matched by Seq) can never reach a recycled record.
type pendingCall struct {
	seq uint64
	// done (buffer 1) is signalled once, by the winning resolver under
	// p.mu; reply/err are written before the signal and must only be read
	// after it.
	done  chan struct{}
	reply *wire.Message
	err   error
	// timer bounds the call when the peer has a timeout; it is created on
	// the record's first bounded call and Reset for each later one.
	timer *time.Timer
}

// calls pools pendingCall records with their done channel and timer.
var calls = sync.Pool{
	New: func() any { return &pendingCall{done: make(chan struct{}, 1)} },
}

func newPeer(name string, conn net.Conn, h Handler, stats *WireStats) *peer {
	p := &peer{
		name:    name,
		conn:    conn,
		handler: h,
		fr:      wire.NewFrameReader(conn),
		wq:      newWriteQueue(conn, stats),
		stats:   stats,
		pending: map[uint64]*pendingCall{},
		work:    make(chan *wire.Message),
	}
	// Enqueued frames have no blocked sender to carry a write error back,
	// so the drainer reports poisoning here; shutdown is idempotent.
	p.wq.onFail = func(err error) { p.shutdown(err) }
	return p
}

func (p *peer) start() {
	p.wg.Add(1)
	go p.readLoop()
}

func (p *peer) readLoop() {
	defer p.wg.Done()
	defer close(p.work)
	corked := false
	first := true
	for {
		m, err := p.fr.Read()
		if err != nil {
			p.shutdown(err)
			return
		}
		// Burst batching: while more input is already buffered, hold the
		// async write drain so replies (and piggybacked requests) gather
		// into one flush; release just before the next Read would block,
		// which bounds every cork to the burst being drained.
		if nowCorked := p.fr.Buffered() > 0; nowCorked != corked {
			corked = nowCorked
			if corked {
				p.wq.cork()
			} else {
				p.wq.uncork()
			}
		}
		acked := false
		if first && p.onFirstMessage != nil {
			if rejected := p.onFirstMessage(m, p); rejected != nil {
				// Best-effort courtesy reply, written straight to the conn:
				// a rejected peer was never published, so nothing else can
				// be queued on it. If even that write fails, the failure
				// joins the rejection reason so shutdown (and the eviction
				// metrics behind onClose) see the full story.
				if werr := wire.WriteFrame(p.conn, &wire.Message{Type: wire.TErr, Seq: m.Seq, From: p.name, Err: rejected.Error()}); werr != nil {
					rejected = errors.Join(rejected, werr)
				}
				p.shutdown(rejected)
				return
			}
			acked = m.Type == wire.THello
		}
		first = false
		if p.obs != nil {
			p.obs.OnMessage(m.From, p.name, m)
		}
		if m.Type == wire.THello {
			// Connection handshake, never dispatched to the handler. The
			// server's admission queued the ack before publishing the peer,
			// so no server call can reach the dialer ahead of it.
			if acked && p.obs != nil {
				p.obs.OnMessage(p.name, m.From, helloAck(m, p.name))
			}
			continue
		}
		if m.IsReply() {
			p.mu.Lock()
			c, ok := p.pending[m.Seq]
			if ok {
				p.finishLocked(c, m, nil)
			}
			p.mu.Unlock()
			// Unmatched replies (caller timed out or abandoned the call)
			// are dropped here, never delivered to a recycled Seq; the
			// counter makes the drop observable.
			if !ok && p.stats != nil {
				p.stats.late.Add(1)
			}
			continue
		}
		// Request: a parked worker takes it if one is waiting; otherwise
		// it gets a worker of its own, so every request is served at once
		// and nested calls work.
		p.serving.Add(1)
		select {
		case p.work <- m:
		default:
			p.wg.Add(1)
			go p.worker(m)
		}
	}
}

// maxIdleWorkers caps the workers a peer keeps parked between requests.
const maxIdleWorkers = 8

// worker serves req, then parks for the next request the read loop hands
// over. It exits when the read loop ends, or instead of parking when
// maxIdleWorkers others are parked already. Each reply is enqueued like
// every frame, so concurrent replies coalesce into shared flushes.
func (p *peer) worker(req *wire.Message) {
	defer p.wg.Done()
	for {
		reply := p.serve(req)
		reply.Seq = req.Seq
		reply.From = p.name
		if p.obs != nil {
			p.obs.OnMessage(p.name, req.From, reply)
		}
		if err := p.wq.sendAsync(reply); err != nil {
			p.shutdown(err)
		}
		p.serving.Add(-1)
		if p.idle.Add(1) > maxIdleWorkers {
			p.idle.Add(-1)
			return
		}
		var ok bool
		req, ok = <-p.work
		p.idle.Add(-1)
		if !ok {
			return
		}
	}
}

func (p *peer) serve(req *wire.Message) (reply *wire.Message) {
	defer func() {
		if r := recover(); r != nil {
			reply = &wire.Message{Type: wire.TErr, Err: fmt.Sprintf("handler panic: %v", r)}
		}
	}()
	if p.handler == nil {
		return &wire.Message{Type: wire.TErr, Err: "no handler"}
	}
	reply = p.handler(req)
	if reply == nil {
		reply = &wire.Message{Type: wire.TAck}
	}
	return reply
}

// call sends a request and waits for its reply, bounded by timeout (0 =
// no bound). Concurrent callers share the connection: their requests
// coalesce into shared flushes and the read loop matches each reply by
// Seq. A TErr reply comes back as the reply plus a wire.RemoteError.
//
// The caller's message is never written to: Seq and From are stamped as
// the header is encoded, so the caller may retry the same message after a
// timeout or failure. Observers, if any, get a stamped copy.
func (p *peer) call(to string, req *wire.Message, timeout time.Duration) (*wire.Message, error) {
	p.mu.Lock()
	if p.closed {
		err := p.err
		p.mu.Unlock()
		return nil, fmt.Errorf("transport: call on closed peer: %w", err)
	}
	c := calls.Get().(*pendingCall)
	c.seq = p.seq.Add(1)
	p.pending[c.seq] = c
	p.mu.Unlock()

	if p.obs != nil && p.obs.active() {
		r := *req
		r.Seq, r.From = c.seq, p.name
		p.obs.OnMessage(p.name, to, &r)
	}
	if err := p.wq.sendAs(req, c.seq, p.name); err != nil {
		p.shutdown(err) // resolves c with err
	}
	if timeout > 0 {
		if c.timer == nil {
			c.timer = time.NewTimer(timeout)
		} else {
			c.timer.Reset(timeout)
		}
		select {
		case <-c.done:
			c.stopTimer()
		case <-c.timer.C:
			// Resolve-or-lose: if the reply won the race, finish is a no-op
			// and the real reply below is returned.
			p.finish(c, nil, fmt.Errorf("transport: call to peer timed out after %v", timeout))
			<-c.done
		}
	} else {
		<-c.done
	}
	reply, err := c.reply, c.err
	c.reply, c.err = nil, nil
	calls.Put(c)
	if err != nil {
		return nil, err
	}
	return reply, wire.ErrorOf(reply)
}

// stopTimer stops the timer of a call that resolved before it fired. A
// timer whose tick may still be on its way (Stop lost the race and the
// channel is empty) is dropped rather than reused, so a stale tick can
// never time out the record's next call. That holds under both
// timer-channel semantics: with synchronous channels the drain finds
// nothing and the timer is dropped, which only costs the next call a
// fresh one.
func (c *pendingCall) stopTimer() {
	if c.timer.Stop() {
		return
	}
	select {
	case <-c.timer.C:
	default:
		c.timer = nil
	}
}

// finish resolves c exactly once. Racing resolvers (reply vs timeout vs
// shutdown) serialize on p.mu; only the one that still finds c registered
// wins, the rest are no-ops.
func (p *peer) finish(c *pendingCall, reply *wire.Message, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.finishLocked(c, reply, err)
}

func (p *peer) finishLocked(c *pendingCall, reply *wire.Message, err error) {
	if p.pending[c.seq] != c {
		return
	}
	delete(p.pending, c.seq)
	c.reply = reply
	c.err = err
	c.done <- struct{}{}
}

func (p *peer) shutdown(err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	if err == nil {
		err = ErrClosed
	}
	p.err = err
	// Resolve every in-flight call with the shutdown cause.
	callErr := fmt.Errorf("transport: call on closed peer: %w", err)
	for _, c := range p.pending {
		c.err = callErr
		c.done <- struct{}{}
	}
	p.pending = map[uint64]*pendingCall{}
	p.mu.Unlock()
	// Poison the write queue first so new senders fail fast, then close
	// the conn so an in-flight flusher's blocked write returns too.
	p.wq.fail(err)
	p.conn.Close()
	if p.onClose != nil {
		p.onClose(p)
	}
}

func (p *peer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// wait blocks until the peer's read loop and workers have drained;
// callers shut the peer down first.
func (p *peer) wait() { p.wg.Wait() }

// Server is the TCP listener side: it accepts cache-manager connections,
// routes their requests to the handler, and can initiate calls (e.g.
// invalidations) to any connected client by node name.
type Server struct {
	name    string
	ln      net.Listener
	handler Handler
	timeout time.Duration
	obs     *Observers // shared with every accepted peer

	// stats aggregates wire counters across every accepted connection.
	stats WireStats

	mu      sync.Mutex
	clients map[string]*peer
	peers   map[*peer]struct{} // every live connection, named or not yet
	closed  bool
	wg      sync.WaitGroup
}

// Serve starts a server named name on ln. The handler serves client
// requests. timeout bounds server-initiated calls (0 = no timeout).
func Serve(ln net.Listener, name string, h Handler, timeout time.Duration) *Server {
	return serveWith(ln, name, h, timeout, &Observers{})
}

// serveWith starts a server whose peers report to the given fan-out —
// the hook ServerNetwork uses so observers registered before Attach see
// the very first connection.
func serveWith(ln net.Listener, name string, h Handler, timeout time.Duration, obs *Observers) *Server {
	s := &Server{
		name: name, ln: ln, handler: h, timeout: timeout, obs: obs,
		clients: map[string]*peer{},
		peers:   map[*peer]struct{}{},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// AddObserver appends an observer that sees every frame crossing any of
// the server's connections. Safe to call concurrently with traffic.
func (s *Server) AddObserver(o Observer) { s.obs.Add(o) }

// Name returns the server's node name.
func (s *Server) Name() string { return s.name }

// WireStats snapshots the outbound wire counters aggregated across all of
// the server's connections (frames written, flushes issued, bytes sent).
func (s *Server) WireStats() WireStatsSnapshot { return s.stats.Snapshot() }

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p := newPeer(s.name, conn, s.handler, &s.stats)
		p.obs = s.obs
		p.onFirstMessage = func(first *wire.Message, pr *peer) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.closed {
				return ErrClosed
			}
			// A second connection claiming a live client's name must not
			// hijack it: the existing peer's CM still believes it is
			// attached, and rerouting its server-initiated traffic to the
			// impostor would silently orphan it. Only a closed (stale)
			// entry may be replaced — that is the reconnect path.
			if old, ok := s.clients[first.From]; ok && old != pr && !old.isClosed() {
				return fmt.Errorf("transport: node name %q is already connected", first.From)
			}
			// Queue the hello's ack before publishing: once the peer is in
			// s.clients, Server.Call can queue frames on it, and the
			// dialer's handshake must read the ack first.
			if first.Type == wire.THello {
				if err := pr.wq.sendAsync(helloAck(first, s.name)); err != nil {
					return err
				}
			}
			s.clients[first.From] = pr
			return nil
		}
		p.onClose = func(pr *peer) {
			s.mu.Lock()
			for n, q := range s.clients {
				if q == pr {
					delete(s.clients, n)
				}
			}
			delete(s.peers, pr)
			s.mu.Unlock()
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.peers[p] = struct{}{}
		s.mu.Unlock()
		p.start()
	}
}

// Call sends a request to the named connected client and waits for the
// reply. It implements the Endpoint Call shape so the directory manager
// can treat the server as its endpoint.
func (s *Server) Call(to string, req *wire.Message) (*wire.Message, error) {
	s.mu.Lock()
	p, ok := s.clients[to]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (not connected)", ErrUnknownNode, to)
	}
	return p.call(to, req, s.timeout)
}

// Close stops accepting, closes all client connections, and waits for the
// accept loop and every peer's read loop and workers to drain, so state
// observed after Close is final (no in-flight handler can still mutate it).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	peers := make([]*peer, 0, len(s.peers))
	for p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, p := range peers {
		p.shutdown(ErrClosed)
	}
	for _, p := range peers {
		p.wait()
	}
	s.wg.Wait()
	return err
}

// ServerNetwork adapts a TCP listener into a Network with exactly one
// attachable node: the server itself. It lets the directory manager run
// unmodified over TCP (fleccd).
type ServerNetwork struct {
	ln      net.Listener
	timeout time.Duration
	obs     Observers // handed to the server on Attach

	mu  sync.Mutex
	srv *Server
}

// NewServerNetwork wraps a listener. timeout bounds server-initiated calls.
func NewServerNetwork(ln net.Listener, timeout time.Duration) *ServerNetwork {
	return &ServerNetwork{ln: ln, timeout: timeout}
}

// AddObserver appends an observer that sees every frame crossing the
// server's wire; observers registered before Attach see the first
// connection too.
func (n *ServerNetwork) AddObserver(o Observer) { n.obs.Add(o) }

// Attach implements Network; only the first attachment succeeds.
func (n *ServerNetwork) Attach(name string, h Handler) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv != nil {
		return nil, fmt.Errorf("transport: server network already has node %q", n.srv.Name())
	}
	n.srv = serveWith(n.ln, name, h, n.timeout, &n.obs)
	return serverEndpoint{n.srv}, nil
}

// WireStats snapshots the server's wire counters (zero before Attach).
func (n *ServerNetwork) WireStats() WireStatsSnapshot {
	n.mu.Lock()
	srv := n.srv
	n.mu.Unlock()
	if srv == nil {
		return WireStatsSnapshot{}
	}
	return srv.WireStats()
}

type serverEndpoint struct{ s *Server }

func (e serverEndpoint) Name() string { return e.s.Name() }
func (e serverEndpoint) Call(to string, req *wire.Message) (*wire.Message, error) {
	// peer.call stamps From as it encodes; nothing to do here.
	return e.s.Call(to, req)
}
func (e serverEndpoint) Close() error { return e.s.Close() }

// DialNetwork adapts a server address into a Network: each attachment
// dials a fresh connection as the named node. It lets cache managers run
// unmodified over TCP (fleccview).
type DialNetwork struct {
	addr    string
	timeout time.Duration
	obs     Observers // joined into every dialed client's fan-out
	// DialFn, if non-nil, replaces the plain TCP dial — e.g. with a
	// secure.Dial through an encryptor/decryptor pair.
	DialFn func(addr string) (net.Conn, error)
}

// NewDialNetwork returns a dialing network for the given server address.
func NewDialNetwork(addr string, timeout time.Duration) *DialNetwork {
	return &DialNetwork{addr: addr, timeout: timeout}
}

// AddObserver appends an observer that sees every frame crossing any
// connection this network dials — including connections dialed before
// the observer was registered (the network's fan-out is a member of
// each client's).
func (n *DialNetwork) AddObserver(o Observer) { n.obs.Add(o) }

// Attach implements Network by dialing the server.
func (n *DialNetwork) Attach(name string, h Handler) (Endpoint, error) {
	var c *Client
	var err error
	if n.DialFn != nil {
		var conn net.Conn
		conn, err = n.DialFn(n.addr)
		if err != nil {
			return nil, fmt.Errorf("transport: dial %s: %w", n.addr, err)
		}
		c, err = DialConn(conn, name, h, n.timeout)
	} else {
		c, err = Dial(n.addr, name, h, n.timeout)
	}
	if err != nil {
		return nil, err
	}
	// The network-level fan-out is itself an Observer: make it a member
	// of the client's, so observers added to the network later still see
	// this connection's traffic.
	c.AddObserver(&n.obs)
	return c, nil
}

var _ Network = (*ServerNetwork)(nil)
var _ Network = (*DialNetwork)(nil)
var _ Endpoint = (*Client)(nil)

// Client is the dialing side: a cache manager connected to the directory
// server. Calls always go to the server regardless of the to argument
// (the star topology has a single hub); the handler serves server-initiated
// requests such as invalidations.
type Client struct {
	p       *peer
	timeout time.Duration
	stats   WireStats
}

// Dial connects to a Server at addr as node name. The handler serves
// server-initiated requests. timeout bounds calls as well as connection
// establishment — both the TCP dial and the hello handshake (0 = no
// timeout). The handshake matters: a listener whose process is wedged (or
// a backlogged socket nobody accepts on) completes the TCP connect just
// fine, so only an application-level ack proves there is a live peer.
func Dial(addr, name string, h Handler, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return DialConn(conn, name, h, timeout)
}

// helloAck answers a dialer's THello. The ack tells the dialer it reached
// a live peer (a dead process behind a live listener socket would leave
// the hello unanswered and trip the dialer's deadline).
func helloAck(hello *wire.Message, from string) *wire.Message {
	return &wire.Message{Type: wire.THelloAck, Seq: hello.Seq, From: from}
}

// handshake announces the dialer's node name with THello and waits for
// the peer's THelloAck, bounded by timeout. It runs before the client's
// read loop starts, so the frames are exchanged synchronously on conn.
func handshake(conn net.Conn, name string, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return fmt.Errorf("transport: handshake deadline: %w", err)
		}
		defer conn.SetDeadline(time.Time{})
	}
	if err := wire.WriteFrame(conn, &wire.Message{Type: wire.THello, From: name}); err != nil {
		return fmt.Errorf("transport: handshake with %s: %w", conn.RemoteAddr(), err)
	}
	reply, err := wire.ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("transport: handshake with %s: %w", conn.RemoteAddr(), err)
	}
	if reply.Type == wire.TErr {
		// The server rejected the connection (e.g. the node name is
		// already in use by a live peer).
		return fmt.Errorf("transport: handshake with %s: %w", conn.RemoteAddr(), &wire.RemoteError{Msg: reply.Err})
	}
	if reply.Type != wire.THelloAck {
		return fmt.Errorf("transport: handshake with %s: unexpected %s", conn.RemoteAddr(), reply.Type)
	}
	return nil
}

// DialConn builds a client over an already-established connection — e.g.
// one protected by an encryptor/decryptor pair (internal/secure) when the
// PSF plan calls for privacy over an insecure link. It performs the same
// THello handshake as Dial (it used to skip it, so the server only learned
// the client's name from its first request and an early server-initiated
// invalidate got ErrUnknownNode); the connection is closed on failure.
func DialConn(conn net.Conn, name string, h Handler, timeout time.Duration) (*Client, error) {
	if err := handshake(conn, name, timeout); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{timeout: timeout}
	c.p = newPeer(name, conn, h, &c.stats)
	c.p.obs = &Observers{}
	c.p.start()
	return c, nil
}

// Name implements Endpoint.
func (c *Client) Name() string { return c.p.name }

// AddObserver appends an observer that sees every frame crossing this
// client's connection.
func (c *Client) AddObserver(o Observer) { c.p.obs.Add(o) }

// WireStats snapshots the client connection's outbound wire counters.
func (c *Client) WireStats() WireStatsSnapshot { return c.stats.Snapshot() }

// Call implements Endpoint; the destination name is informational only
// (the star topology has a single hub), and is reported to observers.
func (c *Client) Call(to string, req *wire.Message) (*wire.Message, error) {
	return c.p.call(to, req, c.timeout)
}

// Close implements Endpoint. The server-initiated requests the client has
// already read are answered first, and their replies written, within
// closeGrace: a reply a handler has committed to — a cache manager's
// surrendered writes — is not dropped by the close that follows it. Then
// it waits for the client's read loop and any remaining handlers to
// drain.
func (c *Client) Close() error {
	c.p.quiesce(closeGrace)
	c.p.shutdown(ErrClosed)
	c.p.wait()
	return nil
}

// closeGrace bounds how long Close waits for requests in service and
// queued frames.
const closeGrace = time.Second

// quiesce waits, up to grace, until no request the peer has read is still
// in service, then writes out every queued frame, under a write deadline
// that ends with the grace.
func (p *peer) quiesce(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for p.serving.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	_ = p.conn.SetWriteDeadline(deadline) // a conn without deadlines flushes unbounded
	p.wq.flush()
}
