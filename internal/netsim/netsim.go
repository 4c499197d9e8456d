// Package netsim provides the deterministic simulated LAN/WAN on which all
// experiments run. It composes the in-process transport with (i) a
// topology of hosts and links carrying latency and security attributes,
// (ii) a virtual-clock latency model, and (iii) per-edge traffic
// statistics.
//
// The paper evaluates Flecc on a real LAN; this reproduction substitutes a
// simulated one so the figures are exactly reproducible. The latency model
// is serial: each delivered message (request or reply) advances the shared
// virtual clock by the latency of the link it crosses, so a synchronous
// call between two nodes costs one round trip of virtual time, and nested
// calls (e.g. invalidations issued while serving a pull) accumulate — this
// is the quantity Figure 5 plots as per-operation execution time.
package netsim

import (
	"fmt"
	"sync"

	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Link describes a directed connection between two hosts.
type Link struct {
	// Latency is the one-way delivery delay in virtual ms.
	Latency vclock.Duration
	// BytesPerMs, when positive, models link bandwidth: each message
	// additionally costs ceil(frameLen/BytesPerMs) virtual ms, frameLen
	// being the length of the frame the in-process transport carried it
	// in. Zero means infinite bandwidth (pure latency, the default).
	BytesPerMs int
	// Secure marks links that do not require encryptor/decryptor
	// insertion (used by the PSF planning module, not the latency model).
	Secure bool
}

// costOf returns the virtual time to deliver a frame of size bytes over
// the link.
func (l Link) costOf(size int) vclock.Duration {
	d := l.Latency
	if l.BytesPerMs > 0 {
		d += vclock.Duration((size + l.BytesPerMs - 1) / l.BytesPerMs)
	}
	return d
}

// Topology is a set of named hosts and the links between them. Node names
// (views, directory managers) are *placed* onto hosts; traffic between two
// nodes is charged the latency of the link between their hosts. Traffic
// between nodes on the same host is free.
type Topology struct {
	mu        sync.RWMutex
	hosts     map[string]bool
	links     map[[2]string]Link
	placement map[string]string // node -> host
	def       Link              // default link when none is declared
}

// NewTopology returns an empty topology with the given default link, used
// for host pairs without an explicit link.
func NewTopology(def Link) *Topology {
	return &Topology{
		hosts:     map[string]bool{},
		links:     map[[2]string]Link{},
		placement: map[string]string{},
		def:       def,
	}
}

// LAN returns a topology where every pair of distinct hosts is connected
// by a symmetric secure link of the given latency — the paper's
// experimental setting ("deployed into a LAN").
func LAN(latency vclock.Duration) *Topology {
	return NewTopology(Link{Latency: latency, Secure: true})
}

// AddHost declares a host (idempotent).
func (t *Topology) AddHost(name string) {
	t.mu.Lock()
	t.hosts[name] = true
	t.mu.Unlock()
}

// Hosts returns the number of declared hosts.
func (t *Topology) Hosts() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.hosts)
}

// SetLink declares a symmetric link between two hosts (declaring the hosts
// as a side effect).
func (t *Topology) SetLink(a, b string, l Link) {
	t.mu.Lock()
	t.hosts[a], t.hosts[b] = true, true
	t.links[[2]string{a, b}] = l
	t.links[[2]string{b, a}] = l
	t.mu.Unlock()
}

// LinkBetween returns the link attributes between two hosts. Same-host
// traffic is a zero-latency secure link; unspecified pairs get the
// default.
func (t *Topology) LinkBetween(a, b string) Link {
	if a == b {
		return Link{Latency: 0, Secure: true}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if l, ok := t.links[[2]string{a, b}]; ok {
		return l
	}
	return t.def
}

// Place assigns a node name to a host (declaring the host).
func (t *Topology) Place(node, host string) {
	t.mu.Lock()
	t.hosts[host] = true
	t.placement[node] = host
	t.mu.Unlock()
}

// HostOf returns the host a node is placed on. Unplaced nodes live on the
// pseudo-host "" (all mutually local).
func (t *Topology) HostOf(node string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.placement[node]
}

// NodeLink returns the link between the hosts of two nodes.
func (t *Topology) NodeLink(from, to string) Link {
	return t.LinkBetween(t.HostOf(from), t.HostOf(to))
}

// Stats aggregates traffic by directed host edge.
type Stats struct {
	mu       sync.Mutex
	messages int64
	byEdge   map[[2]string]int64
	latency  vclock.Duration // total virtual latency charged
}

// NewStats returns empty statistics.
func NewStats() *Stats { return &Stats{byEdge: map[[2]string]int64{}} }

// Messages returns the number of delivered messages.
func (s *Stats) Messages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.messages
}

// Latency returns the total virtual latency charged to the clock.
func (s *Stats) Latency() vclock.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latency
}

// Edge returns the message count between two hosts (directed).
func (s *Stats) Edge(fromHost, toHost string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byEdge[[2]string{fromHost, toHost}]
}

func (s *Stats) record(fromHost, toHost string, l vclock.Duration) {
	s.mu.Lock()
	s.messages++
	s.latency += l
	s.byEdge[[2]string{fromHost, toHost}]++
	s.mu.Unlock()
}

// Net is the simulated network: an in-process transport whose deliveries
// advance a virtual clock according to the topology.
type Net struct {
	*transport.Inproc
	clock *vclock.Sim
	topo  *Topology
	stats *Stats

	mu          sync.Mutex
	partitioned map[[2]string]bool // host pair (ordered) -> cut
	dropped     int64
	hook        func(from, to string, m *wire.Message) error
}

// New builds a simulated network over the given clock and topology.
func New(clock *vclock.Sim, topo *Topology) *Net {
	n := &Net{
		Inproc:      transport.NewInproc(),
		clock:       clock,
		topo:        topo,
		stats:       NewStats(),
		partitioned: map[[2]string]bool{},
	}
	n.SetBeforeDeliver(func(from, to string, _ *wire.Message, size int) {
		link := topo.NodeLink(from, to)
		cost := link.costOf(size)
		if cost > 0 {
			clock.Advance(cost)
		}
		n.stats.record(topo.HostOf(from), topo.HostOf(to), cost)
	})
	n.SetFaultInjector(func(from, to string, m *wire.Message) error {
		ha, hb := topo.HostOf(from), topo.HostOf(to)
		n.mu.Lock()
		cut := n.partitioned[hostPair(ha, hb)]
		if cut {
			n.dropped++
		}
		hook := n.hook
		n.mu.Unlock()
		if cut {
			return fmt.Errorf("netsim: partition between %q and %q", ha, hb)
		}
		if hook != nil {
			if err := hook(from, to, m); err != nil {
				n.mu.Lock()
				n.dropped++
				n.mu.Unlock()
				return err
			}
		}
		return nil
	})
	return n
}

// SetDeliveryHook installs a schedule-controlled delivery gate: fn runs
// before every request delivery (after the partition check), and a non-nil
// error fails the send at the caller as a dead link would. Deterministic
// drivers — the model checker, fault schedules, replay tests — use it to
// decide per message whether delivery happens, without the randomness of
// transport.Faulty. Refused messages count toward Dropped. A nil fn
// removes the hook. Safe to call between deliveries; not concurrently with
// traffic it must gate.
func (n *Net) SetDeliveryHook(fn func(from, to string, m *wire.Message) error) {
	n.mu.Lock()
	n.hook = fn
	n.mu.Unlock()
}

func hostPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition cuts all traffic between two hosts (both directions) until
// Heal. Requests crossing the cut fail at the sender with an error, as a
// dead link would.
func (n *Net) Partition(hostA, hostB string) {
	n.mu.Lock()
	n.partitioned[hostPair(hostA, hostB)] = true
	n.mu.Unlock()
}

// Heal restores traffic between two hosts.
func (n *Net) Heal(hostA, hostB string) {
	n.mu.Lock()
	delete(n.partitioned, hostPair(hostA, hostB))
	n.mu.Unlock()
}

// Dropped returns how many messages the partitions have refused.
func (n *Net) Dropped() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// Topology returns the network's topology.
func (n *Net) Topology() *Topology { return n.topo }

// Stats returns the traffic statistics.
func (n *Net) Stats() *Stats { return n.stats }

// String summarizes the network.
func (n *Net) String() string {
	return fmt.Sprintf("netsim{hosts: %d, msgs: %d, t: %v}",
		n.topo.Hosts(), n.stats.Messages(), n.clock.Now())
}
