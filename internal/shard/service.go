package shard

import (
	"fmt"
	"sync"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/transport"
	"flecc/internal/vclock"
)

// ServiceConfig configures a sharded directory service.
type ServiceConfig struct {
	// Name is the logical directory name cache managers dial ("dm" by
	// default). Shard nodes attach as Node(Name, i).
	Name string
	// Net is the transport all parties share.
	Net transport.Network
	// Clock drives the shard stores' timestamps.
	Clock vclock.Clock
	// Shards is the initial shard count (>= 1).
	Shards int
	// Replicas is the virtual-node count per shard on the ring
	// (DefaultReplicas when 0).
	Replicas int
	// Primary yields the primary-copy codec for shard i. Each shard needs
	// its own codec instance when they serve disjoint data concurrently —
	// a shared codec would serialize every shard on its one lock. Callers
	// whose shards front one database (fleccd's airline DB) return one
	// shared instance, so every shard extracts from the same primary.
	Primary func(i int) image.Codec
	// Opts is applied to every shard directory manager.
	Opts directory.Options

	// Standby, when non-nil, yields a standby codec for shard i: every
	// shard gets a hot-standby directory manager (node StandbyNode(Name,
	// i)) fed by the primary's replication session, and the router is
	// armed to promote it when the primary's lease lapses.
	Standby func(i int) image.Codec
	// Repl tunes the per-shard replication sessions (Standby mode).
	Repl directory.ReplConfig
	// Lease is the shard primaries' router-side lease (Standby mode;
	// DefaultLease when 0).
	Lease vclock.Duration
	// LeaseSleep overrides how the router waits out a lease remainder
	// (nil = wall-clock sleep; simulated-time tests inject one).
	LeaseSleep func(vclock.Duration)
}

// DefaultLease is the shard-primary lease applied when ServiceConfig
// enables standbys without choosing one (milliseconds of the service
// clock).
const DefaultLease vclock.Duration = 500

// StandbyNode renders the conventional node name for shard i's hot
// standby: "db!s0r", "db!s1r", … The trailing 'r' (replica) keeps it
// outside the IsNode namespace, so tooling never mistakes a standby for
// a member shard.
func StandbyNode(base string, i int) string { return Node(base, i) + "r" }

// Service bundles a sharded directory: N directory managers attached
// under shard node names, the shard map, and the router serving the
// logical name. It replaces a bare directory.Manager in deployments that
// outgrow one; cache managers are none the wiser.
type Service struct {
	cfg ServiceConfig
	m   *Map
	r   *Router

	mu       sync.Mutex
	dms      []*directory.Manager    // index i serves Node(cfg.Name, i)
	standbys []*directory.Manager    // index i serves StandbyNode(cfg.Name, i); nil entries without Standby
	repls    []*directory.Replicator // index i replicates shard i to its standby
}

// NewService builds and attaches the shard directory managers and the
// router. On error, everything already attached is torn down.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Name == "" {
		cfg.Name = "dm"
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", cfg.Shards)
	}
	if cfg.Net == nil || cfg.Clock == nil || cfg.Primary == nil {
		return nil, fmt.Errorf("shard: Net, Clock, and Primary are required")
	}
	s := &Service{cfg: cfg, m: NewMap(cfg.Replicas)}
	for i := 0; i < cfg.Shards; i++ {
		if err := s.attachShard(i); err != nil {
			s.Close()
			return nil, err
		}
	}
	r, err := NewRouter(cfg.Net, cfg.Name, s.m)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.r = r
	if cfg.Standby != nil {
		lease := cfg.Lease
		if lease == 0 {
			lease = DefaultLease
		}
		r.SetFailover(FailoverConfig{Clock: cfg.Clock, Lease: lease, Sleep: cfg.LeaseSleep})
		for i := 0; i < cfg.Shards; i++ {
			r.SetStandby(Node(cfg.Name, i), StandbyNode(cfg.Name, i))
		}
	}
	return s, nil
}

// attachShard creates directory manager i (and, when configured, its hot
// standby plus the replication session feeding it) and adds the primary
// to the map. The router does not exist yet; NewService arms its
// failover once every shard is attached.
func (s *Service) attachShard(i int) error {
	node := Node(s.cfg.Name, i)
	dm, err := directory.New(node, s.cfg.Primary(i), s.cfg.Clock, s.cfg.Net, s.cfg.Opts)
	if err != nil {
		return fmt.Errorf("shard: attach %s: %w", node, err)
	}
	var sb *directory.Manager
	var repl *directory.Replicator
	if s.cfg.Standby != nil {
		sbOpts := s.cfg.Opts
		sbOpts.Standby = true
		sbOpts.Snapshot = nil
		sb, err = directory.New(StandbyNode(s.cfg.Name, i), s.cfg.Standby(i), s.cfg.Clock, s.cfg.Net, sbOpts)
		if err != nil {
			_ = dm.Close()
			return fmt.Errorf("shard: attach standby for %s: %w", node, err)
		}
		repl, err = dm.StartReplication(s.cfg.Repl, directory.ReplTarget{Name: sb.Name()})
		if err != nil {
			_ = sb.Close()
			_ = dm.Close()
			return fmt.Errorf("shard: replicate %s: %w", node, err)
		}
	}
	s.mu.Lock()
	s.dms = append(s.dms, dm)
	s.standbys = append(s.standbys, sb)
	s.repls = append(s.repls, repl)
	s.mu.Unlock()
	s.m.Add(node)
	return nil
}

// Standby returns shard i's hot-standby directory manager (nil without
// standbys or out of range).
func (s *Service) Standby(i int) *directory.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.standbys) {
		return nil
	}
	return s.standbys[i]
}

// Replication returns shard i's replication session (nil without
// standbys or out of range).
func (s *Service) Replication(i int) *directory.Replicator {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.repls) {
		return nil
	}
	return s.repls[i]
}

// Router returns the logical-endpoint router.
func (s *Service) Router() *Router { return s.r }

// Map returns the shard map.
func (s *Service) Map() *Map { return s.m }

// Name returns the logical directory name.
func (s *Service) Name() string { return s.cfg.Name }

// NumShards returns the current shard count.
func (s *Service) NumShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dms)
}

// Shard returns shard i's directory manager (nil when out of range).
func (s *Service) Shard(i int) *directory.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.dms) {
		return nil
	}
	return s.dms[i]
}

// Close detaches the router, stops the replication sessions, and closes
// every shard directory manager (standbys included). The manager
// teardowns fan out concurrently; a TCP-backed deployment with many
// shards should not pay N sequential connection drains.
func (s *Service) Close() error {
	var first error
	if s.r != nil {
		first = s.r.Close()
	}
	s.mu.Lock()
	dms := append([]*directory.Manager(nil), s.dms...)
	for _, sb := range s.standbys {
		if sb != nil {
			dms = append(dms, sb)
		}
	}
	repls := append([]*directory.Replicator(nil), s.repls...)
	s.mu.Unlock()
	for _, repl := range repls {
		if repl != nil {
			repl.Close()
		}
	}
	errs := make([]error, len(dms))
	var wg sync.WaitGroup
	for i, dm := range dms {
		wg.Add(1)
		go func(i int, dm *directory.Manager) {
			defer wg.Done()
			errs[i] = dm.Close()
		}(i, dm)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
