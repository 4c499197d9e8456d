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
}

// Service bundles a sharded directory: N directory managers attached
// under shard node names, the shard map, and the router serving the
// logical name. It replaces a bare directory.Manager in deployments that
// outgrow one; cache managers are none the wiser.
type Service struct {
	cfg ServiceConfig
	m   *Map
	r   *Router

	mu  sync.Mutex
	dms []*directory.Manager // index i serves Node(cfg.Name, i)
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
	return s, nil
}

// attachShard creates directory manager i and adds it to the map.
func (s *Service) attachShard(i int) error {
	node := Node(s.cfg.Name, i)
	dm, err := directory.New(node, s.cfg.Primary(i), s.cfg.Clock, s.cfg.Net, s.cfg.Opts)
	if err != nil {
		return fmt.Errorf("shard: attach %s: %w", node, err)
	}
	s.mu.Lock()
	s.dms = append(s.dms, dm)
	s.mu.Unlock()
	s.m.Add(node)
	return nil
}

// Router returns the logical-endpoint router.
func (s *Service) Router() *Router { return s.r }

// Map returns the shard map.
func (s *Service) Map() *Map { return s.m }

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

// Close detaches the router and closes every shard directory manager.
// The manager teardowns fan out concurrently; a TCP-backed deployment
// with many shards should not pay N sequential connection drains.
func (s *Service) Close() error {
	var first error
	if s.r != nil {
		first = s.r.Close()
	}
	s.mu.Lock()
	dms := append([]*directory.Manager(nil), s.dms...)
	s.mu.Unlock()
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
