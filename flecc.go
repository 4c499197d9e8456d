// Package flecc is a Go implementation of Flecc, the flexible,
// application-neutral cache coherence protocol for dynamic component-based
// systems (Ivan & Karamcheti, IPPS 2004), together with the Partitionable
// Services Framework substrate it was designed for.
//
// Flecc keeps replicated component views coherent using three pieces of
// application-specific — but semantically opaque — information:
//
//   - data properties (which views share data),
//   - quality triggers (when to push/pull/validate),
//   - extract/merge methods (what state moves, and how conflicts resolve).
//
// A deployment has one directory manager attached to the original
// component (the primary copy) and one cache manager per view. Views run
// in strong mode (one active view, one-copy serializability) or weak mode
// (many active views, relaxed freshness), and can switch at run time.
//
// # Quick start
//
//	db := myComponent{}                     // implements flecc.Codec
//	sys, _ := flecc.New("db", db)           // directory manager + in-proc net
//	view, _ := sys.NewView(flecc.ViewConfig{
//	    Name:  "replica-1",
//	    View:  myReplica{},                 // also a flecc.Codec
//	    Props: flecc.MustProps("Flights={100..109}"),
//	    Mode:  flecc.Weak,
//	})
//	view.Pull()
//	view.StartUse()
//	// ... work on the replica's data ...
//	view.EndUse()
//	view.Push()
//	view.Close()
//
// The subsystems live in internal packages (property algebra, trigger
// language, transports, simulated LAN, directory/cache managers, baseline
// protocols, PSF, experiments); this package is the stable façade.
package flecc

import (
	"bytes"
	"fmt"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/metrics"
	"flecc/internal/netsim"
	"flecc/internal/property"
	"flecc/internal/registry"
	"flecc/internal/trace"
	"flecc/internal/trigger"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Mode is a view's consistency mode.
	Mode = wire.Mode
	// Image is the state snapshot moved between views and the original
	// component: a version and keyed entries. Its scope is the Props
	// argument of the Codec call that extracts or merges it.
	Image = image.Image
	// Entry is one keyed datum inside an Image.
	Entry = image.Entry
	// Codec is the application-supplied extract/merge implementation
	// (the paper's extractFromObject/mergeIntoObject and
	// extractFromView/mergeIntoView). Its methods are called
	// concurrently; see image.Merger for the contract. A codec may also
	// implement image.KeyedExtractor and ChangeExtractor; both are
	// optional and only change what an operation costs, never what it
	// does.
	Codec = image.Codec
	// ChangeExtractor is the optional codec capability "extract what
	// changed since revision r" (you may over-report, never
	// under-report). A view codec with it makes pushes and
	// directory-initiated fetches and invalidates cost the keys the view
	// changed, not the keys it holds. Asked for changes since a non-zero
	// r at or past the current revision, it returns a nil image and the
	// current revision.
	ChangeExtractor = image.ChangeExtractor
	// Conflict is a concurrent-update conflict handed to a Resolver.
	Conflict = image.Conflict
	// Resolver adjudicates conflicts.
	Resolver = image.Resolver
	// Props is a set of data properties.
	Props = property.Set
	// Property is one (name, domain) data property.
	Property = property.Property
	// Time is a discrete virtual timestamp in milliseconds.
	Time = vclock.Time
	// Version is a primary-copy update counter.
	Version = vclock.Version
	// Relation is a static conflict-map cell (1/0/-1).
	Relation = registry.Relation
	// TriggerEnv supplies view variables to quality triggers.
	TriggerEnv = trigger.Env
	// PushFuture is the completion handle of one asynchronous push round
	// (see View.PushAsync).
	PushFuture = cache.PushFuture
)

// Consistency modes.
const (
	// Weak allows multiple simultaneously active views.
	Weak = wire.Weak
	// Strong enforces a single active view (one-copy serializability).
	Strong = wire.Strong
)

// Static conflict-map relations.
const (
	// NoConflict (0): the views never share data.
	NoConflict = registry.NoConflict
	// ConflictAlways (1): the views statically share data.
	ConflictAlways = registry.Conflict
	// DynamicConflict (-1): decide from the live property sets.
	DynamicConflict = registry.Dynamic
)

// Errors surfaced by views.
var (
	// ErrInvalidated: the image was invalidated; pull before use.
	ErrInvalidated = cache.ErrInvalidated
	// ErrNotInitialized: the image was used before Init.
	ErrNotInitialized = cache.ErrNotInitialized
	// ErrSessionReset: the session under an asynchronous push died (the
	// future's writes stay pending locally; push again after recovery).
	ErrSessionReset = cache.ErrSessionReset
)

// MustProps parses a property-set literal like "Flights={100..109};
// Seats=[0,400]" and panics on error; for static configuration.
func MustProps(s string) Props { return property.MustSet(s) }

// ParseProps parses a property-set literal.
func ParseProps(s string) (Props, error) { return property.ParseSet(s) }

// Option configures a System.
type Option func(*sysConfig)

type sysConfig struct {
	clock     *vclock.Sim
	latency   vclock.Duration
	resolver  image.Resolver
	readAware bool
	fanOut    int
	lanes     int
	stats     bool
	trace     bool
	traceCap  int
}

// WithLatency runs the system on a simulated LAN with the given one-way
// link latency in virtual milliseconds (default 0: all nodes co-located).
func WithLatency(ms int64) Option {
	return func(c *sysConfig) { c.latency = vclock.Duration(ms) }
}

// WithResolver installs the application conflict resolver at the primary.
func WithResolver(r Resolver) Option {
	return func(c *sysConfig) { c.resolver = r }
}

// WithReadAware enables the read/write-semantics extension: strong-mode
// readers coexist instead of invalidating each other.
func WithReadAware() Option {
	return func(c *sysConfig) { c.readAware = true }
}

// WithFanOut sets the width of the directory manager's
// invalidate/gather/propagate rounds: how many views it contacts at a
// time. The default, and any n <= 0, is 1: a System runs on the simulated
// network, where virtual latency is charged serially, so serial rounds
// cost nothing and keep traces and virtual timestamps deterministic.
// Raise it to exercise the concurrent hot path (real deployments via
// internal/directory default to directory.DefaultFanOut).
func WithFanOut(n int) Option {
	return func(c *sysConfig) { c.fanOut = n }
}

// WithLanes sets the number of execution lanes at the directory manager:
// commits from disjoint conflict groups run through n lanes in parallel,
// commits within one conflict group keep arrival order. The default (0,
// meaning 1) runs every commit through the one lane in arrival order; it
// is the same commit path at every n, so a single-client run behaves
// identically whatever the count.
func WithLanes(n int) Option {
	return func(c *sysConfig) { c.lanes = n }
}

// WithMessageStats enables message counting (see System.Messages).
func WithMessageStats() Option {
	return func(c *sysConfig) { c.stats = true }
}

// WithTrace records the last capacity protocol messages for debugging;
// System.Trace renders them as a text sequence diagram (capacity <= 0
// keeps 1024).
func WithTrace(capacity int) Option {
	return func(c *sysConfig) { c.traceCap = capacity; c.trace = true }
}

// System is one Flecc deployment: an original component with its directory
// manager, a (simulated) network, and any number of views.
type System struct {
	name  string
	net   *netsim.Net
	clock *vclock.Sim
	dm    *directory.Manager
	stats *metrics.MessageStats
	rec   *trace.Recorder
}

// New creates a system around the original component's codec. The system
// runs on an in-process network with a deterministic virtual clock.
func New(name string, primary Codec, opts ...Option) (*System, error) {
	cfg := &sysConfig{clock: vclock.NewSim()}
	for _, o := range opts {
		o(cfg)
	}
	topo := netsim.LAN(cfg.latency)
	topo.Place(name, "hub")
	net := netsim.New(cfg.clock, topo)
	// The transports carry an observer fan-out, so stats and tracing
	// register independently instead of sharing one combined hook.
	var stats *metrics.MessageStats
	var rec *trace.Recorder
	if cfg.stats {
		stats = metrics.NewMessageStats(false)
		net.AddObserver(stats)
	}
	if cfg.trace {
		rec = trace.NewRecorder(cfg.traceCap)
		net.AddObserver(rec)
	}
	dm, err := directory.New(name, primary, cfg.clock, net, directory.Options{
		Resolver:  cfg.resolver,
		ReadAware: cfg.readAware,
		// Serial unless raised: the simulated network (see WithFanOut).
		FanOut: max(1, cfg.fanOut),
		Lanes:  cfg.lanes,
	})
	if err != nil {
		return nil, err
	}
	return &System{name: name, net: net, clock: cfg.clock, dm: dm, stats: stats, rec: rec}, nil
}

// Trace renders the recorded message flow as a text sequence diagram
// (empty without WithTrace).
func (s *System) Trace() string {
	if s.rec == nil {
		return ""
	}
	return s.rec.String()
}

// Name returns the directory manager's node name.
func (s *System) Name() string { return s.name }

// Close shuts the directory manager down.
func (s *System) Close() error { return s.dm.Close() }

// Now returns the current virtual time.
func (s *System) Now() Time { return s.clock.Now() }

// AdvanceTo advances the virtual clock to t, firing any scheduled trigger
// evaluations on the way.
func (s *System) AdvanceTo(t Time) { s.clock.RunUntil(t) }

// CurrentVersion returns the primary copy's committed version.
func (s *System) CurrentVersion() Version { return s.dm.CurrentVersion() }

// Views returns the registered view names.
func (s *System) Views() []string { return s.dm.Views() }

// Unseen returns the committed remote updates a view has not observed —
// the paper's data-quality metric for the committed state.
func (s *System) Unseen(view string) int { return s.dm.UnseenCommitted(view) }

// Messages returns the number of protocol messages exchanged so far
// (requires WithMessageStats; otherwise 0).
func (s *System) Messages() int64 {
	if s.stats == nil {
		return 0
	}
	return s.stats.Total()
}

// SetStatic seeds a static conflict-map entry between two view names.
func (s *System) SetStatic(a, b string, rel Relation) { s.dm.Registry().SetStatic(a, b, rel) }

// ViewConfig describes a new view.
type ViewConfig struct {
	// Name is the view's unique node name.
	Name string
	// View is the view's extract/merge implementation.
	View Codec
	// Props declares which shared data the view works on.
	Props Props
	// Mode is the initial consistency mode (Weak by default).
	Mode Mode
	// Host optionally places the view on a named simulated host; views on
	// the same host exchange messages for free, views on distinct hosts
	// pay the system latency. Empty = co-located with everything.
	Host string
	// PushTrigger, PullTrigger, ValidityTrigger are quality-trigger
	// sources (e.g. "(t > 1500)", "every(500)", "staleness < 3").
	PushTrigger, PullTrigger, ValidityTrigger string
	// Vars exposes view variables to the triggers.
	Vars TriggerEnv
	// ReadOnly tags the view's pulls as read operations (used with
	// WithReadAware).
	ReadOnly bool
	// ManualFlush defers asynchronous push rounds (PushAsync) until Flush,
	// a Push (which joins the buffered round) or a flushing
	// reconfiguration (SetMode, SetProps, Close). Deterministic harnesses
	// use it to keep every wire interaction an explicit step; interactive
	// deployments normally leave it false (rounds dispatch immediately).
	ManualFlush bool
}

// View is a deployed view: the public handle over its cache manager.
type View struct {
	cm  *cache.Manager
	sys *System
}

// NewView deploys a view and initializes its image (the paper's
// create-cache-manager + initImage steps). The returned View is ready for
// Pull/StartUse/EndUse/Push.
func (s *System) NewView(cfg ViewConfig) (*View, error) {
	if cfg.Host != "" {
		s.net.Topology().Place(cfg.Name, cfg.Host)
	}
	op := wire.OpWrite
	if cfg.ReadOnly {
		op = wire.OpRead
	}
	cm, err := cache.New(cache.Config{
		Name:            cfg.Name,
		Directory:       s.name,
		Net:             s.net,
		View:            cfg.View,
		Props:           cfg.Props,
		Mode:            cfg.Mode,
		PushTrigger:     cfg.PushTrigger,
		PullTrigger:     cfg.PullTrigger,
		ValidityTrigger: cfg.ValidityTrigger,
		Vars:            cfg.Vars,
		Clock:           s.clock,
		Op:              op,
		ManualFlush:     cfg.ManualFlush,
	})
	if err != nil {
		return nil, err
	}
	if err := cm.InitImage(); err != nil {
		cm.KillImage()
		return nil, fmt.Errorf("flecc: init view %s: %w", cfg.Name, err)
	}
	return &View{cm: cm, sys: s}, nil
}

// Name returns the view's node name.
func (v *View) Name() string { return v.cm.Name() }

// Pull updates the view's data from the primary (pullImage).
func (v *View) Pull() error { return v.cm.PullImage() }

// Push sends the view's modified data to the primary (pushImage). It is
// the synchronous form of PushAsync: it joins the buffered round and waits
// for it. A round is extracted between use windows, so Push waits for an
// open window to close: called inside the caller's own window (between
// StartUse and EndUse, or from Use's fn) it never returns.
func (v *View) Push() error { return v.cm.PushImage() }

// PushAsync starts (or joins) an asynchronous push round and returns its
// future. Adjacent calls coalesce: while one round is on the wire the next
// buffers behind it, and every caller that joined the buffered round
// shares one future — W rapid writers cost two push rounds, not W. Rounds
// complete in issue order. If the session dies under a round, its future
// resolves with ErrSessionReset and the writes stay pending locally (push
// again after recovery). Push joins the same buffered round and waits for
// it; SetMode, SetProps and Close flush outstanding rounds before
// proceeding.
func (v *View) PushAsync() *PushFuture { return v.cm.PushImageAsync() }

// Flush dispatches any buffered push round and waits for all outstanding
// rounds, returning the first error. Like Push, it must not be called
// inside the caller's own use window while a round is outstanding.
func (v *View) Flush() error { return v.cm.Flush() }

// PushPending reports whether an asynchronous push round is buffered or in
// flight.
func (v *View) PushPending() bool { return v.cm.PushPending() }

// StartUse opens a mutually exclusive work window (startUseImage).
func (v *View) StartUse() error { return v.cm.StartUse() }

// EndUse closes the work window (endUseImage).
func (v *View) EndUse() { v.cm.EndUse() }

// Use runs fn inside a pull + use window — the common per-operation
// pattern from the paper's Figure 3 loop. fn must not call Push, Flush,
// SetMode, SetProps or Close: they wait for the window fn runs in.
func (v *View) Use(fn func() error) error {
	if err := v.Pull(); err != nil {
		return err
	}
	if err := v.StartUse(); err != nil {
		return err
	}
	defer v.EndUse()
	return fn()
}

// SetMode switches the view's consistency mode at run time. It flushes
// outstanding push rounds first, so, like Flush, it must not be called
// inside the caller's own use window.
func (v *View) SetMode(m Mode) error { return v.cm.SetMode(m) }

// Mode returns the current mode.
func (v *View) Mode() Mode { return v.cm.Mode() }

// SetProps installs a new property set at run time. Like SetMode, it
// flushes first and must not be called inside the caller's own use window.
func (v *View) SetProps(p Props) error { return v.cm.SetProps(p) }

// Valid reports whether the view's image is valid (not invalidated).
func (v *View) Valid() bool { return v.cm.Valid() }

// Seen returns the primary version the view has observed.
func (v *View) Seen() Version { return v.cm.Seen() }

// PendingOps returns the number of unpublished use windows.
func (v *View) PendingOps() int { return v.cm.PendingOps() }

// ScheduleTriggers evaluates the view's push/pull triggers every period
// virtual milliseconds (on the system's simulated clock).
func (v *View) ScheduleTriggers(period Time) bool { return v.cm.ScheduleTriggers(period) }

// StopTriggers cancels the trigger scheduler.
func (v *View) StopTriggers() { v.cm.StopTriggers() }

// Close publishes pending changes and unregisters the view (killImage).
// Its final push is a round like Push's (so Close, too, must not be called
// inside the caller's own use window); if that push fails, Close fails
// with the view still open, and calling it again pushes again.
func (v *View) Close() error { return v.cm.KillImage() }

// MapCodec is a ready-made Codec over a string-keyed byte map, convenient
// for applications whose shared state is naturally a key/value bag. It
// implements image.KeyedExtractor and ChangeExtractor, so as a view codec its
// pushes and directory-initiated fetches cost the keys written since the
// last synchronization, and as a primary its delta pulls cost the keys
// committed since the puller's version. The zero value is not usable;
// construct with NewMapCodec.
type MapCodec struct {
	mu   chan struct{} // 1-buffered semaphore; avoids copying sync.Mutex
	data map[string]mapValue
	// Change tracking: rev advances on every state change; a value carries
	// the revision of its last write, deleted the revision at which a key
	// that is currently absent was removed (a re-set key leaves it).
	rev     uint64
	deleted map[string]uint64
}

type mapValue struct {
	b   []byte
	rev uint64
}

// NewMapCodec returns an empty map-backed codec.
func NewMapCodec() *MapCodec {
	return &MapCodec{mu: make(chan struct{}, 1), data: map[string]mapValue{}, deleted: map[string]uint64{}}
}

func (m *MapCodec) lock()   { m.mu <- struct{}{} }
func (m *MapCodec) unlock() { <-m.mu }

// copyBytes returns a non-nil copy of b.
func copyBytes(b []byte) []byte {
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

// set stores a copy of value unless the key already holds it. Caller
// holds the lock.
func (m *MapCodec) set(key string, value []byte) {
	if old, ok := m.data[key]; ok && bytes.Equal(old.b, value) {
		return
	}
	m.rev++
	m.data[key] = mapValue{b: copyBytes(value), rev: m.rev}
	delete(m.deleted, key)
}

// remove deletes a key if present. Caller holds the lock.
func (m *MapCodec) remove(key string) {
	if _, ok := m.data[key]; !ok {
		return
	}
	delete(m.data, key)
	m.rev++
	m.deleted[key] = m.rev
}

// Set stores a value.
func (m *MapCodec) Set(key string, value []byte) {
	m.lock()
	defer m.unlock()
	m.set(key, value)
}

// SetString stores a string value.
func (m *MapCodec) SetString(key, value string) { m.Set(key, []byte(value)) }

// Get loads a value (nil if absent).
func (m *MapCodec) Get(key string) []byte {
	m.lock()
	defer m.unlock()
	v, ok := m.data[key]
	if !ok {
		return nil
	}
	return copyBytes(v.b)
}

// GetString loads a string value ("" if absent).
func (m *MapCodec) GetString(key string) string { return string(m.Get(key)) }

// Delete removes a key.
func (m *MapCodec) Delete(key string) {
	m.lock()
	defer m.unlock()
	m.remove(key)
}

// Len returns the number of keys.
func (m *MapCodec) Len() int {
	m.lock()
	defer m.unlock()
	return len(m.data)
}

// Extract implements Codec.
func (m *MapCodec) Extract(props Props) (*Image, error) {
	img, _, err := m.ExtractChanged(props, 0)
	if img == nil {
		img = image.New()
	}
	return img, err
}

// ExtractChanged implements ChangeExtractor: the keys written after
// revision since (every key when since is 0), the keys deleted after it
// as tombstones, and the current revision; a nil image when there are
// none. Like Extract, it does not interpret props.
func (m *MapCodec) ExtractChanged(props Props, since uint64) (*Image, uint64, error) {
	m.lock()
	defer m.unlock()
	var entries []image.Entry
	for k, v := range m.data {
		if v.rev > since {
			entries = append(entries, image.Entry{Key: k, Value: copyBytes(v.b)})
		}
	}
	if since > 0 {
		for k, rev := range m.deleted {
			if rev > since {
				entries = append(entries, image.Entry{Key: k, Deleted: true})
			}
		}
	}
	if entries == nil {
		return nil, m.rev, nil
	}
	return image.Of(0, entries), m.rev, nil
}

// ExtractKeys implements image.KeyedExtractor: it snapshots just the
// requested keys (absent keys are omitted), letting the directory store
// serve delta pulls without walking the whole map. Like Extract, it does
// not interpret props.
func (m *MapCodec) ExtractKeys(props Props, keys []string) (*Image, error) {
	m.lock()
	defer m.unlock()
	entries := make([]image.Entry, 0, len(keys))
	for _, k := range keys {
		if v, ok := m.data[k]; ok {
			entries = append(entries, image.Entry{Key: k, Value: copyBytes(v.b)})
		}
	}
	return image.Of(0, entries), nil
}

// Merge implements Codec.
func (m *MapCodec) Merge(img *Image, props Props) error {
	m.lock()
	defer m.unlock()
	for _, e := range img.Entries {
		if e.Deleted {
			m.remove(e.Key)
		} else {
			m.set(e.Key, e.Value)
		}
	}
	return nil
}

var (
	_ Codec                = (*MapCodec)(nil)
	_ image.KeyedExtractor = (*MapCodec)(nil)
	_ ChangeExtractor      = (*MapCodec)(nil)
)
