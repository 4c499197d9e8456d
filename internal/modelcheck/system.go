package modelcheck

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/netsim"
	"flecc/internal/property"
	"flecc/internal/trace"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Violation is an invariant breach found while applying an action. It is
// the only error kind apply returns for protocol misbehavior;
// infrastructure failures (bad config, attach errors) surface as plain
// errors from newSystem instead.
type Violation struct{ Msg string }

func (v *Violation) Error() string { return v.Msg }

func violationf(format string, args ...any) error {
	return &Violation{Msg: fmt.Sprintf(format, args...)}
}

// kvstore is the model's application component and view state: a plain
// string map codec. Like the protocol test suite's kvView, it ignores the
// property restriction on extract — properties drive conflict accounting,
// not data slicing — which keeps set-props reconfigurations from
// synthesizing spurious deletions. It takes no lock: the explorer issues
// one request at a time (FanOut 1), and the replication sender — the one
// other goroutine — runs only while the explorer is blocked in a commit
// barrier, so the codec contract's concurrent calls cannot occur.
type kvstore struct {
	data map[string]string
}

func newKVStore() *kvstore { return &kvstore{data: map[string]string{}} }

// Extract implements image.Extractor.
func (s *kvstore) Extract(props property.Set) (*image.Image, error) {
	entries := make([]image.Entry, 0, len(s.data))
	for k, v := range s.data {
		entries = append(entries, image.Entry{Key: k, Value: []byte(v)})
	}
	return image.Of(0, entries), nil
}

// Merge implements image.Merger.
func (s *kvstore) Merge(img *image.Image, props property.Set) error {
	for _, e := range img.Entries {
		if e.Deleted {
			delete(s.data, e.Key)
			continue
		}
		s.data[e.Key] = string(e.Value)
	}
	return nil
}

// viewNode is the model's bookkeeping for one view: the application state,
// the live cache manager, and the spec-side counters the invariants use.
type viewNode struct {
	idx  int
	name string
	data *kvstore
	cm   *cache.Manager
	// alive is false between crash and revive.
	alive bool
	// mode mirrors the view's consistency mode (revive restores it).
	mode wire.Mode
	// writes counts writes performed (unique-value generation + budget).
	writes int
	// propsAlt marks that set-props narrowed the view to its alt set.
	propsAlt bool
	// dirty is the set of keys written since the view last synchronized
	// (push, or surrender via invalidate/gather).
	dirty map[string]bool
	// strongAct marks that the view's current activation was acquired by
	// a pull in strong mode — the activation one-copy serializability
	// covers. Init and weak pulls grant weak-grade activation.
	strongAct bool
	// evicted marks that the directory evicted this view as unreachable
	// at some point while it was actually live (a false-positive
	// eviction, e.g. a dropped invalidate). Its pending updates are then
	// reconciled by push-time conflict detection rather than gathering,
	// so the strong-exclusivity pending check exempts it. Reset by a
	// successful revive.
	evicted bool
}

// system is one deterministic instance of the deployment under test plus
// the model's spec-tracking state. It is rebuilt from scratch for every
// replayed schedule.
type system struct {
	cfg   Config
	clock *vclock.Sim
	net   *netsim.Net
	rec   *trace.Recorder
	prim  *kvstore
	dms   []*directory.Manager
	// repl is dm!a's replication session under Config.Failover; close
	// stops its sender.
	repl *directory.Replicator
	// active indexes the directory manager currently serving the views.
	active int
	views  []*viewNode
	// reconfigs counts reconfiguration actions applied.
	reconfigs int
	// primaryDown marks dm!a crashed (ACrashPrimary). Until
	// APromoteStandby re-points the forwarder, client calls fail.
	primaryDown bool
	// dead names crashed views; the netsim delivery hook fails messages
	// addressed to them.
	dead map[string]bool
	// ready is set once construction finishes; the DropMessage schedule
	// counts only post-construction requests (a drop during setup would
	// just mean the system never comes up).
	ready bool
	// delivered counts hook-inspected requests (DropMessage schedule).
	delivered int

	// Per-key spec tracking: the last observed committed (version, value)
	// and, per writer|key, the values written (in order) and the highest
	// committed write index observed — the ground truth for the no-lost /
	// no-regression / no-resurrection invariants.
	keyVer  map[string]vclock.Version
	keyVal  map[string]string
	hist    map[string][]string
	histIdx map[string]int
}

func keyName(i int) string { return fmt.Sprintf("k%d", i) }

func (s *system) fullProps() property.Set {
	members := make([]string, s.cfg.Keys)
	for i := range members {
		members[i] = keyName(i)
	}
	return property.NewSet(property.New("K", property.Discrete(members...)))
}

func (s *system) altProps(viewIdx int) property.Set {
	return property.NewSet(property.New("K", property.Discrete(keyName(viewIdx%s.cfg.Keys))))
}

func (s *system) propsFor(v *viewNode) property.Set {
	if v.propsAlt {
		return s.altProps(v.idx)
	}
	return s.fullProps()
}

func (s *system) dm() *directory.Manager { return s.dms[s.active] }

func (s *system) dmNodeName() string {
	if len(s.dms) == 1 {
		return "dm"
	}
	if s.active == 0 {
		return "dm!a"
	}
	return "dm!b"
}

// newSystem builds the initial deployment: the directory side (one manager,
// or two plus a routing forwarder when failover is enabled), the views
// (registered and initialized), the seeded primary data, and the spec
// baselines. rec, when non-nil, observes every message for counterexample
// rendering.
func newSystem(cfg Config, rec *trace.Recorder) (sys *system, err error) {
	cfg = cfg.withDefaults()
	clock := vclock.NewSim()
	net := netsim.New(clock, netsim.LAN(1))
	if rec != nil {
		net.AddObserver(rec)
	}
	s := &system{
		cfg:     cfg,
		clock:   clock,
		net:     net,
		rec:     rec,
		prim:    newKVStore(),
		dead:    map[string]bool{},
		keyVer:  map[string]vclock.Version{},
		keyVal:  map[string]string{},
		hist:    map[string][]string{},
		histIdx: map[string]int{},
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	net.SetDeliveryHook(func(from, to string, m *wire.Message) error {
		if s.ready {
			s.delivered++
			if cfg.DropMessage > 0 && s.delivered == cfg.DropMessage {
				return fmt.Errorf("modelcheck: scheduled drop of request %d (%s %s→%s)", s.delivered, m.Type, from, to)
			}
		}
		if s.dead[to] {
			return fmt.Errorf("modelcheck: view %s crashed", to)
		}
		return nil
	})

	// Seed the primary with one initial value per key; writer "" is the
	// primary itself.
	for k := 0; k < cfg.Keys; k++ {
		key := keyName(k)
		val := "init-" + key
		s.prim.data[key] = val
		s.hist["|"+key] = []string{val}
		s.keyVal[key] = val
		s.keyVer[key] = 0
	}

	opts := directory.Options{
		FanOut: 1,
		// Two lanes: every commit rebuilds the lane group map after a
		// structural change, as deployments do. Lanes hold no protocol
		// state, so the explored state space is the one-lane space.
		Lanes:           2,
		Retry:           transport.RetryPolicy{Attempts: 1},
		PropagateOnPush: cfg.PropagateOnPush,
	}
	if cfg.SkipInvalidate != "" {
		skip := cfg.SkipInvalidate
		opts.InvalFilter = func(requester string, targets []string) []string {
			out := targets[:0:0]
			for _, t := range targets {
				if t != skip {
					out = append(out, t)
				}
			}
			return out
		}
	}

	place := func(node string) { s.net.Topology().Place(node, "h-"+node) }
	if cfg.Failover {
		// Two directory managers share the primary codec; views dial the
		// forwarder "dm", which wraps every request in a TRouted envelope
		// toward whichever manager currently serves them — the model's
		// stand-in for the fallback rotation that takes fleccd's clients
		// to a promoted standby (cache.Config.Fallbacks).
		for i, name := range []string{"dm!a", "dm!b"} {
			// dm!b boots gated, as fleccd -standby does: it admits only
			// replication batches until promote-standby.
			o := opts
			o.Standby = i == 1
			dm, err := directory.New(name, s.prim, clock, net, o)
			if err != nil {
				return nil, err
			}
			s.dms = append(s.dms, dm)
			place(name)
		}
		var fwd transport.Endpoint
		fwd, err := net.Attach("dm", func(req *wire.Message) *wire.Message {
			env := &wire.Message{Type: wire.TRouted, View: req.From, Blob: wire.Encode(req)}
			reply, err := fwd.Call(s.dmNodeName(), env)
			if err != nil {
				if reply != nil {
					return reply
				}
				return &wire.Message{Type: wire.TErr, Err: err.Error()}
			}
			return reply
		})
		if err != nil {
			return nil, err
		}
		place("dm")
		// dm!a replicates to dm!b through the sender deployments run:
		// every mutating request's reply barriers on the standby having
		// absorbed it. The sender wakes only on the barrier's broadcast
		// and ships one batch at a time while the explorer waits, so
		// replays stay pure functions of the schedule.
		// Attempts:3 lets a single scheduled drop of a TReplicate be
		// retried instead of degrading the standby (verify asserts it
		// never is).
		repl, err := s.dms[0].StartReplication(directory.ReplConfig{
			Retry: transport.RetryPolicy{Attempts: 3, Sleep: func(time.Duration) {}},
		}, directory.ReplTarget{Name: "dm!b"})
		if err != nil {
			return nil, err
		}
		s.repl = repl
	} else {
		dm, err := directory.New("dm", s.prim, clock, net, opts)
		if err != nil {
			return nil, err
		}
		s.dms = append(s.dms, dm)
		place("dm")
	}

	for i := 0; i < cfg.Views; i++ {
		v := &viewNode{
			idx:   i,
			name:  fmt.Sprintf("v%d", i+1),
			data:  newKVStore(),
			alive: true,
			mode:  wire.Weak,
			dirty: map[string]bool{},
		}
		if i == 0 {
			v.mode = wire.Strong
		}
		place(v.name)
		cm, err := s.attachView(v)
		if err != nil {
			return nil, err
		}
		v.cm = cm
		s.views = append(s.views, v)
	}
	for _, v := range s.views {
		if err := v.cm.InitImage(); err != nil {
			return nil, fmt.Errorf("modelcheck: init %s: %w", v.name, err)
		}
	}
	s.ready = true
	return s, nil
}

// close stops the replication sender. Whoever builds a system closes
// it, so an exploration leaves no goroutine behind.
func (s *system) close() {
	if s.repl != nil {
		s.repl.Close()
	}
}

// attachView builds a cache manager for the view's current mode and
// property set (initial construction and revive share it). The manager
// runs with ManualFlush so a buffered round dispatches only when an
// explicit action (flush, a synchronous push, or a flushing
// reconfiguration) says so — the explorer stays the sole scheduler.
func (s *system) attachView(v *viewNode) (*cache.Manager, error) {
	return cache.New(cache.Config{
		Name:            v.name,
		Directory:       "dm",
		Net:             s.net,
		View:            v.data,
		Props:           s.propsFor(v),
		Mode:            v.mode,
		ValidityTrigger: s.cfg.Validity,
		Clock:           s.clock,
		ManualFlush:     true,
	})
}

// opLegal classifies an action-level operation error: under a DropMessage
// schedule, a failure of the acting view's own call is the legal surface
// of the dropped message — either directly as a transport error, or
// wrapped into a remote error by the routing forwarder when the drop hit
// its inner hop. While the primary is crashed and not yet failed over,
// any failure tracing to the dead dm!a is likewise legal. Everything else
// is a violation.
func (s *system) opLegal(err error) bool {
	if err == nil {
		return false
	}
	if s.primaryDown && s.active == 0 {
		if transport.IsTransportError(err) ||
			errors.Is(err, cache.ErrSessionReset) ||
			strings.Contains(err.Error(), "dm!a crashed") {
			return true
		}
	}
	if s.cfg.DropMessage == 0 {
		return false
	}
	return transport.IsTransportError(err) ||
		errors.Is(err, cache.ErrSessionReset) ||
		strings.Contains(err.Error(), "modelcheck: scheduled drop")
}

// apply performs one action and runs every invariant. A *Violation return
// is a counterexample; nil means the transition is clean.
func (s *system) apply(a Action) error {
	kind := a.Kind
	if kind == AQuiesceProbe {
		kind = APull
	}
	switch kind {
	case AWrite:
		v := s.views[a.View]
		if err := v.cm.StartUse(); err != nil {
			return violationf("write %s: start-use failed on a valid view: %v", v.name, err)
		}
		v.writes++
		key := keyName(a.Key)
		val := fmt.Sprintf("%s.%d", v.name, v.writes)
		v.data.data[key] = val
		v.cm.EndUse()
		v.dirty[key] = true
		s.hist[v.name+"|"+key] = append(s.hist[v.name+"|"+key], val)
		return s.verify(a, nil)

	case APush:
		v := s.views[a.View]
		pushed := map[string]string{}
		for k := range v.dirty {
			pushed[k] = v.data.data[k]
		}
		err := v.cm.PushImage()
		if err != nil && !s.opLegal(err) {
			return violationf("push %s failed: %v", v.name, err)
		}
		if err == nil {
			v.dirty = map[string]bool{}
			if verr := s.checkPushDurable(v, pushed); verr != nil {
				return verr
			}
		}
		return s.verify(a, err)

	case APushAsync:
		// Buffer a coalesced round. Under ManualFlush nothing reaches the
		// wire here, so the only legal immediate resolution is an error —
		// and on a live, initialized view there is none to have.
		v := s.views[a.View]
		fut := v.cm.PushImageAsync()
		select {
		case <-fut.Done():
			if err := fut.Wait(); err != nil {
				return violationf("push-async %s resolved eagerly with %v", v.name, err)
			}
		default:
		}
		return s.verify(a, nil)

	case AFlush:
		// Dispatch the buffered round and wait it out. Success carries the
		// same obligations as a synchronous push: the delta is extracted at
		// dispatch, so it covers every key dirty right now.
		v := s.views[a.View]
		pushed := map[string]string{}
		for k := range v.dirty {
			pushed[k] = v.data.data[k]
		}
		err := v.cm.Flush()
		if err != nil && !s.opLegal(err) {
			return violationf("flush %s failed: %v", v.name, err)
		}
		if err == nil {
			v.dirty = map[string]bool{}
			if verr := s.checkPushDurable(v, pushed); verr != nil {
				return verr
			}
		}
		return s.verify(a, err)

	case APull:
		v := s.views[a.View]
		mode := v.cm.Mode()
		err := v.cm.PullImage()
		if err != nil && !s.opLegal(err) {
			return violationf("pull %s failed: %v", v.name, err)
		}
		if err == nil {
			v.strongAct = mode == wire.Strong
			if verr := s.checkPullFresh(v); verr != nil {
				return verr
			}
			if mode == wire.Strong {
				if verr := s.checkStrongExclusive(v); verr != nil {
					return verr
				}
			}
		}
		return s.verify(a, err)

	case ASetMode:
		v := s.views[a.View]
		err := v.cm.SetMode(a.Mode)
		if err != nil && !s.opLegal(err) {
			return violationf("set-mode %s failed: %v", v.name, err)
		}
		if err == nil {
			v.mode = a.Mode
			if a.Mode == wire.Weak {
				// Dropping to weak relinquishes the one-copy claim.
				v.strongAct = false
			}
		}
		s.reconfigs++
		return s.verify(a, err)

	case ASetProps:
		v := s.views[a.View]
		err := v.cm.SetProps(s.altProps(v.idx))
		if err != nil && !s.opLegal(err) {
			return violationf("set-props %s failed: %v", v.name, err)
		}
		if err == nil {
			v.propsAlt = true
		}
		s.reconfigs++
		return s.verify(a, err)

	case ACrash:
		v := s.views[a.View]
		s.dead[v.name] = true
		v.alive = false
		v.strongAct = false
		// Un-pushed writes die with the component.
		v.dirty = map[string]bool{}
		s.reconfigs++
		return s.verify(a, nil)

	case ARevive:
		v := s.views[a.View]
		delete(s.dead, v.name)
		s.net.Detach(v.name)
		v.data = newKVStore()
		cm, err := s.attachView(v)
		if err != nil {
			if s.opLegal(err) {
				// The re-register call was the dropped message; the view
				// stays down and may retry in a later action.
				s.net.Detach(v.name)
				s.dead[v.name] = true
				return s.verify(a, err)
			}
			return violationf("revive %s: re-register failed: %v", v.name, err)
		}
		v.cm = cm
		if err := cm.InitImage(); err != nil {
			if s.opLegal(err) {
				return s.verify(a, err)
			}
			return violationf("revive %s: init failed: %v", v.name, err)
		}
		v.alive = true
		v.evicted = false
		// Init activates the view without an invalidation round (the
		// modeling note in the package doc): a conflicting revival
		// therefore legally ends a standing strong claim, the same way
		// the claim begins only at a pull.
		reg := s.dm().Registry()
		for _, w := range s.views {
			if w != v && w.strongAct && reg.Conflicts(v.name, w.name) {
				w.strongAct = false
			}
		}
		return s.verify(a, nil)

	case ACrashPrimary:
		// Kill dm!a at the network; its in-memory state stays inspectable
		// (the invariants read it directly), but no message reaches it —
		// the barrier guarantee is now all the standby has.
		s.dead["dm!a"] = true
		s.primaryDown = true
		s.reconfigs++
		return s.verify(a, nil)

	case APromoteStandby:
		s.dms[1].PromoteSelf()
		s.active = 1
		return s.verify(a, nil)
	}
	return fmt.Errorf("modelcheck: unknown action kind %d", a.Kind)
}

// viewMeta is the slice of a view's state the enumerator needs to decide
// which actions are enabled, captured when the state is discovered so
// enumeration needs no live system instance.
type viewMeta struct {
	alive    bool
	valid    bool
	pending  int
	writes   int
	propsAlt bool
	mode     wire.Mode
	// buffered marks an asynchronous push round waiting for dispatch.
	buffered bool
}

// meta captures the enabled-action inputs of a state.
type meta struct {
	views       []viewMeta
	reconfigs   int
	active      int
	primaryDown bool
}

func (s *system) observe() meta {
	m := meta{reconfigs: s.reconfigs, active: s.active, primaryDown: s.primaryDown}
	for _, v := range s.views {
		vm := viewMeta{alive: v.alive, writes: v.writes, propsAlt: v.propsAlt, mode: v.mode}
		if v.alive {
			vm.valid = v.cm.Valid()
			vm.pending = v.cm.PendingOps()
			vm.buffered = v.cm.PushPending()
		}
		m.views = append(m.views, vm)
	}
	return m
}

// fingerprint folds the full observable state into a canonical string:
// directory bookkeeping (registry, view states, store log and stamped
// primary content), every view's data/base/counters, and the model's own
// budgets. Virtual-time stamps are deliberately excluded — no trigger in
// the model references time, so two states equal modulo the clock have
// identical futures and deduplicating them is sound.
func (s *system) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "active=%d reconfigs=%d pdown=%t\n", s.active, s.reconfigs, s.primaryDown)
	for di, dm := range s.dms {
		reg := dm.Registry()
		fmt.Fprintf(&b, "dm%d ver=%d\n", di, dm.CurrentVersion())
		for _, name := range reg.Views() {
			props, _ := reg.Props(name)
			fmt.Fprintf(&b, " reg %s props=%s mode=%s seen=%d pushed=%d phase=%s\n",
				name, props, dm.Mode(name), dm.Seen(name), dm.Pushed(name), dm.Phase(name))
		}
		for _, rec := range dm.Store().Log() {
			fmt.Fprintf(&b, " log v%d w=%q ops=%d props=%s\n", rec.Version, rec.Writer, rec.Ops, rec.Props)
		}
	}
	if ext, err := s.dm().ExtractPrimary(s.fullProps()); err == nil {
		for _, e := range ext.Entries {
			fmt.Fprintf(&b, "prim %s=%q v%d w=%q del=%t\n", e.Key, e.Value, e.Version, e.Writer, e.Deleted)
		}
	} else {
		fmt.Fprintf(&b, "prim err=%v\n", err)
	}
	for _, v := range s.views {
		fmt.Fprintf(&b, "view %s alive=%t mode=%s writes=%d alt=%t strong=%t evicted=%t dirty=%s\n",
			v.name, v.alive, v.mode, v.writes, v.propsAlt, v.strongAct, v.evicted, sortedKeys(v.dirty))
		if !v.alive {
			continue
		}
		fmt.Fprintf(&b, " cm valid=%t pending=%d seen=%d acked=%d mode=%s buffered=%t\n",
			v.cm.Valid(), v.cm.PendingOps(), v.cm.Seen(), v.cm.Acked(), v.cm.Mode(), v.cm.PushPending())
		keys := make([]string, 0, len(v.data.data))
		for k := range v.data.data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " data %s=%q\n", k, v.data.data[k])
		}
		if base := v.cm.Base(); base != nil {
			for _, e := range base.Entries {
				fmt.Fprintf(&b, " base %s=%q v%d w=%q del=%t\n", e.Key, e.Value, e.Version, e.Writer, e.Deleted)
			}
		}
	}
	return b.String()
}

func sortedKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}
