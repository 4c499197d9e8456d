package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// Router is the single logical directory endpoint in front of a set of
// shard directory managers. It attaches to the network under the
// directory's public name, so cache managers keep dialing "the directory"
// unchanged; each request is placed on its owning shard (sticky per
// view), wrapped in a TRouted envelope so the shard sees the originating
// view as the caller, and forwarded. The router never interprets protocol
// semantics — conflicts, modes, and triggers stay inside the shard
// directory managers — it only places views and merges the version
// metadata it observes into a per-shard vclock.Vector.
//
// Placement precedence for a registering view:
//
//  1. the Map's pin table (first pin whose property overlaps the view's),
//  2. conflict affinity: co-locate with the already-assigned views whose
//     property sets overlap (so dynConfl checks stay shard-local),
//  3. the consistent-hash ring over the canonical property-set string
//     (the view name when the set is empty).
//
// A placement (or a TSetProps) that would leave one conflict group
// spanning two shards is rejected with an error directing the operator to
// pin the property domain — the alternative would be conflicts the
// shard-local dynConfl check silently misses.
type Router struct {
	name string
	m    *Map
	ep   transport.Endpoint

	mu     sync.Mutex
	assign map[string]string       // view -> owning shard
	vprops map[string]property.Set // view -> last known property set
	pidx   *property.Index         // posting index over vprops (conflict affinity)
	vv     vclock.Vector           // shard -> highest primary version observed
	retry  transport.RetryPolicy   // bounds router→shard call retries
	closed bool
}

// NewRouter attaches a router under the logical directory name. The map's
// member shards must be (or become) attached to the same network under
// their Node names.
func NewRouter(net transport.Network, name string, m *Map) (*Router, error) {
	if m == nil {
		return nil, fmt.Errorf("shard: nil map")
	}
	r := &Router{
		name:   name,
		m:      m,
		assign: map[string]string{},
		vprops: map[string]property.Set{},
		pidx:   property.NewIndex(),
		vv:     vclock.NewVector(),
	}
	// Attach under the lock: on a live network a request can be dispatched
	// to r.route the moment the handler is installed, and route must not
	// find r.ep nil. resolve() takes r.mu before the endpoint is used, so
	// holding it across the attach closes the window.
	r.mu.Lock()
	ep, err := net.Attach(name, r.route)
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.ep = ep
	r.mu.Unlock()
	return r, nil
}

// Close detaches the router endpoint.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.ep.Close()
}

// routable reports whether a cache-manager request type may cross the
// router. Everything else (replies, DM→CM traffic, replication) is
// refused — the router is strictly the CM→DM half of the star.
func routable(t wire.Type) bool {
	switch t {
	case wire.TRegister, wire.TUnregister, wire.TInit, wire.TPull, wire.TPush,
		wire.TAcquire, wire.TRelease, wire.TSetMode, wire.TSetProps:
		return true
	}
	return false
}

func errf(format string, args ...any) *wire.Message {
	return &wire.Message{Type: wire.TErr, Err: fmt.Sprintf(format, args...)}
}

// route is the router's transport handler.
func (r *Router) route(req *wire.Message) *wire.Message {
	if !routable(req.Type) {
		return errf("shard router %s: %s is not routable", r.name, req.Type)
	}
	view := req.View
	if view == "" {
		view = req.From
	}
	if view == "" {
		return errf("shard router %s: %s without a view identity", r.name, req.Type)
	}

	// The envelope is built before the shard is resolved: handlers must
	// not retain req after returning, so capture it now.
	inner := *req
	inner.From = view
	blob := wire.Encode(&inner)

	shard, placed, err := r.resolve(view, req.Type, req.Props)
	if err != nil {
		return errf("%v", err)
	}
	env := &wire.Message{Type: wire.TRouted, View: view, Blob: blob}
	// Same eviction contract as the DM's own outbound calls: bounded
	// retry-with-backoff before declaring the shard unreachable, so one
	// dropped frame does not fail the view's request.
	reply, callErr := transport.CallRetry(r.ep, shard, env, r.retryPolicy())
	r.settle(shard, view, req.Type, req.Props, placed, reply)
	if reply == nil {
		return errf("shard router %s: shard %s unreachable: %v", r.name, shard, callErr)
	}
	return reply
}

// resolve returns the view's owning shard, with placed reporting
// whether a tentative registration placement was recorded. Registration
// placement happens here (under the lock) so two concurrently
// registering, conflicting views settle on the same shard.
func (r *Router) resolve(view string, t wire.Type, props property.Set) (shard string, placed bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", false, fmt.Errorf("shard router %s: closed", r.name)
	}
	shard, ok := r.assign[view]
	if ok {
		if t == wire.TSetProps {
			// The view keeps its shard (assignments are sticky), so the
			// new set must not overlap views owned elsewhere — the
			// shard-local dynConfl check would silently miss those
			// conflicts. Checked before the shard applies the change.
			if other := r.overlapOutsideLocked(view, shard, props); other != "" {
				return "", false, fmt.Errorf(
					"shard router %s: set-props on %s (shard %s) would overlap views on shard %s; pin the property domain to one shard",
					r.name, view, shard, other)
			}
		}
		return shard, false, nil
	}
	if t != wire.TRegister {
		return "", false, fmt.Errorf("shard router %s: %s for unknown view %s", r.name, t, view)
	}
	shard, err = r.placeLocked(view, props)
	if err != nil {
		return "", false, err
	}
	if shard == "" {
		return "", false, fmt.Errorf("shard router %s: no shards", r.name)
	}
	// Record the placement now so concurrent registrations of conflicting
	// views see it; rolled back if the shard refuses.
	r.assign[view] = shard
	r.vprops[view] = props
	r.pidx.Insert(view, r.vprops[view])
	return shard, true, nil
}

// placeLocked decides the shard for a registering view, rejecting any
// placement that would split a conflict group across shards. Caller
// holds mu.
func (r *Router) placeLocked(view string, props property.Set) (string, error) {
	// Conflict affinity: every assigned view whose property set overlaps
	// the newcomer's must share its shard, because the directory manager's
	// dynConfl check only sees its own registry. Collect the whole overlap
	// group — co-locating with just the first overlapping view could make
	// the newcomer a bridge between disjoint views on different shards,
	// silently splitting its conflicts. The posting index answers "which
	// assigned views overlap?" in O(log n + matches) instead of scanning
	// every assignment.
	group := map[string]bool{}
	r.pidx.Overlapping(props, func(v string) bool {
		group[r.assign[v]] = true
		return true
	})
	if len(group) > 1 {
		return "", fmt.Errorf(
			"shard router %s: registering %s would span its conflict group across shards %s; pin the property domain to one shard",
			r.name, view, joinShards(group))
	}
	if pinned, ok := r.m.RouteProps(props); ok {
		if len(group) == 1 && !group[pinned] {
			return "", fmt.Errorf(
				"shard router %s: %s is pinned to %s but overlapping views live on %s; unregister them or change the pin first",
				r.name, view, pinned, joinShards(group))
		}
		return pinned, nil
	}
	for s := range group {
		return s, nil
	}
	key := props.String()
	if key == "" {
		key = view
	}
	return r.m.Owner(key), nil
}

// overlapOutsideLocked returns a shard other than home owning a view
// (other than self) whose property set overlaps props, or "" when the
// overlap group stays on home. Caller holds mu.
func (r *Router) overlapOutsideLocked(self, home string, props property.Set) string {
	out := ""
	r.pidx.Overlapping(props, func(v string) bool {
		if v == self {
			return true
		}
		if s := r.assign[v]; s != home {
			out = s
			return false
		}
		return true
	})
	return out
}

func joinShards(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for s := range set {
		names = append(names, s)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// settle folds a routed call's outcome into the router tables: the
// reply's version into the shard's vector component, and the
// registration, unregistration or property change into the placement
// tables.
func (r *Router) settle(shard, view string, t wire.Type, props property.Set, placed bool, reply *wire.Message) {
	failed := reply == nil || reply.Type == wire.TErr
	r.mu.Lock()
	if reply != nil {
		v := reply.Version
		if reply.Img != nil && reply.Img.Version > v {
			v = reply.Img.Version
		}
		if uint64(v) > r.vv[shard] {
			r.vv[shard] = uint64(v)
		}
	}
	switch t {
	case wire.TRegister:
		if failed && placed {
			// Drop the tentative placement so a retry re-places cleanly.
			// placed guards an existing assignment against a failed
			// duplicate register.
			delete(r.assign, view)
			delete(r.vprops, view)
			r.pidx.Remove(view)
		}
	case wire.TUnregister:
		if !failed {
			delete(r.assign, view)
			delete(r.vprops, view)
			r.pidx.Remove(view)
		}
	case wire.TSetProps:
		if !failed {
			// Record the new set so future conflict-affinity placements see
			// it; resolve already refused sets that overlap other shards.
			r.vprops[view] = props
			r.pidx.Insert(view, r.vprops[view])
		}
	}
	r.mu.Unlock()
}

// SetRetryPolicy configures the bounded retry-with-backoff applied to
// router→shard calls (the routing envelopes). The zero value means the
// transport defaults.
func (r *Router) SetRetryPolicy(p transport.RetryPolicy) {
	r.mu.Lock()
	r.retry = p
	r.mu.Unlock()
}

func (r *Router) retryPolicy() transport.RetryPolicy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retry
}

// Versions returns a copy of the per-shard version vector: for each shard
// node, the highest primary version the router has observed from it.
// Components never decrease: each is a running maximum over the replies
// the shard sent.
func (r *Router) Versions() vclock.Vector {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vv.Clone()
}

// Failovers returns 0: the router promotes no standby (a hot standby is
// a daemon-level pairing, cmd/fleccd's -replicate-to/-standby). It is
// retained only because bench/layers.go still reads it for the
// shard.failovers metric; the next change to the benchmark drops that
// read and this method with it.
func (r *Router) Failovers() int64 { return 0 }

// Assignment returns a copy of the view→shard table.
func (r *Router) Assignment() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.assign))
	for v, s := range r.assign {
		out[v] = s
	}
	return out
}
