package cache_test

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/metrics"
	"flecc/internal/property"
	"flecc/internal/registry"
	"flecc/internal/shard"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// kvView is a toy application component/view: a string map guarded by a
// mutex, with the extract/merge codec over it. It plays both the original
// component and the views in these tests.
type kvView struct {
	mu   sync.Mutex
	data map[string]string
}

func newKV(init map[string]string) *kvView {
	d := map[string]string{}
	for k, v := range init {
		d[k] = v
	}
	return &kvView{data: d}
}

func (v *kvView) Set(k, val string) {
	v.mu.Lock()
	v.data[k] = val
	v.mu.Unlock()
}

func (v *kvView) Get(k string) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.data[k]
}

func (v *kvView) Delete(k string) {
	v.mu.Lock()
	delete(v.data, k)
	v.mu.Unlock()
}

func (v *kvView) Extract(props property.Set) (*image.Image, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	img := image.New()
	for k, val := range v.data {
		img.Put(image.Entry{Key: k, Value: []byte(val)})
	}
	return img, nil
}

func (v *kvView) Merge(img *image.Image, props property.Set) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, e := range img.Entries {
		k := e.Key
		if e.Deleted {
			delete(v.data, k)
			continue
		}
		v.data[k] = string(e.Value)
	}
	return nil
}

// rig bundles a complete single-component deployment for tests. With
// FLECC_TEST_SHARDS=N (N > 1) in the environment the same suite runs
// against a sharded directory service instead: the views still dial "dm"
// with an unchanged configuration, but that name is now the shard router
// and N shard managers named dm!s0..dm!s{N-1} hold the state between
// them. Tests reach the manager serving a view through dmFor.
type rig struct {
	clock *vclock.Sim
	net   *transport.Inproc
	stats *metrics.MessageStats
	prim  *kvView
	dm    *directory.Manager // single-DM mode
	svc   *shard.Service     // sharded mode (FLECC_TEST_SHARDS > 1)
}

// testShards reports the FLECC_TEST_SHARDS override; 0 or 1 means the
// plain single-DM rig.
func testShards() int {
	n, _ := strconv.Atoi(os.Getenv("FLECC_TEST_SHARDS"))
	return n
}

// collapseShards rewrites shard-internal traffic so the suite's exact
// message-count assertions hold verbatim in sharded mode: the
// router→shard leg of each routed request is dropped (it mirrors the
// client→router leg one-to-one), and shard-originated traffic to the
// views (invalidates, updates) is attributed to the logical directory
// name.
type collapseShards struct{ inner transport.Observer }

func (c collapseShards) OnMessage(from, to string, m *wire.Message) {
	if base, _, ok := shard.IsNode(from); ok {
		if base == to {
			return
		}
		from = base
	}
	if base, _, ok := shard.IsNode(to); ok {
		if base == from {
			return
		}
		to = base
	}
	c.inner.OnMessage(from, to, m)
}

func newRig(t *testing.T, opts directory.Options) *rig {
	t.Helper()
	r := &rig{
		clock: vclock.NewSim(),
		net:   transport.NewInproc(),
		stats: metrics.NewMessageStats(false),
		prim:  newKV(map[string]string{"seed": "s0"}),
	}
	// With FLECC_TEST_INVARIANTS=1 every rig-based test additionally
	// asserts the directory's invariant self-checks once it finishes
	// (every manager in the deployment, including all shards).
	if os.Getenv("FLECC_TEST_INVARIANTS") == "1" {
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			for _, dm := range r.dms() {
				if err := dm.CheckInvariants(); err != nil {
					t.Errorf("FLECC_TEST_INVARIANTS: %s: post-test invariant check failed: %v", dm.Name(), err)
				}
			}
		})
	}
	if n := testShards(); n > 1 {
		r.net.AddObserver(collapseShards{r.stats})
		svc, err := shard.NewService(shard.ServiceConfig{
			Name:  "dm",
			Net:   r.net,
			Clock: r.clock,
			// The shards share the one primary; the kvView codec is
			// mutex-guarded, so that is safe.
			Shards:  n,
			Primary: func(int) image.Codec { return r.prim },
			Opts:    opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		r.svc = svc
		return r
	}
	r.net.AddObserver(r.stats)
	dm, err := directory.New("dm", r.prim, r.clock, r.net, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.dm = dm
	return r
}

// dmFor returns the directory manager serving the named view: the one
// manager in the default rig, the owning shard in sharded mode.
func (r *rig) dmFor(view string) *directory.Manager {
	if r.svc == nil {
		return r.dm
	}
	owner := r.svc.Router().Assignment()[view]
	if _, i, ok := shard.IsNode(owner); ok {
		return r.svc.Shard(i)
	}
	panic("rig: view " + view + " is not assigned to any shard")
}

// dms returns every directory manager in the rig, for operations that
// must reach all shards (e.g. seeding the static conflict matrix before
// views have registered anywhere).
func (r *rig) dms() []*directory.Manager {
	if r.svc == nil {
		return []*directory.Manager{r.dm}
	}
	out := make([]*directory.Manager, r.svc.NumShards())
	for i := range out {
		out[i] = r.svc.Shard(i)
	}
	return out
}

// allViews returns the union of registered views across the deployment.
func (r *rig) allViews() []string {
	var out []string
	for _, dm := range r.dms() {
		out = append(out, dm.Views()...)
	}
	return out
}

// activeViews returns the union of active views across the deployment.
func (r *rig) activeViews() []string {
	var out []string
	for _, dm := range r.dms() {
		for _, v := range dm.Views() {
			if dm.Phase(v) == directory.PhaseActive {
				out = append(out, v)
			}
		}
	}
	return out
}

func (r *rig) view(t *testing.T, name, props string, mode wire.Mode, view *kvView, triggers ...string) *cache.Manager {
	t.Helper()
	cfg := cache.Config{
		Name:      name,
		Directory: "dm",
		Net:       r.net,
		View:      view,
		Props:     property.MustSet(props),
		Mode:      mode,
		Clock:     r.clock,
	}
	if len(triggers) > 0 {
		cfg.PushTrigger = triggers[0]
	}
	if len(triggers) > 1 {
		cfg.PullTrigger = triggers[1]
	}
	if len(triggers) > 2 {
		cfg.ValidityTrigger = triggers[2]
	}
	cm, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func TestInitDeliversPrimaryData(t *testing.T) {
	r := newRig(t, directory.Options{})
	v := newKV(nil)
	cm := r.view(t, "v1", "P={x,y}", wire.Weak, v)
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	if v.Get("seed") != "s0" {
		t.Fatal("init should merge the primary data into the view")
	}
	if !cm.Valid() {
		t.Fatal("view should be valid after init")
	}
}

func TestUseBeforeInitFails(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil))
	if err := cm.StartUse(); !errors.Is(err, cache.ErrNotInitialized) {
		t.Fatalf("err = %v", err)
	}
	if err := cm.PullImage(); !errors.Is(err, cache.ErrNotInitialized) {
		t.Fatalf("err = %v", err)
	}
	if err := cm.PushImage(); !errors.Is(err, cache.ErrNotInitialized) {
		t.Fatalf("err = %v", err)
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	if err := cm1.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm2.InitImage(); err != nil {
		t.Fatal(err)
	}
	// v1 updates and pushes.
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	v1.Set("ticket", "sold-to-alice")
	cm1.EndUse()
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	if r.prim.Get("ticket") != "sold-to-alice" {
		t.Fatal("push should reach the primary")
	}
	// v2 pulls and observes.
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v2.Get("ticket") != "sold-to-alice" {
		t.Fatal("pull should deliver the update")
	}
	if cm2.Seen() != r.dmFor("v2").CurrentVersion() {
		t.Fatal("seen version should advance")
	}
}

func TestCleanPushSendsNothing(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil))
	cm.InitImage()
	before := r.stats.Total()
	if err := cm.PushImage(); err != nil {
		t.Fatal(err)
	}
	if r.stats.Total() != before {
		t.Fatal("clean push should not send messages")
	}
}

// TestStrongModeInvalidation reproduces the paper's Figure 2 walkthrough:
// two strong views; when V2 pulls, V1 is invalidated and its pending
// updates are folded into the primary before V2 is served.
func TestStrongModeInvalidation(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x,y}", wire.Strong, v1)
	cm2 := r.view(t, "v2", "P={x,z}", wire.Strong, v2)
	if err := cm1.InitImage(); err != nil {
		t.Fatal(err)
	}
	// V1 works on the data but does NOT push.
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	v1.Set("x", "v1-wrote-this")
	cm1.EndUse()

	// V2's init + pull invalidates V1 (they conflict through x).
	if err := cm2.InitImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if cm1.Valid() {
		t.Fatal("V1 should be invalidated")
	}
	if cm1.Invalidations() != 1 {
		t.Fatalf("invalidations = %d", cm1.Invalidations())
	}
	// V1's pending update must have reached V2 through the primary.
	if v2.Get("x") != "v1-wrote-this" {
		t.Fatalf("v2 sees x=%q", v2.Get("x"))
	}
	// V1 cannot use its image until it pulls again.
	if err := cm1.StartUse(); !errors.Is(err, cache.ErrInvalidated) {
		t.Fatalf("err = %v", err)
	}
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	cm1.EndUse()
	// And V1's pull in turn invalidated V2: only one active view.
	if cm2.Valid() {
		t.Fatal("V2 should now be invalidated (one active view in strong mode)")
	}
	active := r.activeViews()
	if len(active) != 1 || active[0] != "v1" {
		t.Fatalf("active views = %v", active)
	}
}

func TestStrongInvalidationSkipsNonConflicting(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "Flights={100..109}", wire.Strong, v1)
	cm2 := r.view(t, "v2", "Flights={200..209}", wire.Strong, v2)
	cm1.InitImage()
	cm2.InitImage()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if !cm1.Valid() {
		t.Fatal("disjoint views must not invalidate each other")
	}
	if len(r.activeViews()) != 2 {
		t.Fatalf("both views should stay active: %v", r.activeViews())
	}
}

func TestWeakViewsCoexist(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm2.InitImage()
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if !cm1.Valid() || !cm2.Valid() {
		t.Fatal("weak conflicting views must both stay valid")
	}
}

func TestWeakPullIsStaleWithoutValidity(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm2.InitImage()
	// v1 modifies locally, does not push.
	cm1.StartUse()
	v1.Set("x", "unpushed")
	cm1.EndUse()
	// v2 pulls; with no validity trigger the DM serves the primary as-is.
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v2.Get("x") == "unpushed" {
		t.Fatal("relaxed weak pull should not see peers' unpushed data")
	}
	if cm1.PendingOps() != 1 {
		t.Fatalf("v1 pending ops = %d", cm1.PendingOps())
	}
}

func TestWeakPullGathersWithValidityTrigger(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	// validity "false": the primary data is never good enough — always
	// gather from conflicting active views (freshest possible data).
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2, "", "", "false")
	cm1.InitImage()
	cm2.InitImage()
	cm1.StartUse()
	v1.Set("x", "unpushed")
	cm1.EndUse()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v2.Get("x") != "unpushed" {
		t.Fatal("validity-triggered gather should fetch peers' pending data")
	}
	if cm1.PendingOps() != 0 {
		t.Fatal("fetch should clear v1's pending ops")
	}
	if !cm1.Valid() {
		t.Fatal("fetch must not invalidate the peer")
	}
}

func TestValidityStalenessVariable(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	// Accept primary data while fewer than 2 committed remote ops are
	// unseen.
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2, "", "", "staleness < 2")
	cm1.InitImage()
	cm2.InitImage()

	work := func() {
		cm1.StartUse()
		v1.Set("x", "w")
		cm1.EndUse()
		if err := cm1.PushImage(); err != nil {
			t.Fatal(err)
		}
	}
	work()
	// staleness(v2)=1 < 2: no gather — but pull still serves committed data.
	msgsBefore := r.stats.Total()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := r.stats.Total() - msgsBefore; got != 2 {
		t.Fatalf("pull with satisfied validity should cost 2 messages, got %d", got)
	}
}

func TestValidityVersionAndTimeVariables(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	// Validity: the primary is good enough only before version 2 or
	// before t=1000 — afterwards, gather.
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2, "", "", "version < 2 && t < 1000")
	cm1.InitImage()
	cm2.InitImage()

	mutate := func() {
		cm1.StartUse()
		v1.Set("x", "dirty")
		cm1.EndUse()
	}
	mutate()
	// version=0, t=0: good enough — no gathering (2 messages).
	r.stats.Reset()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := r.stats.Total(); got != 2 {
		t.Fatalf("early pull = %d messages, want 2", got)
	}
	// Advance time past the trigger bound: now gathering kicks in.
	r.clock.Advance(2000)
	r.stats.Reset()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := r.stats.Total(); got != 4 {
		t.Fatalf("late pull = %d messages, want 4 (pull + fetch)", got)
	}
	if v2.Get("x") != "dirty" {
		t.Fatal("gathered data should arrive")
	}
}

func TestQualityAccounting(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm2.InitImage()

	for i := 0; i < 3; i++ {
		cm1.StartUse()
		v1.Set("x", string(rune('a'+i)))
		cm1.EndUse()
		if err := cm1.PushImage(); err != nil {
			t.Fatal(err)
		}
	}
	// v2 hasn't pulled since init: 3 committed remote ops unseen.
	if got := r.dmFor("v2").UnseenCommitted("v2"); got != 3 {
		t.Fatalf("unseen = %d, want 3", got)
	}
	// v1 wrote them itself: nothing unseen.
	if got := r.dmFor("v1").UnseenCommitted("v1"); got != 0 {
		t.Fatalf("unseen(v1) = %d, want 0", got)
	}
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := r.dmFor("v2").UnseenCommitted("v2"); got != 0 {
		t.Fatalf("unseen after pull = %d, want 0", got)
	}
}

func TestQualityPropsFiltered(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v3 := newKV(nil)
	cm1 := r.view(t, "v1", "Flights={100}", wire.Weak, v1)
	cm3 := r.view(t, "v3", "Flights={200}", wire.Weak, v3)
	cm1.InitImage()
	cm3.InitImage()
	cm1.StartUse()
	v1.Set("f100", "updated")
	cm1.EndUse()
	cm1.PushImage()
	// v3's data is disjoint; the update must not count against it.
	if got := r.dmFor("v3").UnseenCommitted("v3"); got != 0 {
		t.Fatalf("unseen(v3) = %d, want 0", got)
	}
}

func TestPullPreservesLocalDirtyEntries(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm1.InitImage()
	// Local unpushed change.
	cm1.StartUse()
	v1.Set("seed", "locally-changed")
	cm1.EndUse()
	// Pull returns the stale primary value for "seed"; it must not clobber
	// the pending local change.
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v1.Get("seed") != "locally-changed" {
		t.Fatalf("pull clobbered local change: %q", v1.Get("seed"))
	}
	// The change still reaches the primary on push.
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	if r.prim.Get("seed") != "locally-changed" {
		t.Fatal("pending change lost")
	}
}

func TestPullAppliesRemoteChangeToCleanKey(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm2.InitImage()
	// v2 is dirty on key "mine" but clean on "seed".
	cm2.StartUse()
	v2.Set("mine", "local")
	cm2.EndUse()
	// v1 updates "seed" and pushes.
	cm1.StartUse()
	v1.Set("seed", "remote-update")
	cm1.EndUse()
	cm1.PushImage()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v2.Get("seed") != "remote-update" {
		t.Fatal("clean key should take the remote update")
	}
	if v2.Get("mine") != "local" {
		t.Fatal("dirty key should be preserved")
	}
}

func TestModeSwitchAtRuntime(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm2.InitImage()
	cm1.PullImage()
	cm2.PullImage()
	if !cm1.Valid() || !cm2.Valid() {
		t.Fatal("weak views should coexist")
	}
	// v2 becomes strong (viewer -> buyer); its next pull invalidates v1.
	if err := cm2.SetMode(wire.Strong); err != nil {
		t.Fatal(err)
	}
	if cm2.Mode() != wire.Strong || r.dmFor("v2").Mode("v2") != wire.Strong {
		t.Fatal("mode switch not recorded")
	}
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if cm1.Valid() {
		t.Fatal("strong pull should invalidate the weak sharer")
	}
	// Back to weak: coexistence restored.
	if err := cm2.SetMode(wire.Weak); err != nil {
		t.Fatal(err)
	}
	cm1.PullImage()
	cm2.PullImage()
	if !cm1.Valid() || !cm2.Valid() {
		t.Fatal("after returning to weak both views should be valid")
	}
}

func TestWeakPullInvalidatesStrongHolder(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Strong, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm1.PullImage() // v1 is the strong active holder
	cm2.InitImage()
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if cm1.Valid() {
		t.Fatal("weak pull must displace a conflicting strong holder")
	}
}

func TestSetPropsChangesConflicts(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "Flights={100}", wire.Strong, v1)
	cm2 := r.view(t, "v2", "Flights={200}", wire.Strong, v2)
	cm1.InitImage()
	cm2.InitImage()
	cm2.PullImage()
	if !cm1.Valid() {
		t.Fatal("disjoint: no invalidation expected")
	}
	// v2 retargets to flight 100 at run time.
	if err := cm2.SetProps(property.MustSet("Flights={100}")); err != nil {
		t.Fatal(err)
	}
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if cm1.Valid() {
		t.Fatal("after SetProps the views conflict; v1 should be invalidated")
	}
}

func TestKillImagePushesPending(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm1.InitImage()
	cm1.StartUse()
	v1.Set("x", "final-words")
	cm1.EndUse()
	if err := cm1.KillImage(); err != nil {
		t.Fatal(err)
	}
	if r.prim.Get("x") != "final-words" {
		t.Fatal("kill should push pending changes")
	}
	if got := r.allViews(); len(got) != 0 {
		t.Fatalf("views = %v", got)
	}
}

func TestDeletionsPropagate(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm2.InitImage()
	cm1.StartUse()
	v1.Delete("seed")
	cm1.EndUse()
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	if r.prim.Get("seed") != "" {
		t.Fatal("deletion should reach primary")
	}
	if err := cm2.PullImage(); err != nil {
		t.Fatal(err)
	}
	if v2.Get("seed") != "" {
		t.Fatal("deletion should reach the other view")
	}
}

func TestStaticMatrixOverridesDynamic(t *testing.T) {
	r := newRig(t, directory.Options{})
	// Force no-conflict statically even though properties overlap.
	for _, dm := range r.dms() {
		dm.Registry().SetStatic("v1", "v2", 0)
	}
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Strong, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Strong, v2)
	cm1.InitImage()
	cm2.InitImage()
	cm2.PullImage()
	if !cm1.Valid() {
		t.Fatal("static 0 should suppress invalidation")
	}
}

func TestUnregisteredViewRejected(t *testing.T) {
	r := newRig(t, directory.Options{})
	ep, err := r.net.Attach("rogue", func(req *wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []wire.Type{wire.TInit, wire.TPull, wire.TPush, wire.TSetMode} {
		if _, err := ep.Call("dm", &wire.Message{Type: typ}); err == nil {
			t.Errorf("%v from unregistered view should fail", typ)
		}
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	r := newRig(t, directory.Options{})
	r.view(t, "v1", "P={x}", wire.Weak, newKV(nil))
	cfg := cache.Config{
		Name: "v1b", Directory: "dm", Net: r.net, View: newKV(nil),
		Props: property.MustSet("P={x}"), Clock: r.clock,
	}
	// Same transport name is caught by the network; same view name at the
	// DM is caught by the registry. Exercise the registry path by
	// registering a different node name claiming view v1.
	ep, err := r.net.Attach("v1-imposter", func(req *wire.Message) *wire.Message { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Call("dm", &wire.Message{Type: wire.TRegister, View: "v1"}); err == nil {
		t.Fatal("duplicate view registration should fail")
	}
	_ = cfg
}

func TestBadTriggerRejectedAtRegistration(t *testing.T) {
	r := newRig(t, directory.Options{})
	_, err := cache.New(cache.Config{
		Name: "v1", Directory: "dm", Net: r.net, View: newKV(nil),
		Props: property.MustSet("P={x}"), Clock: r.clock,
		PushTrigger: "t >", // syntax error
	})
	if err == nil {
		t.Fatal("bad push trigger should fail at construction")
	}
	_, err = cache.New(cache.Config{
		Name: "v2", Directory: "dm", Net: r.net, View: newKV(nil),
		Props: property.MustSet("P={x}"), Clock: r.clock,
		ValidityTrigger: "t +", // DM-side compile failure
	})
	if err == nil {
		t.Fatal("bad validity trigger should fail registration")
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, directory.Options{})
	bad := []cache.Config{
		{Directory: "dm", Net: r.net, View: newKV(nil), Clock: r.clock},
		{Name: "x", Net: r.net, View: newKV(nil), Clock: r.clock},
		{Name: "x", Directory: "dm", View: newKV(nil), Clock: r.clock},
		{Name: "x", Directory: "dm", Net: r.net, Clock: r.clock},
		{Name: "x", Directory: "dm", Net: r.net, View: newKV(nil)},
	}
	for i, cfg := range bad {
		if _, err := cache.New(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestPushTriggerFires(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1, "pending > 0 && t > 1500")
	cm1.InitImage()
	cm1.StartUse()
	v1.Set("x", "dirty")
	cm1.EndUse()

	// Before t=1500: no push.
	pushed, pulled, err := cm1.EvaluateTriggers()
	if err != nil || pushed || pulled {
		t.Fatalf("early evaluation: pushed=%v pulled=%v err=%v", pushed, pulled, err)
	}
	r.clock.Advance(2000)
	pushed, _, err = cm1.EvaluateTriggers()
	if err != nil || !pushed {
		t.Fatalf("pushed=%v err=%v", pushed, err)
	}
	if r.prim.Get("x") != "dirty" {
		t.Fatal("trigger push should reach primary")
	}
	// pending reset: the same trigger no longer fires.
	pushed, _, _ = cm1.EvaluateTriggers()
	if pushed {
		t.Fatal("clean view should not push again")
	}
}

func TestPullTriggerEvery(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2, "", "every(500)")
	cm1.InitImage()
	cm2.InitImage()
	cm1.StartUse()
	v1.Set("x", "fresh")
	cm1.EndUse()
	cm1.PushImage()

	if !cm2.ScheduleTriggers(100) {
		t.Fatal("scheduler should start")
	}
	r.clock.RunUntil(1000)
	if v2.Get("x") != "fresh" {
		t.Fatal("periodic pull trigger should have refreshed v2")
	}
	cm2.StopTriggers()
	// No further events should do work after stop + drain.
	r.clock.RunUntil(2000)
}

func TestScheduleTriggersRequiresSimAndTriggers(t *testing.T) {
	r := newRig(t, directory.Options{})
	cm := r.view(t, "v1", "P={x}", wire.Weak, newKV(nil)) // no triggers
	if cm.ScheduleTriggers(100) {
		t.Fatal("no triggers: scheduler should refuse")
	}
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, newKV(nil), "pending > 0")
	if cm2.ScheduleTriggers(0) {
		t.Fatal("non-positive period should refuse")
	}
	if !cm2.ScheduleTriggers(50) {
		t.Fatal("valid scheduler should start")
	}
	if cm2.ScheduleTriggers(50) {
		t.Fatal("double-start should refuse")
	}
}

func TestMessageCountsPerOperation(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm2.InitImage()
	cm1.PullImage()

	r.stats.Reset()
	// Weak relaxed pull: request + reply.
	cm2.PullImage()
	if got := r.stats.Total(); got != 2 {
		t.Fatalf("weak pull = %d messages, want 2", got)
	}

	r.stats.Reset()
	// Strong pull with one conflicting active view: 2 (pull) + 2 (invalidate).
	cm2.SetMode(wire.Strong)
	r.stats.Reset()
	cm2.PullImage()
	if got := r.stats.Total(); got != 4 {
		t.Fatalf("strong pull with 1 sharer = %d messages, want 4", got)
	}
}

// TestWorstCaseDefaultGathersFromEveryone is the multicast comparator in
// the paper's vocabulary: the static default set to 1 ("all views
// conflict") and views whose validity trigger never accepts the primary
// copy.
func TestWorstCaseDefaultGathersFromEveryone(t *testing.T) {
	r := newRig(t, directory.Options{})
	for _, dm := range r.dms() {
		dm.Registry().SetDefaultRelation(registry.Conflict)
	}
	views := make([]*kvView, 4)
	cms := make([]*cache.Manager, 4)
	names := []string{"a", "b", "c", "d"}
	for i := range views {
		views[i] = newKV(nil)
		// All disjoint properties — Flecc would never gather; multicast
		// fetches from everyone anyway.
		cms[i] = r.view(t, names[i], "F={"+string(rune('0'+i))+"}", wire.Weak, views[i], "", "", "false")
		cms[i].InitImage()
	}
	r.stats.Reset()
	cms[0].PullImage()
	// 2 (pull) + 2*3 (fetch from every other active view).
	if got := r.stats.Total(); got != 8 {
		t.Fatalf("multicast pull = %d messages, want 8", got)
	}
}

// TestNoValidityTriggerSkipsGather is the time-sharing comparator's pull:
// a view that registers no validity trigger accepts the primary copy
// as-is, so its pull never gathers, even from an active conflicting view.
func TestNoValidityTriggerSkipsGather(t *testing.T) {
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	r.view(t, "v1", "P={x}", wire.Weak, v1, "", "", "false").InitImage()
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm2.InitImage()
	r.stats.Reset()
	cm2.PullImage()
	if got := r.stats.Total(); got != 2 {
		t.Fatalf("pull without a validity trigger = %d messages, want 2", got)
	}
}

func TestPushPropagationDeliversUpdates(t *testing.T) {
	r := newRig(t, directory.Options{PropagateOnPush: true})
	v1 := newKV(nil)
	v2 := newKV(nil)
	v3 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm3 := r.view(t, "v3", "Q={y}", wire.Weak, v3) // disjoint
	cm1.InitImage()
	cm2.InitImage()
	cm3.InitImage()

	cm1.StartUse()
	v1.Set("k", "pushed-through")
	cm1.EndUse()
	r.stats.Reset()
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	// The conflicting view received the update without pulling...
	if v2.Get("k") != "pushed-through" {
		t.Fatal("propagation should reach conflicting views")
	}
	if cm2.Seen() != r.dmFor("v2").CurrentVersion() {
		t.Fatal("propagated view's seen should advance")
	}
	// ...the disjoint view was not contacted (push 2 + update 2 = 4).
	if got := r.stats.Total(); got != 4 {
		t.Fatalf("messages = %d, want 4 (no update to disjoint view)", got)
	}
	if v3.Get("k") != "" {
		t.Fatal("disjoint view must not receive the update")
	}
	// Quality: the recipient is fresh immediately.
	if got := r.dmFor("v2").UnseenCommitted("v2"); got != 0 {
		t.Fatalf("unseen = %d", got)
	}
}

// TestPropagatedUpdateFilteredPerView: one push round's TUpdate payload
// reaches two views while one of them holds a pending change to a key it
// carries. Every transport delivers a decoded copy, so the holder drops
// that entry from its own copy in place, and the other view still gets
// and merges every entry.
func TestPropagatedUpdateFilteredPerView(t *testing.T) {
	r := newRig(t, directory.Options{PropagateOnPush: true})
	vw, va, vb := newKV(nil), newKV(nil), newKV(nil)
	w := r.view(t, "w", "P={x}", wire.Weak, vw)
	a := r.view(t, "a", "P={x}", wire.Weak, va)
	b := r.view(t, "b", "P={x}", wire.Weak, vb)
	for _, cm := range []*cache.Manager{w, a, b} {
		if err := cm.InitImage(); err != nil {
			t.Fatal(err)
		}
	}
	a.StartUse()
	va.Set("k1", "a-local") // pending: a never pushes it
	a.EndUse()

	var mu sync.Mutex
	got := map[string]*wire.Message{}
	r.net.SetBeforeDeliver(func(from, to string, m *wire.Message, _ int) {
		if m.Type == wire.TUpdate {
			mu.Lock()
			got[to] = m
			mu.Unlock()
		}
	})
	w.StartUse()
	vw.Set("k1", "w1")
	vw.Set("k2", "w2")
	w.EndUse()
	if err := w.PushImage(); err != nil {
		t.Fatal(err)
	}
	r.net.SetBeforeDeliver(nil)

	ua, ub := got["a"], got["b"]
	if ua == nil || ub == nil || ua.Img == nil || ub.Img == nil {
		t.Fatalf("updates delivered: a %v, b %v; want one image each", ua, ub)
	}
	if ua.Img == ub.Img {
		t.Fatal("a and b received one shared image")
	}
	keys := func(img *image.Image) string {
		var out []string
		for _, e := range img.Entries {
			out = append(out, e.Key+"="+string(e.Value))
		}
		return strings.Join(out, ",")
	}
	if k := keys(ua.Img); k != "k2=w2,seed=s0" {
		t.Errorf("a's update after its merge = %q, want the pending key dropped: %q", k, "k2=w2,seed=s0")
	}
	if k := keys(ub.Img); k != "k1=w1,k2=w2,seed=s0" {
		t.Errorf("b's update after its merge = %q, want %q", k, "k1=w1,k2=w2,seed=s0")
	}
	if va.Get("k1") != "a-local" || va.Get("k2") != "w2" {
		t.Errorf("a holds k1=%q k2=%q, want its pending a-local and w2", va.Get("k1"), va.Get("k2"))
	}
	if vb.Get("k1") != "w1" || vb.Get("k2") != "w2" {
		t.Errorf("b holds k1=%q k2=%q, want w1 and w2", vb.Get("k1"), vb.Get("k2"))
	}
}

func TestRejectedPushConverges(t *testing.T) {
	// The primary's resolver rejects v2's value; v2 must converge on the
	// winning value rather than silently keeping its own.
	r := newRig(t, directory.Options{
		Resolver: func(c image.Conflict) (image.Entry, error) {
			return c.Ours, nil // primary always wins
		},
	})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Weak, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Weak, v2)
	cm1.InitImage()
	cm2.InitImage()
	// Both edit the same key from the same snapshot.
	cm1.StartUse()
	v1.Set("k", "winner")
	cm1.EndUse()
	cm2.StartUse()
	v2.Set("k", "loser")
	cm2.EndUse()
	if err := cm1.PushImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm2.PushImage(); err != nil {
		t.Fatal(err)
	}
	if r.prim.Get("k") != "winner" {
		t.Fatalf("primary = %q", r.prim.Get("k"))
	}
	if v2.Get("k") != "winner" {
		t.Fatalf("rejected pusher should converge, v2 = %q", v2.Get("k"))
	}
	// And a subsequent push from v2 is clean (no spurious re-push of the
	// rejected value).
	before := r.stats.Total()
	if err := cm2.PushImage(); err != nil {
		t.Fatal(err)
	}
	if r.stats.Total() != before {
		t.Fatal("converged view should have nothing to push")
	}
}

func TestConcurrentUseAndInvalidate(t *testing.T) {
	// A strong peer's pull must block until the open use window closes.
	r := newRig(t, directory.Options{})
	v1 := newKV(nil)
	v2 := newKV(nil)
	cm1 := r.view(t, "v1", "P={x}", wire.Strong, v1)
	cm2 := r.view(t, "v2", "P={x}", wire.Strong, v2)
	cm1.InitImage()
	cm2.InitImage()
	if err := cm1.PullImage(); err != nil {
		t.Fatal(err)
	}
	if err := cm1.StartUse(); err != nil {
		t.Fatal(err)
	}
	v1.Set("x", "mid-flight")

	done := make(chan error, 1)
	go func() { done <- cm2.PullImage() }()

	// Give the puller a moment to block on the invalidation.
	// (The invalidation handler waits on the cond for EndUse.)
	cm1.EndUse()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v2.Get("x") != "mid-flight" {
		t.Fatal("v2 should see the completed write")
	}
}
