package peer

import (
	"sync"
	"testing"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// kv is the toy replica store.
type kv struct {
	mu   sync.Mutex
	data map[string]string
}

func newKV() *kv { return &kv{data: map[string]string{}} }

func (v *kv) Set(k, val string) {
	v.mu.Lock()
	v.data[k] = val
	v.mu.Unlock()
}

func (v *kv) Get(k string) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.data[k]
}

func (v *kv) Delete(k string) {
	v.mu.Lock()
	delete(v.data, k)
	v.mu.Unlock()
}

func (v *kv) Extract(props property.Set) (*image.Image, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	img := image.New()
	for k, val := range v.data {
		img.Put(image.Entry{Key: k, Value: []byte(val)})
	}
	return img, nil
}

func (v *kv) Merge(img *image.Image, props property.Set) error {
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

func pair(t *testing.T) (*Peer, *kv, *Peer, *kv) {
	t.Helper()
	net := transport.NewInproc()
	va, vb := newKV(), newKV()
	a, err := New("a", va, net, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("b", vb, net, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, va, b, vb
}

func TestSyncPropagatesBothWays(t *testing.T) {
	a, va, b, vb := pair(t)
	va.Set("x", "from-a")
	vb.Set("y", "from-b")
	if err := a.Sync("b"); err != nil {
		t.Fatal(err)
	}
	if vb.Get("x") != "from-a" {
		t.Fatal("b should receive a's entry")
	}
	if va.Get("y") != "from-b" {
		t.Fatal("a should receive b's entry (symmetric exchange)")
	}
	if a.Conflicts() != 0 || b.Conflicts() != 0 {
		t.Fatal("no conflicts expected")
	}
}

func TestCausalUpdateWins(t *testing.T) {
	a, va, b, vb := pair(t)
	va.Set("x", "v1")
	if err := a.Sync("b"); err != nil {
		t.Fatal(err)
	}
	// b updates the value it received: causally after a's write.
	vb.Set("x", "v2")
	if err := b.Sync("a"); err != nil {
		t.Fatal(err)
	}
	if va.Get("x") != "v2" {
		t.Fatalf("a = %q, want v2", va.Get("x"))
	}
	// Syncing again changes nothing.
	if err := a.Sync("b"); err != nil {
		t.Fatal(err)
	}
	if va.Get("x") != "v2" || vb.Get("x") != "v2" {
		t.Fatal("steady state should persist")
	}
	if a.Conflicts()+b.Conflicts() != 0 {
		t.Fatal("causal chain is not a conflict")
	}
}

func TestConcurrentConflictConverges(t *testing.T) {
	a, va, b, vb := pair(t)
	// Both write the same key with no sync in between: concurrent.
	va.Set("x", "a-wrote")
	vb.Set("x", "b-wrote")
	if err := a.Sync("b"); err != nil {
		t.Fatal(err)
	}
	if a.Conflicts()+b.Conflicts() == 0 {
		t.Fatal("concurrent writes should be detected as a conflict")
	}
	// Exchange once more to settle both sides, then verify convergence.
	if err := b.Sync("a"); err != nil {
		t.Fatal(err)
	}
	if va.Get("x") != vb.Get("x") {
		t.Fatalf("divergence: a=%q b=%q", va.Get("x"), vb.Get("x"))
	}
}

func TestResolverDecidesConflicts(t *testing.T) {
	net := transport.NewInproc()
	va, vb := newKV(), newKV()
	// Resolver: longer value wins.
	res := func(c image.Conflict) (image.Entry, error) {
		if len(c.Ours.Value) >= len(c.Theirs.Value) {
			return c.Ours, nil
		}
		return c.Theirs, nil
	}
	a, err := New("a", va, net, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("b", vb, net, res); err != nil {
		t.Fatal(err)
	}
	va.Set("x", "short")
	vb.Set("x", "much-longer-value")
	if err := a.Sync("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync("b"); err != nil {
		t.Fatal(err)
	}
	if va.Get("x") != "much-longer-value" || vb.Get("x") != "much-longer-value" {
		t.Fatalf("resolver outcome: a=%q b=%q", va.Get("x"), vb.Get("x"))
	}
}

func TestDeletionPropagates(t *testing.T) {
	a, va, b, vb := pair(t)
	_ = b
	va.Set("x", "doomed")
	if err := a.Sync("b"); err != nil {
		t.Fatal(err)
	}
	if vb.Get("x") != "doomed" {
		t.Fatal("precondition: b has x")
	}
	va.Delete("x")
	if err := a.Sync("b"); err != nil {
		t.Fatal(err)
	}
	if vb.Get("x") != "" {
		t.Fatalf("deletion should propagate, b has %q", vb.Get("x"))
	}
}

func TestThreePeerConvergence(t *testing.T) {
	net := transport.NewInproc()
	stores := []*kv{newKV(), newKV(), newKV()}
	peers := make([]*Peer, 3)
	names := []string{"a", "b", "c"}
	for i := range peers {
		p, err := New(names[i], stores[i], net, nil)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	stores[0].Set("k0", "v0")
	stores[1].Set("k1", "v1")
	stores[2].Set("k2", "v2")
	// Ring anti-entropy, two rounds.
	for round := 0; round < 2; round++ {
		for i := range peers {
			if err := peers[i].Sync(names[(i+1)%3]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range stores {
		for _, k := range []string{"k0", "k1", "k2"} {
			if s.Get(k) == "" {
				t.Fatalf("peer %d missing %s", i, k)
			}
		}
	}
}

func TestHandleRejectsUnknown(t *testing.T) {
	net := transport.NewInproc()
	a, err := New("a", newKV(), net, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	ep, _ := net.Attach("x", func(req *wire.Message) *wire.Message { return nil })
	if _, err := ep.Call("a", &wire.Message{Type: wire.TPush}); err == nil {
		t.Fatal("non-update message should be rejected")
	}
}

func TestVVRoundTrip(t *testing.T) {
	vv := vclock.NewVector()
	vv.Tick("a")
	vv.Tick("a")
	vv.Tick("b")
	back := parseVV(renderVV(vv))
	if back.Compare(vv) != vclock.Equal {
		t.Fatalf("round trip: %v vs %v", back, vv)
	}
	if parseVV("{}").Compare(vclock.NewVector()) != vclock.Equal {
		t.Fatal("empty round trip")
	}
	if len(parseVV("garbage")) != 0 {
		t.Fatal("garbage should parse to empty")
	}
	if len(parseVV("{a:x}")) != 0 {
		t.Fatal("bad count should be skipped")
	}
}

func TestPairingCounts(t *testing.T) {
	if PairingsCentralized(10) != 10 {
		t.Fatal("centralized O(n)")
	}
	if PairingsDecentralized(10) != 45 {
		t.Fatal("decentralized O(n^2)")
	}
	if PairingsDecentralized(2) != 1 || PairingsDecentralized(1) != 0 {
		t.Fatal("small cases")
	}
}
