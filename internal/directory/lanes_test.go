package directory

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// laneKV is a mutex-guarded keyed codec for the lane tests.
type laneKV struct {
	mu   sync.Mutex
	data map[string][]byte
}

func newLaneKV() *laneKV { return &laneKV{data: map[string][]byte{}} }

func (c *laneKV) Extract(props property.Set) (*image.Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img := image.New()
	for k, v := range c.data {
		img.Put(image.Entry{Key: k, Value: v})
	}
	return img, nil
}

func (c *laneKV) ExtractKeys(props property.Set, keys []string) (*image.Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img := image.New()
	for _, k := range keys {
		if v, ok := c.data[k]; ok {
			img.Put(image.Entry{Key: k, Value: v})
		}
	}
	return img, nil
}

func (c *laneKV) Merge(img *image.Image, props property.Set) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range img.Entries {
		k := e.Key
		if e.Deleted {
			delete(c.data, k)
			continue
		}
		c.data[k] = e.Value
	}
	return nil
}

// laneHarness is one laned DM plus registered writer endpoints.
type laneHarness struct {
	t   testing.TB
	net *transport.Inproc
	dm  *Manager
}

func newLaneHarness(t testing.TB, opts Options) *laneHarness {
	t.Helper()
	net := transport.NewInproc()
	dm, err := New("dm", newLaneKV(), vclock.NewSim(), net, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	return &laneHarness{t: t, net: net, dm: dm}
}

func (h *laneHarness) register(name string, props string) transport.Endpoint {
	h.t.Helper()
	ep, err := h.net.Attach(name, func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck}
	})
	if err != nil {
		h.t.Fatal(err)
	}
	reply, err := ep.Call("dm", &wire.Message{
		Type: wire.TRegister, From: name, Props: property.MustSet(props), Mode: wire.Weak,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	if reply.Type == wire.TErr {
		h.t.Fatalf("register %s: %s", name, reply.Err)
	}
	return ep
}

func lanePush(ep transport.Endpoint, from string, kv map[string]string) (*wire.Message, error) {
	delta := image.New()
	for k, v := range kv {
		delta.Put(image.Entry{Key: k, Value: []byte(v)})
	}
	reply, err := ep.Call("dm", &wire.Message{Type: wire.TPush, From: from, Img: delta, Ops: 1})
	if err != nil {
		return nil, err
	}
	if reply.Type == wire.TErr {
		return nil, fmt.Errorf("push %s: %s", from, reply.Err)
	}
	return reply, nil
}

// TestLaneHammerDisjoint hammers a laned DM with concurrent conflicting
// pushes across disjoint groups and checks the serialization guarantees:
// per-writer ack versions strictly increase, versions are globally unique,
// the final extract carries exactly each surviving writer's last value
// (no torn cross-lane state), and the store invariants hold at quiesce.
func TestLaneHammerDisjoint(t *testing.T) {
	const (
		groups  = 8
		writers = 2
		keys    = 16
		ops     = 60
	)
	h := newLaneHarness(t, Options{Lanes: 8, Resolver: func(c image.Conflict) (image.Entry, error) {
		return c.Theirs, nil
	}})

	type worker struct {
		name  string
		ep    transport.Endpoint
		group int
		acks  []vclock.Version
		last  map[string]string
		err   error
	}
	var ws []*worker
	for g := 0; g < groups; g++ {
		props := fmt.Sprintf("P%d={0..9}", g)
		for w := 0; w < writers; w++ {
			name := fmt.Sprintf("g%dw%d", g, w)
			ws = append(ws, &worker{
				name: name, ep: h.register(name, props),
				group: g, last: map[string]string{},
			})
		}
	}

	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				kv := map[string]string{}
				for k := 0; k < 4; k++ {
					key := fmt.Sprintf("g%d:k%02d", w.group, (i+k)%keys)
					kv[key] = fmt.Sprintf("%s-%d", w.name, i)
				}
				reply, err := lanePush(w.ep, w.name, kv)
				if err != nil {
					w.err = err
					return
				}
				w.acks = append(w.acks, reply.Version)
				for k, v := range kv {
					w.last[k] = v
				}
			}
		}(w)
	}
	wg.Wait()

	seen := map[vclock.Version]string{}
	lastByWriter := map[string]map[string]string{}
	for _, w := range ws {
		if w.err != nil {
			t.Fatal(w.err)
		}
		lastByWriter[w.name] = w.last
		prev := vclock.Version(0)
		for _, v := range w.acks {
			if v <= prev {
				t.Fatalf("%s: ack v%d not after v%d", w.name, v, prev)
			}
			if other, dup := seen[v]; dup {
				t.Fatalf("version v%d acked to both %s and %s", v, other, w.name)
			}
			seen[v] = w.name
			prev = v
		}
	}

	img, err := h.dm.ExtractPrimary(property.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range img.Entries {
		k := e.Key
		want, ok := lastByWriter[e.Writer][k]
		if !ok {
			t.Fatalf("key %s attributed to %s, which never pushed it", k, e.Writer)
		}
		if string(e.Value) != want {
			t.Fatalf("key %s: value %q is not %s's last push %q (torn cross-lane state)",
				k, e.Value, e.Writer, want)
		}
	}
	if err := h.dm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLaneHammerOverlapping mixes overlapping conflict groups with
// concurrent set-props (structural changes that rewire the lane map
// mid-flight) and checks the run completes without deadlock or invariant
// violations and versions stay unique.
func TestLaneHammerOverlapping(t *testing.T) {
	const ops = 50
	h := newLaneHarness(t, Options{Lanes: 4})

	props := []string{
		"A={0..9}",           // overlaps B via A
		"A={5..14};B={0..4}", // bridges A and B
		"B={0..9}",           // overlaps via B
		"C={0..9}",           // disjoint
	}
	type worker struct {
		name string
		ep   transport.Endpoint
		acks []vclock.Version
		err  error
	}
	var ws []*worker
	for i, p := range props {
		name := fmt.Sprintf("v%d", i)
		ws = append(ws, &worker{name: name, ep: h.register(name, p)})
	}

	var wg sync.WaitGroup
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if wi == 1 && i%10 == 5 {
					// Shrink and re-grow the bridge view's props mid-run.
					p := property.MustSet("A={5..14}")
					if i%20 == 5 {
						p = property.MustSet("A={5..14};B={0..4}")
					}
					reply, err := w.ep.Call("dm", &wire.Message{Type: wire.TSetProps, From: w.name, Props: p})
					if err != nil {
						w.err = err
						return
					}
					if reply.Type == wire.TErr {
						w.err = fmt.Errorf("set-props: %s", reply.Err)
						return
					}
				}
				reply, err := lanePush(w.ep, w.name, map[string]string{
					fmt.Sprintf("%s:k%02d", w.name, i%8): fmt.Sprintf("%s-%d", w.name, i),
				})
				if err != nil {
					w.err = err
					return
				}
				w.acks = append(w.acks, reply.Version)
			}
		}(wi, w)
	}
	wg.Wait()

	seen := map[vclock.Version]bool{}
	for _, w := range ws {
		if w.err != nil {
			t.Fatal(w.err)
		}
		prev := vclock.Version(0)
		for _, v := range w.acks {
			if v <= prev {
				t.Fatalf("%s: ack v%d not after v%d", w.name, v, prev)
			}
			if seen[v] {
				t.Fatalf("duplicate version v%d", v)
			}
			seen[v] = true
			prev = v
		}
	}
	if err := h.dm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// laneScript drives one deterministic single-threaded protocol run and
// returns the encoding of the full capture (metadata + view state).
func laneScript(t *testing.T, opts Options) []byte {
	t.Helper()
	h := newLaneHarness(t, opts)
	eps := map[string]transport.Endpoint{}
	for g := 0; g < 3; g++ {
		for w := 0; w < 2; w++ {
			name := fmt.Sprintf("g%dw%d", g, w)
			eps[name] = h.register(name, fmt.Sprintf("P%d={0..9}", g))
		}
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("g%dw%d", i%3, (i/3)%2)
		if _, err := lanePush(eps[name], name, map[string]string{
			fmt.Sprintf("g%d:k%02d", i%3, i%7): fmt.Sprintf("%s-%d", name, i),
		}); err != nil {
			t.Fatal(err)
		}
		if i%11 == 10 {
			reply, err := eps[name].Call("dm", &wire.Message{
				Type: wire.TPull, From: name, Since: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			if reply.Type == wire.TErr {
				t.Fatalf("pull: %s", reply.Err)
			}
		}
	}
	if err := h.dm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return EncodeSnapshot(h.dm.CaptureSince(0))
}

// laneScriptGolden is the SHA-256 of laneScript's capture from its
// default Options{} run. It was re-pinned when snapshots moved from gob to
// the wire codec: computed at 43a37c2 (the last gob-era commit) with only
// the new encoder added, so the capture's content is the one d875be8 (the
// last commit with the serial store path) pinned. It was
// re-pinned again when snapFormat went 2 → 3 (uvarint counts, lengths and
// versions): at c73ff87 (the last format-2 commit) the capture, whose hash
// was the format-2 golden 1d6224d2…, was decoded with that commit's
// DecodeSnapshot and re-encoded with the format-3 EncodeSnapshot, giving
// 5a6c8c43…; the capture's content did not move. It was re-pinned once
// more when snapFormat went 3 → 4 (the phase byte replaces the active
// byte): at 8615f2f (the last format-3 commit) the capture was decoded
// with that commit's DecodeSnapshot, every Active mapped to PhaseActive
// (true) or PhaseInactive (false), and re-encoded with the format-4
// EncodeSnapshot, giving this hash.
const laneScriptGolden = "8a1aad2883c60b451beeb3e5408a517bfc3cee16b968d2764ee8ef9c96da5e40"

// TestLaneCountByteIdentical pins that Options.Lanes is a count, not a
// mode: under a sequential (single-client) script, where one-at-a-time
// commits leave no room for reordering, the default, one lane and eight
// lanes all produce the golden capture.
func TestLaneCountByteIdentical(t *testing.T) {
	for _, lanes := range []int{0, 1, 8} {
		sum := sha256.Sum256(laneScript(t, Options{Lanes: lanes}))
		if got := hex.EncodeToString(sum[:]); got != laneScriptGolden {
			t.Errorf("Lanes=%d: capture hash %s, want golden %s", lanes, got, laneScriptGolden)
		}
	}
}

// gateKV is a laneKV whose Merge reports the value it merges on entry and
// then waits for release, so a test can hold one commit inside the codec.
type gateKV struct {
	*laneKV
	entered chan string
	release chan struct{}
}

func (c *gateKV) Merge(img *image.Image, props property.Set) error {
	if len(img.Entries) > 0 {
		c.entered <- string(img.Entries[0].Value)
		<-c.release
	}
	return c.laneKV.Merge(img, props)
}

// TestEvictionKeepsGroupOnOneLane evicts a view while a commit of its
// conflict group is inside the codec. a, b and c share x, so the group's
// root is a. Once b is lost, the rebuilt lane map roots the group at b,
// whose lane differs from a's at two lanes. Unless the eviction drains the
// lanes first, c's commit takes b's lane and reaches Merge while a's is
// still there: two commits of one group in the codec at once, which
// Store.Commit's contract forbids.
func TestEvictionKeepsGroupOnOneLane(t *testing.T) {
	const lanes = 2
	if fnvLane("a", lanes) == fnvLane("b", lanes) {
		t.Fatal("a and b hash to one lane: the test cannot see the group move")
	}
	// One entered slot and one error slot per push, so no push blocks on
	// a report after the test has stopped reading.
	codec := &gateKV{laneKV: newLaneKV(), entered: make(chan string, 2), release: make(chan struct{})}
	net := transport.NewInproc()
	dm, err := New("dm", codec, vclock.NewSim(), net, Options{Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	h := &laneHarness{t: t, net: net, dm: dm}
	eps := map[string]transport.Endpoint{}
	for _, v := range []string{"a", "b", "c"} {
		eps[v] = h.register(v, "P={x}")
	}
	release := sync.OnceFunc(func() { close(codec.release) })
	defer release()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	push := func(v string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := lanePush(eps[v], v, map[string]string{"x": "from-" + v}); err != nil {
				errs <- err
			}
		}()
	}
	push("a")
	if got := <-codec.entered; got != "from-a" {
		t.Fatalf("first merge carried %q, want from-a", got)
	}
	evicted := make(chan struct{})
	go func() {
		dm.evictView("b")
		close(evicted)
	}()
	// An eviction that drains the lanes waits for a's commit; one that
	// does not has returned by now.
	select {
	case <-evicted:
	case <-time.After(100 * time.Millisecond):
	}
	push("c")
	select {
	case got := <-codec.entered:
		t.Fatalf("%s merged while a's commit of the same conflict group was still merging (lanes=%d)", got, lanes)
	case <-time.After(200 * time.Millisecond):
	}
	release()
	wg.Wait()
	<-evicted
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := <-codec.entered; got != "from-c" {
		t.Fatalf("second merge carried %q, want from-c", got)
	}
}

// TestLaneReplication runs concurrent laned pushes with an inline
// semi-sync standby attached and checks the barrier semantics survive
// striping: after the last ack the standby holds every committed version
// and the same shadow state.
func TestLaneReplication(t *testing.T) {
	net := transport.NewInproc()
	clock := vclock.NewSim()
	prim, err := New("dm", newLaneKV(), clock, net, Options{Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	sb, err := New("dmr", newLaneKV(), clock, net, Options{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	repl, err := prim.StartReplication(ReplConfig{}, ReplTarget{Name: "dmr"})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()

	h := &laneHarness{t: t, net: net, dm: prim}
	type worker struct {
		name string
		ep   transport.Endpoint
		err  error
	}
	var ws []*worker
	for g := 0; g < 4; g++ {
		name := fmt.Sprintf("g%dw0", g)
		ws = append(ws, &worker{name: name, ep: h.register(name, fmt.Sprintf("P%d={0..9}", g))})
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := lanePush(w.ep, w.name, map[string]string{
					fmt.Sprintf("%s:k%02d", w.name, i%6): fmt.Sprintf("%s-%d", w.name, i),
				}); err != nil {
					w.err = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, w := range ws {
		if w.err != nil {
			t.Fatal(w.err)
		}
	}

	if got, want := sb.CurrentVersion(), prim.CurrentVersion(); got != want {
		t.Fatalf("standby at v%d, primary at v%d after inline barriers", got, want)
	}
	psnap, ssnap := prim.Store().SnapshotSince(0), sb.Store().SnapshotSince(0)
	pb := EncodeSnapshot(&Snapshot{Version: psnap.Version, Shadow: psnap.Shadow})
	sbb := EncodeSnapshot(&Snapshot{Version: ssnap.Version, Shadow: ssnap.Shadow})
	if !bytes.Equal(pb, sbb) {
		t.Fatal("standby shadow state diverged from primary")
	}
	if err := prim.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLaneCommit measures commit throughput at one execution lane
// against eight (E18). g disjoint conflict groups × 2 writers push
// conflicting 8-key deltas under an incoming-wins resolver, so every
// commit runs a keyed extract of the primary's side and the resolver. A
// group's views share a property no other group touches, so with eight
// lanes disjoint groups commit in parallel; commits/s at lanes=8 over
// lanes=1 at the same g is the lane speedup.
func BenchmarkLaneCommit(b *testing.B) {
	const (
		writers = 2   // per group
		keys    = 192 // seeded keys per group
		window  = 8   // keys per pushed delta
	)
	incomingWins := func(c image.Conflict) (image.Entry, error) { return c.Theirs, nil }
	for _, lanes := range []int{1, 8} {
		for _, groups := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("lanes=%d/g=%d", lanes, groups), func(b *testing.B) {
				h := newLaneHarness(b, Options{Lanes: lanes, Resolver: incomingWins})
				type writer struct {
					name  string
					ep    transport.Endpoint
					group int
				}
				var ws []writer
				for g := 0; g < groups; g++ {
					props := fmt.Sprintf("P%d={0..9}", g)
					for w := 0; w < writers; w++ {
						name := fmt.Sprintf("g%dw%d", g, w)
						ws = append(ws, writer{name, h.register(name, props), g})
					}
					// Seeded by the primary, so every push against base
					// version 0 is a detected conflict.
					seed := image.New()
					for k := 0; k < keys; k++ {
						seed.Put(image.Entry{Key: fmt.Sprintf("g%d:k%03d", g, k), Value: []byte("seed")})
					}
					if _, err := h.dm.CommitLocal(seed, 1); err != nil {
						b.Fatal(err)
					}
				}
				push := func(w writer, i int) error {
					kv := make(map[string]string, window)
					for k := 0; k < window; k++ {
						kv[fmt.Sprintf("g%d:k%03d", w.group, (i*window+k)%keys)] = "v"
					}
					_, err := lanePush(w.ep, w.name, kv)
					return err
				}
				for _, w := range ws {
					if err := push(w, 0); err != nil {
						b.Fatal(err)
					}
				}

				// b.N commits in all, spread over the writers.
				b.ResetTimer()
				start := time.Now()
				var wg sync.WaitGroup
				for wi, w := range ws {
					n := b.N / len(ws)
					if wi < b.N%len(ws) {
						n++
					}
					wg.Add(1)
					go func(w writer, n int) {
						defer wg.Done()
						for i := 1; i <= n; i++ {
							if err := push(w, i); err != nil {
								b.Error(err)
								return
							}
						}
					}(w, n)
				}
				wg.Wait()
				b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "commits/s")
			})
		}
	}
}
