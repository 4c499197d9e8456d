// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per figure (the -v output of each prints the same rows/series the paper
// reports) plus micro-benchmarks for the wire codec (ablation E8) and the
// protocol hot paths. Run with:
//
//	go test -bench=. -benchmem
package flecc_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"
	"time"

	"flecc"
	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/experiments"
	"flecc/internal/image"
	"flecc/internal/metrics"
	"flecc/internal/property"
	"flecc/internal/shard"
	"flecc/internal/trace"
	"flecc/internal/transport"
	"flecc/internal/trigger"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// BenchmarkFig4Efficiency regenerates Figure 4: the number of messages
// between cache managers and the directory manager for Flecc vs the
// time-sharing and multicast baselines, as the conflict-group size sweeps
// 10..100 over 100 agents.
func BenchmarkFig4Efficiency(b *testing.B) {
	cfg := experiments.DefaultFig4()
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckShape(); err != nil {
			b.Fatal(err)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	first := res.Rows[0]
	b.ReportMetric(float64(first.Flecc), "flecc-msgs@g10")
	b.ReportMetric(float64(last.Flecc), "flecc-msgs@g100")
	b.ReportMetric(float64(first.TimeSharing), "timesharing-msgs")
	b.ReportMetric(float64(first.Multicast), "multicast-msgs")
	if testing.Verbose() {
		res.WriteTo(logWriter{b})
	}
}

// BenchmarkFig5Adaptability regenerates Figure 5: per-operation execution
// time and data quality across the WEAK → STRONG → WEAK timeline for ten
// conflicting agents.
func BenchmarkFig5Adaptability(b *testing.B) {
	cfg := experiments.DefaultFig5()
	var res *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckShape(); err != nil {
			b.Fatal(err)
		}
	}
	s := res.Summaries()
	b.ReportMetric(s[0].MeanExec, "weak-exec-ms")
	b.ReportMetric(s[1].MeanExec, "strong-exec-ms")
	b.ReportMetric(s[0].MeanQuality, "weak-unseen")
	b.ReportMetric(s[1].MeanQuality, "strong-unseen")
	if testing.Verbose() {
		res.WriteTo(logWriter{b})
	}
}

// BenchmarkFig6Flexibility regenerates Figure 6: data quality and message
// counts with and without a time-based pull trigger, ten conflicting weak
// agents.
func BenchmarkFig6Flexibility(b *testing.B) {
	cfg := experiments.DefaultFig6()
	var res *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckShape(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.NoTriggers.Messages), "msgs-no-trigger")
	b.ReportMetric(float64(res.WithTrigger.Messages), "msgs-with-trigger")
	b.ReportMetric(res.NoTriggers.MeanQuality(), "unseen-no-trigger")
	b.ReportMetric(res.WithTrigger.MeanQuality(), "unseen-with-trigger")
	if testing.Verbose() {
		res.WriteTo(logWriter{b})
	}
}

// BenchmarkAblationConflict regenerates ablation E5 (conflict-decision
// policy: worst-case vs static map vs dynamic properties).
func BenchmarkAblationConflict(b *testing.B) {
	var res *experiments.AblationConflictResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAblationConflict(40, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckShape(); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(float64(row.Messages), string(row.Policy)+"-msgs")
	}
}

// BenchmarkAblationRW regenerates ablation E6 (read/write semantics).
func BenchmarkAblationRW(b *testing.B) {
	var res *experiments.AblationRWResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAblationRW(10, 5)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckShape(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MessagesBase), "base-msgs")
	b.ReportMetric(float64(res.MessagesAware), "read-aware-msgs")
}

// BenchmarkAblationPeer regenerates ablation E7 (centralized O(n) vs
// decentralized O(n²) pairings and anti-entropy traffic).
func BenchmarkAblationPeer(b *testing.B) {
	var res *experiments.AblationPeerResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAblationPeer([]int{2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckShape(); err != nil {
			b.Fatal(err)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(float64(last.PairingsDecentralized), "pairings@n16")
	b.ReportMetric(float64(last.SyncMessagesPerAntiEntropyRound), "msgs@n16")
}

// BenchmarkAblationPropagation regenerates ablation E10 (pull-based vs
// push-based update distribution across a write-rate sweep).
func BenchmarkAblationPropagation(b *testing.B) {
	var res *experiments.PropagationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunPropagation(experiments.DefaultPropagation())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckShape(); err != nil {
			b.Fatal(err)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	b.ReportMetric(float64(first.MessagesPush), "push-msgs@w1")
	b.ReportMetric(float64(last.MessagesPush), "push-msgs@wmax")
	b.ReportMetric(float64(last.MessagesPull), "pull-msgs@wmax")
}

// BenchmarkBuyerMix regenerates experiment E9 (adaptive mode switching vs
// fixed all-strong / all-weak policies under a browse/buy workload).
func BenchmarkBuyerMix(b *testing.B) {
	var res *experiments.BuyerMixResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunBuyerMix(experiments.DefaultBuyerMix())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckShape(); err != nil {
			b.Fatal(err)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(float64(last.MessagesAdaptive), "adaptive-msgs@frac1")
	b.ReportMetric(float64(last.MessagesAllStrong), "strong-msgs@frac1")
	b.ReportMetric(float64(last.OversoldAllWeak), "weak-oversold@frac1")
}

// --- E8: wire codec micro-benchmarks --------------------------------------

func benchMessage(entries int) *wire.Message {
	img := image.New()
	for i := 0; i < entries; i++ {
		img.Put(image.Entry{
			Key:     fmt.Sprintf("flight/%03d", i),
			Value:   []byte("NYC|SFO|200|57|19900"),
			Version: vclock.Version(i),
			Writer:  "agent-042",
		})
	}
	img.Version = vclock.Version(entries)
	return &wire.Message{
		Type: wire.TPush, Seq: 42, From: "agent-042", View: "agent-042",
		Ops: 7, Img: img,
	}
}

// BenchmarkCodecEncode measures the hand-written binary encoder.
func BenchmarkCodecEncode(b *testing.B) {
	m := benchMessage(40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = wire.Encode(m)
	}
}

// BenchmarkCodecDecode measures the decoder.
func BenchmarkCodecDecode(b *testing.B) {
	buf := wire.Encode(benchMessage(40))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// gobMessage mirrors wire.Message for the stdlib-gob comparison.
type gobMessage struct {
	Type    uint8
	Seq     uint64
	From    string
	View    string
	Ops     uint32
	Entries map[string][]byte
}

// BenchmarkCodecGobBaseline measures encoding/gob on an equivalent
// payload, the comparison point for the custom codec.
func BenchmarkCodecGobBaseline(b *testing.B) {
	m := benchMessage(40)
	g := gobMessage{Type: uint8(m.Type), Seq: m.Seq, From: m.From, View: m.View, Ops: m.Ops, Entries: map[string][]byte{}}
	for _, e := range m.Img.Entries {
		k := e.Key
		g.Entries[k] = e.Value
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- protocol hot paths ----------------------------------------------------

// BenchmarkPullWeak measures one relaxed weak-mode pull round trip through
// the full stack (public API, in-proc transport).
func BenchmarkPullWeak(b *testing.B) {
	db := flecc.NewMapCodec()
	db.SetString("k", "v")
	sys, err := flecc.New("db", db)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	v, err := sys.NewView(flecc.ViewConfig{
		Name: "v1", View: flecc.NewMapCodec(), Props: flecc.MustProps("P={x}"),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Pull(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPushPullCycle measures a full write-publish-observe cycle
// between two views.
func BenchmarkPushPullCycle(b *testing.B) {
	db := flecc.NewMapCodec()
	sys, err := flecc.New("db", db)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	r1 := flecc.NewMapCodec()
	v1, err := sys.NewView(flecc.ViewConfig{Name: "v1", View: r1, Props: flecc.MustProps("P={x}")})
	if err != nil {
		b.Fatal(err)
	}
	v2, err := sys.NewView(flecc.ViewConfig{Name: "v2", View: flecc.NewMapCodec(), Props: flecc.MustProps("P={x}")})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v1.Use(func() error {
			r1.SetString("k", fmt.Sprint(i))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if err := v1.Push(); err != nil {
			b.Fatal(err)
		}
		if err := v2.Pull(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCommit measures one primary-copy commit (conflict
// detection + shadow update + merge) of a 10-entry delta.
func BenchmarkStoreCommit(b *testing.B) {
	db := flecc.NewMapCodec()
	st := directory.NewStore(db, vclock.NewSim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta := image.New()
		for k := 0; k < 10; k++ {
			delta.Put(image.Entry{
				Key:     fmt.Sprintf("k%d", k),
				Value:   []byte(fmt.Sprintf("v%d", i)),
				Version: vclock.Version(i), // always current: no conflicts
			})
		}
		if _, _, _, err := st.Commit("w", delta, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreExtract measures a delta extraction from a 100-key
// primary.
func BenchmarkStoreExtract(b *testing.B) {
	db := flecc.NewMapCodec()
	st := directory.NewStore(db, vclock.NewSim())
	props := property.MustSet("F={1..10}")
	delta := image.New()
	for k := 0; k < 100; k++ {
		delta.Put(image.Entry{Key: fmt.Sprintf("k%03d", k), Value: []byte("value")})
	}
	if _, _, _, err := st.Commit("w", delta, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Extract(props, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreExtractDelta measures a delta pull from a 1000-key
// primary after a 10-key commit — the hot shape in steady state, where a
// puller is nearly caught up. "keyed" serves it from the dirty-key index
// via the codec's ExtractKeys; "full" hides the keyed extension, forcing
// the classic full-extract-and-trim walk over all 1000 keys.
func BenchmarkStoreExtractDelta(b *testing.B) {
	build := func(hide bool) (*directory.Store, vclock.Version, property.Set) {
		db := flecc.NewMapCodec()
		var codec image.Codec = db
		if hide {
			codec = image.FuncCodec{ExtractFn: db.Extract, MergeFn: db.Merge}
		}
		st := directory.NewStore(codec, vclock.NewSim())
		props := property.MustSet("F={1..10}")
		seed := image.New()
		for k := 0; k < 1000; k++ {
			seed.Put(image.Entry{Key: fmt.Sprintf("k%04d", k), Value: []byte("value")})
		}
		if _, _, _, err := st.Commit("w", seed, 1); err != nil {
			b.Fatal(err)
		}
		since := st.Current()
		tail := image.New()
		for k := 0; k < 10; k++ {
			tail.Put(image.Entry{Key: fmt.Sprintf("k%04d", k), Value: []byte("fresh"), Version: since})
		}
		if _, _, _, err := st.Commit("w", tail, 1); err != nil {
			b.Fatal(err)
		}
		return st, since, props
	}
	for _, tc := range []struct {
		name string
		hide bool
	}{{"keyed", false}, {"full", true}} {
		b.Run(tc.name, func(b *testing.B) {
			st, since, props := build(tc.hide)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img, err := st.Extract(props, since)
				if err != nil {
					b.Fatal(err)
				}
				if img.Len() != 10 {
					b.Fatalf("delta has %d entries, want 10", img.Len())
				}
			}
		})
	}
}

// benchFakeView attaches an endpoint that answers DM-initiated calls with
// empty success replies and registers it as an active weak view whose
// validity trigger never accepts the primary copy (every pull gathers).
func benchFakeView(b *testing.B, net transport.Network, name string, props property.Set) transport.Endpoint {
	b.Helper()
	ep, err := net.Attach(name, func(req *wire.Message) *wire.Message {
		switch req.Type {
		case wire.TInvalidate, wire.TPull:
			return &wire.Message{Type: wire.TImage}
		default:
			return &wire.Message{Type: wire.TAck}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	if reply, err := ep.Call("dm", &wire.Message{Type: wire.TRegister, View: name, Mode: wire.Weak, Props: props, Trig: wire.Triggers{Validity: "false"}}); err != nil || reply.Type == wire.TErr {
		b.Fatalf("register %s: %v %v", name, err, reply)
	}
	if reply, err := ep.Call("dm", &wire.Message{Type: wire.TInit}); err != nil || reply.Type == wire.TErr {
		b.Fatalf("init %s: %v %v", name, err, reply)
	}
	return ep
}

// benchContentionNet wires the contention topology both contention
// benchmarks share: a DM whose links to seven conflicting members cost
// 500µs each, plus one slow member at 2ms — the "one slow sharer in the
// conflict group" scenario from the scalability discussion (§4.2).
func benchContentionNet(b *testing.B, members int) (*transport.Faulty, property.Set) {
	f := transport.NewFaulty(transport.NewInproc(), 1)
	props := property.MustSet("P={x}")
	for i := 0; i < members; i++ {
		delay := 500 * time.Microsecond
		if i == members-1 {
			delay = 2 * time.Millisecond // the slow member
		}
		f.SetEdgeDelay("dm", fmt.Sprintf("v%d", i), delay)
	}
	return f, props
}

// BenchmarkPullContention measures one pull that must gather from 8
// conflicting weak views, one of them slow. At FanOut=1 the pull pays the
// sum of all link delays; at FanOut>=4 it pays roughly the slow member
// alone, which is where the >=2x throughput gain comes from.
func BenchmarkPullContention(b *testing.B) {
	const members = 8
	for _, fanout := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			f, props := benchContentionNet(b, members)
			dm, err := directory.New("dm", flecc.NewMapCodec(), vclock.NewSim(), f, directory.Options{FanOut: fanout})
			if err != nil {
				b.Fatal(err)
			}
			defer dm.Close()
			for i := 0; i < members; i++ {
				benchFakeView(b, f, fmt.Sprintf("v%d", i), props)
			}
			puller := benchFakeView(b, f, "puller", props)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reply, err := puller.Call("dm", &wire.Message{Type: wire.TPull})
				if err != nil || reply.Type != wire.TImage {
					b.Fatalf("pull: %v %v", err, reply)
				}
			}
		})
	}
}

// BenchmarkPullContentionObserved reruns the fanout=8 contention pull
// with the full observability stack attached — wire counters, the raw
// message trace ring, and span reconstruction all fanned out by
// transport.Observers — against a detached control. The acceptance bar
// for the observer path is that "observed" stays within 5% of
// "detached"; compare with:
//
//	go test -bench=PullContentionObserved -benchtime=2s
func BenchmarkPullContentionObserved(b *testing.B) {
	const members = 8
	for _, observed := range []bool{false, true} {
		label := "detached"
		if observed {
			label = "observed"
		}
		b.Run(label, func(b *testing.B) {
			f, props := benchContentionNet(b, members)
			if observed {
				f.AddObserver(metrics.NewMessageStats(false))
				f.AddObserver(trace.NewRecorder(2048))
				f.AddObserver(trace.NewSpanRecorder("dm", 256))
			}
			dm, err := directory.New("dm", flecc.NewMapCodec(), vclock.NewSim(), f, directory.Options{FanOut: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer dm.Close()
			for i := 0; i < members; i++ {
				benchFakeView(b, f, fmt.Sprintf("v%d", i), props)
			}
			puller := benchFakeView(b, f, "puller", props)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reply, err := puller.Call("dm", &wire.Message{Type: wire.TPull})
				if err != nil || reply.Type != wire.TImage {
					b.Fatalf("pull: %v %v", err, reply)
				}
			}
		})
	}
}

// BenchmarkPropagateFanout measures one push under PropagateOnPush with 8
// conflicting active recipients, one slow: the TUpdate distribution round
// fans out concurrently at FanOut>1.
func BenchmarkPropagateFanout(b *testing.B) {
	const members = 8
	for _, fanout := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			f, props := benchContentionNet(b, members)
			dm, err := directory.New("dm", flecc.NewMapCodec(), vclock.NewSim(), f, directory.Options{
				PropagateOnPush: true,
				FanOut:          fanout,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer dm.Close()
			for i := 0; i < members; i++ {
				benchFakeView(b, f, fmt.Sprintf("v%d", i), props)
			}
			writer := benchFakeView(b, f, "writer", props)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta := image.New()
				delta.Put(image.Entry{Key: "k", Value: []byte(fmt.Sprint(i)), Version: dm.CurrentVersion()})
				reply, err := writer.Call("dm", &wire.Message{Type: wire.TPush, Img: delta, Ops: 1})
				if err != nil || reply.Type != wire.TAck {
					b.Fatalf("push: %v %v", err, reply)
				}
			}
		})
	}
}

// BenchmarkDynConfl measures the dynamic conflict decision (Definition 1)
// on realistic property sets.
func BenchmarkDynConfl(b *testing.B) {
	p := property.MustSet("Flights={100..149}; Seats=[0,400]")
	q := property.MustSet("Flights={140..189}; Fare=[0,1000]")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = property.DynConfl(p, q)
	}
}

// BenchmarkTriggerEval measures one compiled trigger evaluation — the
// per-tick cost of delegating synchronization decisions to the system.
func BenchmarkTriggerEval(b *testing.B) {
	trig, err := trigger.Compile("(t > 1500) && pending > 0 || every(500)")
	if err != nil {
		b.Fatal(err)
	}
	env := benchEnv{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trig.Fire(float64(i), env); err != nil {
			b.Fatal(err)
		}
	}
}

type benchEnv struct{}

func (benchEnv) Lookup(name string) (float64, bool) { return 3, true }

// logWriter routes table output through b.Log.
type logWriter struct{ b *testing.B }

func (w logWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// BenchmarkShardedAirline compares the airline workload against a single
// directory manager and against a 4-shard directory service
// (internal/shard). Both configurations go through the router, so the
// delta isolates the effect of partitioning: four agent groups serve
// disjoint flight ranges (pinned one group per shard), and each group's
// agents reserve seats on distinct flights and push concurrently. One
// benchmark iteration is one reserve+push round per agent.
func BenchmarkShardedAirline(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedAirline(b, shards)
		})
	}
}

func benchShardedAirline(b *testing.B, shards int) {
	const (
		groups         = 4
		agentsPerGroup = 2
		flightsPerGrp  = 25
		firstFlight    = 100
	)
	net := transport.NewInproc()
	stats := metrics.NewMessageStats(false)
	net.AddObserver(stats)
	clock := vclock.NewSim()
	svc, err := shard.NewService(shard.ServiceConfig{
		Name:   "dm",
		Net:    net,
		Clock:  clock,
		Shards: shards,
		// Each shard extracts from its own seeded replica of the flight
		// database; the groups are pinned to disjoint shards, so the
		// shards never serve overlapping flights. A single shared codec
		// would serialize every shard on one lock and defeat the point.
		Primary: func(int) image.Codec {
			rs := airline.NewReservationSystem()
			airline.SeedFlights(rs, firstFlight, groups*flightsPerGrp, 1<<20)
			return rs
		},
		Opts: directory.Options{Resolver: airline.SeatResolver},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()

	for g := 0; g < groups; g++ {
		lo := firstFlight + g*flightsPerGrp
		pin := property.New(airline.PropFlights, property.DiscreteRange(lo, lo+flightsPerGrp-1))
		if err := svc.Map().Pin(pin, shard.Node("dm", g%shards)); err != nil {
			b.Fatal(err)
		}
	}

	type worker struct {
		agent  *airline.TravelAgent
		flight int
	}
	var workers []worker
	for g := 0; g < groups; g++ {
		lo := firstFlight + g*flightsPerGrp
		for a := 0; a < agentsPerGroup; a++ {
			ag, err := airline.NewTravelAgent(airline.AgentConfig{
				Name:        fmt.Sprintf("agent-g%d-%d", g, a),
				Directory:   "dm",
				Net:         net,
				Clock:       clock,
				FlightsFrom: lo,
				FlightsTo:   lo + flightsPerGrp - 1,
				Mode:        wire.Weak,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer ag.Close()
			// Distinct flights per agent: no seat conflicts to resolve,
			// so the measurement is pure protocol throughput.
			workers = append(workers, worker{agent: ag, flight: lo + a})
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if err := w.agent.ReserveTickets(1, w.flight); err != nil {
					b.Error(err)
					return
				}
				if err := w.agent.CM.PushImage(); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	// Aggregate protocol operations per iteration: each agent's round is
	// one pull and one push.
	b.ReportMetric(float64(len(workers)*2), "protocol-ops/iter")
	// Each directory manager serves its requests serially, so the service's
	// aggregate throughput capacity is bounded by its busiest shard:
	// capacity-x = total shard messages / max per-shard messages. A single
	// shard is 1.0 by construction; 4 balanced shards approach 4.0. (Wall
	// time above only shows the same scaling when the host has spare cores;
	// this metric is the machine-independent statement of it.)
	per := stats.PerShard()
	var total, max int64
	for _, n := range per {
		total += n
		if n > max {
			max = n
		}
	}
	if max > 0 {
		b.ReportMetric(float64(total)/float64(max), "capacity-x")
	}
}

// cmCodecs are the two ways the BenchmarkCM* benchmarks deploy the same
// airline view: with its capabilities visible to the cache manager
// (image.ChangeExtractor, image.KeyedExtractor) and hidden behind the bare
// Codec, which is the whole-view path every codec without them takes.
var cmCodecs = []struct {
	name string
	wrap func(*airline.ReservationSystem) image.Codec
}{
	{"tracked", func(rs *airline.ReservationSystem) image.Codec { return rs }},
	{"hidden", func(rs *airline.ReservationSystem) image.Codec { return hiddenCodec{rs} }},
}

// benchCM runs op in a loop against an n-flight view, once per cmCodecs
// deployment.
func benchCM(b *testing.B, n int, op func(b *testing.B, r *cmRig, i int)) {
	for _, c := range cmCodecs {
		b.Run(c.name, func(b *testing.B) {
			r := newCMRig(b, n, c.wrap)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(b, r, i)
			}
		})
	}
}

// BenchmarkCMFetchClean measures a directory-initiated fetch of a
// 64-flight view with nothing pending — what 14 of the 15 sharers answer
// in every Fig. 4 gather.
func BenchmarkCMFetchClean(b *testing.B) {
	benchCM(b, 64, func(b *testing.B, r *cmRig, _ int) { r.fetch(b) })
}

func benchCMPushOneOf(b *testing.B, n int) {
	benchCM(b, n, func(b *testing.B, r *cmRig, i int) {
		if err := r.rs.ConfirmTickets(1, firstFlight+i%n); err != nil {
			b.Fatal(err)
		}
		if err := r.cm.PushImage(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkCMPushOneOf8 and BenchmarkCMPushOneOf64 measure reserve + push
// of one flight out of a view of 8 (the benchmark agents' range) and 64
// (a session_mix browse view).
func BenchmarkCMPushOneOf8(b *testing.B)  { benchCMPushOneOf(b, 8) }
func BenchmarkCMPushOneOf64(b *testing.B) { benchCMPushOneOf(b, 64) }

// BenchmarkCMPullApplyOneOf64 measures a pull whose reply carries one
// changed flight into a 64-flight view.
func BenchmarkCMPullApplyOneOf64(b *testing.B) {
	benchCM(b, 64, func(b *testing.B, r *cmRig, i int) { r.pullOne(b, i+1) })
}
