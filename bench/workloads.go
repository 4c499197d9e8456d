package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"flecc/internal/workload"
)

// Flight numbering and capacity shared by every workload. Capacity is 2^30
// so no flight ever sells out: a sold-out reservation would be a failed op
// caused by the generator, not by the system.
const (
	firstFlight    = 100
	flightCapacity = 1 << 30
	dirName        = "db"
)

// opKind is one client-visible operation class. A reserve is the paper's
// Figure 3 loop body (ReserveTickets + PushImage); the others are the
// session mix's browse/buy/mode-switch steps plus view churn (open/close),
// which is counted as its own operation classes rather than folded into
// data-path latency.
type opKind uint8

const (
	opReserve opKind = iota
	opBrowse
	opUpgrade
	opBuy
	opDowngrade
	opOpen
	opClose
	numOpKinds
)

var opKindNames = [numOpKinds]string{"reserve", "browse", "upgrade", "buy", "downgrade", "open", "close"}

func (k opKind) String() string { return opKindNames[k] }

// op is one generated client operation. The system under test sees only
// these; the seed never leaves the generator.
type op struct {
	kind   opKind
	flight int // reserve/browse/buy target (absolute flight number)
	seats  int // buy only
}

// spec describes one workload: the deployment shape it boots and the
// traffic it offers. Names are stable identifiers (BENCHMARK.json, the
// baseline file and later issues quote them).
type spec struct {
	name string
	// shards > 1 boots shard.Bridge + shard.NewService behind the listener;
	// 1 boots a bare directory.Manager, exactly the two shapes fleccd has.
	shards int
	// standby attaches a hot standby on a second loopback listener.
	standby bool
	// views is the resident view population (one TCP connection each).
	views int
	// groupSize is the number of flights one conflict group covers and
	// viewsPerGroup how many views share each group's range.
	groupSize, viewsPerGroup int
	// validity is the views' validity trigger ("false" = always gather,
	// Figure 4's configuration).
	validity string
	// sessions selects the browse/buy session mix instead of the
	// reserve→push loop.
	sessions bool
	// groupAffine gives every conflict group to one driver, so its views
	// never have two client operations in flight at once. The session mix
	// needs it: the directory serves two concurrent strong-mode pulls of
	// one conflict group without ordering them, each sees the other as
	// inactive, both are granted, and SeatResolver then drops one buyer's
	// seats — a lost update the exact seat-conservation check catches in
	// about every second run. That is a protocol defect for a later issue,
	// not something a benchmark may paper over by relaxing its check.
	groupAffine bool
	// pacedRate is the constant offered rate of the paced phase, in ops/s:
	// about half the reference box's median closed-loop rate, two
	// significant digits. It is a constant of the benchmark, not tuned per
	// run, so latency is always measured at the same offered load.
	pacedRate float64
}

const (
	sessionBrowses     = 24
	sessionBuyFraction = 0.25
	buyFlights         = 16 // a buy reserves on this many consecutive flights
)

var specs = []spec{
	{name: "disjoint_reserve", shards: 1, views: 16, groupSize: 8, viewsPerGroup: 1, pacedRate: 7200},
	{name: "shared_gather", shards: 1, views: 16, groupSize: 8, viewsPerGroup: 16, validity: "false", pacedRate: 1100},
	{name: "session_mix", shards: 4, views: 16, groupSize: 64, viewsPerGroup: 4, sessions: true, groupAffine: true, pacedRate: 7500},
	{name: "replicated_reserve", shards: 1, standby: true, views: 16, groupSize: 8, viewsPerGroup: 1, pacedRate: 380},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// flights returns the number of flights the deployment seeds.
func (s spec) flights() int { return s.groups() * s.groupSize }

func (s spec) groups() int { return s.views / s.viewsPerGroup }

// viewRange returns the flight range view i serves.
func (s spec) viewRange(i int) (from, to int) {
	g := i / s.viewsPerGroup
	from = firstFlight + g*s.groupSize
	return from, from + s.groupSize - 1
}

// opSource yields one client's operation stream. Streams are pure
// functions of (seed, client index, traffic kind): the same seed gives the
// same inputs, and replicated_reserve — whose spec differs from
// disjoint_reserve only in the deployment — draws byte-for-byte the same
// stream as its twin.
type opSource interface {
	next() op
}

func clientSeed(seed int64, client int) int64 {
	// SplitMix-style spread so neighbouring seeds and clients do not share
	// low-bit structure in math/rand's seeding.
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(client+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int64(x & 0x7FFFFFFFFFFFFFFF)
}

// reserveSource draws a uniformly random flight of the view's range.
type reserveSource struct {
	r        *rand.Rand
	from, to int
}

func (s *reserveSource) next() op {
	return op{kind: opReserve, flight: s.from + s.r.Intn(s.to-s.from+1), seats: 1}
}

// sessionSource turns workload.Generate's browse/buy sessions into one
// client's stream, one session at a time, and brackets every session with
// the view churn the paper's title is about: each session opens a fresh
// view and kills it at the end. The very first open is part of set-up (the
// resident population), so the stream starts inside session 0.
type sessionSource struct {
	seed     int64
	client   int
	from, to int
	session  int
	queue    []op
}

func (s *sessionSource) next() op {
	if len(s.queue) == 0 {
		s.fill()
	}
	o := s.queue[0]
	s.queue = s.queue[1:]
	return o
}

func (s *sessionSource) fill() {
	if s.session > 0 {
		s.queue = append(s.queue, op{kind: opOpen})
	}
	gen, err := workload.Generate(workload.Config{
		Seed:              clientSeed(s.seed, s.client) + int64(s.session)*7919,
		Clients:           1,
		Sessions:          1,
		BrowsesPerSession: sessionBrowses,
		BuyFraction:       sessionBuyFraction,
		FlightsFrom:       s.from,
		FlightsTo:         s.to,
		MaxSeats:          4,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: workload.Generate: %v", err)) // static config; only a bug can fail it
	}
	for _, g := range gen {
		o := op{flight: g.Flight, seats: g.Seats}
		switch g.Kind {
		case workload.OpBrowse:
			o.kind = opBrowse
		case workload.OpUpgrade:
			o.kind = opUpgrade
		case workload.OpBuy:
			o.kind = opBuy
		case workload.OpDowngrade:
			o.kind = opDowngrade
		}
		s.queue = append(s.queue, o)
	}
	s.queue = append(s.queue, op{kind: opClose})
	s.session++
}

// newSource builds client i's stream for the spec.
func (s spec) newSource(seed int64, i int) opSource {
	from, to := s.viewRange(i)
	if s.sessions {
		return &sessionSource{seed: seed, client: i, from: from, to: to}
	}
	return &reserveSource{r: rand.New(rand.NewSource(clientSeed(seed, i))), from: from, to: to}
}

// streamHash fingerprints the first n ops of every client's stream; the
// replicated twin asserts its hash equals the baseline's.
func (s spec) streamHash(seed int64, n int) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for i := 0; i < s.views; i++ {
		src := s.newSource(seed, i)
		for k := 0; k < n; k++ {
			o := src.next()
			buf[0] = byte(o.kind)
			binary.LittleEndian.PutUint32(buf[1:], uint32(o.flight))
			binary.LittleEndian.PutUint32(buf[5:], uint32(o.seats))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
