// Package airline implements the paper's case study (§5): a
// component-based airline reservation system consisting of a main flight
// database, replicable travel-agent views that assist clients, and
// reservation clients of different capabilities (viewers and buyers).
//
// The same ReservationSystem type plays both the original component (the
// main database) and the travel agents' working replicas — exactly the
// view relationship from §3.2: each agent's data is a subset of the
// database's, selected by the "Flights" property.
package airline

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flecc/internal/image"
	"flecc/internal/property"
)

// PropFlights is the property name agents use to declare which flights
// they serve (the paper's `"Flights"` property).
const PropFlights = "Flights"

// Flight is one flight record in the database.
type Flight struct {
	// Number is the unique flight number.
	Number int
	// Origin and Dest are airport codes.
	Origin, Dest string
	// Capacity is the number of sellable seats.
	Capacity int
	// Reserved is the number of seats sold.
	Reserved int
	// Fare is the ticket price in cents.
	Fare int
}

// Available returns the number of unsold seats.
func (f Flight) Available() int { return f.Capacity - f.Reserved }

// Key returns the image entry key for the flight.
func (f Flight) Key() string { return FlightKey(f.Number) }

// FlightKey renders the image entry key for a flight number.
func FlightKey(number int) string { return "flight/" + strconv.Itoa(number) }

// ParseFlightKey extracts the flight number from an entry key. Only the
// form FlightKey renders is one ("flight/007" is no flight), so no flight
// travels under two keys: the store detects conflicts per key.
func ParseFlightKey(key string) (int, error) {
	rest, ok := strings.CutPrefix(key, "flight/")
	if !ok {
		return 0, fmt.Errorf("airline: %q is not a flight key", key)
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0, fmt.Errorf("airline: bad flight key %q: %w", key, err)
	}
	digits := strings.TrimPrefix(rest, "-")
	if rest[0] == '+' || digits[0] == '0' && rest != "0" {
		return 0, fmt.Errorf("airline: flight key %q is not canonical", key)
	}
	return n, nil
}

// Encode renders the flight payload ("origin|dest|capacity|reserved|fare").
// The payload is assembled in a stack scratch buffer and copied out at its
// exact length: entry values are retained (base snapshots, the primary's
// update log), so the one allocation carries no slack.
func (f Flight) Encode() []byte {
	var scratch [64]byte
	b := append(scratch[:0], f.Origin...)
	b = append(b, '|')
	b = append(b, f.Dest...)
	for _, n := range [...]int{f.Capacity, f.Reserved, f.Fare} {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(n), 10)
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// DecodeFlight parses an encoded flight payload for the given number.
func DecodeFlight(number int, b []byte) (Flight, error) {
	// Exactly five '|'-separated fields; sep[i] is the i-th separator.
	var sep [4]int
	n := 0
	for i, c := range b {
		if c != '|' {
			continue
		}
		if n == len(sep) {
			return Flight{}, fmt.Errorf("airline: bad flight payload %q", b)
		}
		sep[n] = i
		n++
	}
	if n != len(sep) {
		return Flight{}, fmt.Errorf("airline: bad flight payload %q", b)
	}
	capn, err1 := strconv.Atoi(string(b[sep[1]+1 : sep[2]]))
	res, err2 := strconv.Atoi(string(b[sep[2]+1 : sep[3]]))
	fare, err3 := strconv.Atoi(string(b[sep[3]+1:]))
	if err1 != nil || err2 != nil || err3 != nil {
		return Flight{}, fmt.Errorf("airline: bad numbers in flight payload %q", b)
	}
	return Flight{
		Number: number, Origin: string(b[:sep[0]]), Dest: string(b[sep[0]+1 : sep[1]]),
		Capacity: capn, Reserved: res, Fare: fare,
	}, nil
}

// Errors reported by reservation operations.
var (
	ErrNoSuchFlight = fmt.Errorf("airline: no such flight")
	ErrSoldOut      = fmt.Errorf("airline: not enough seats")
)

// ReservationSystem is the flight store. It is safe for concurrent use and
// implements the Flecc image codec (extractFromObject/mergeIntoObject and
// extractFromView/mergeIntoView are the same shape, per the paper's
// Figure 3).
//
// It also tracks what changed (image.ChangeExtractor): rev advances on
// every state change, each record remembers the revision of its last
// change, and deleted remembers when a flight that is currently absent
// was removed. A re-added flight leaves the map again, so it never holds
// more than the distinct flights ever removed.
type ReservationSystem struct {
	mu      sync.Mutex
	flights map[int]*flightRec
	rev     uint64
	deleted map[int]uint64
}

// flightRec is a stored flight plus its entry key, rendered once, and the
// revision of its last change.
type flightRec struct {
	Flight
	key string
	rev uint64
}

// NewReservationSystem returns an empty system.
func NewReservationSystem() *ReservationSystem {
	return &ReservationSystem{flights: map[int]*flightRec{}, deleted: map[int]uint64{}}
}

// touch stamps a record that just changed. Caller holds mu.
func (rs *ReservationSystem) touch(f *flightRec) {
	rs.rev++
	f.rev = rs.rev
}

// put inserts or replaces a flight. Caller holds mu.
func (rs *ReservationSystem) put(f Flight) {
	rec, ok := rs.flights[f.Number]
	if !ok {
		rec = &flightRec{key: f.Key()}
		rs.flights[f.Number] = rec
		delete(rs.deleted, f.Number)
	}
	rec.Flight = f
	rs.touch(rec)
}

// AddFlight inserts or replaces a flight.
func (rs *ReservationSystem) AddFlight(f Flight) {
	rs.mu.Lock()
	rs.put(f)
	rs.mu.Unlock()
}

// Flight returns a copy of the flight record.
func (rs *ReservationSystem) Flight(number int) (Flight, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	f, ok := rs.flights[number]
	if !ok {
		return Flight{}, false
	}
	return f.Flight, true
}

// Flights returns copies of all flights, ordered by number.
func (rs *ReservationSystem) Flights() []Flight {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]Flight, 0, len(rs.flights))
	for _, f := range rs.flights {
		out = append(out, f.Flight)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

// Len returns the number of flights.
func (rs *ReservationSystem) Len() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.flights)
}

// Browse returns the flights between two airports with seats available —
// the viewer operation.
func (rs *ReservationSystem) Browse(origin, dest string) []Flight {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []Flight
	for _, f := range rs.flights {
		if (origin == "" || f.Origin == origin) && (dest == "" || f.Dest == dest) && f.Available() > 0 {
			out = append(out, f.Flight)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

// ConfirmTickets reserves count seats on a flight — the paper's
// confirmTickets(count, flightNumber) operation.
func (rs *ReservationSystem) ConfirmTickets(count, number int) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	f, ok := rs.flights[number]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchFlight, number)
	}
	if f.Available() < count {
		return fmt.Errorf("%w: flight %d has %d seats, want %d", ErrSoldOut, number, f.Available(), count)
	}
	f.Reserved += count
	rs.touch(f)
	return nil
}

// CancelTickets releases count seats on a flight.
func (rs *ReservationSystem) CancelTickets(count, number int) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	f, ok := rs.flights[number]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchFlight, number)
	}
	f.Reserved -= count
	if f.Reserved < 0 {
		f.Reserved = 0
	}
	rs.touch(f)
	return nil
}

// TotalReserved sums reserved seats across all flights (a trigger
// variable).
func (rs *ReservationSystem) TotalReserved() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	total := 0
	for _, f := range rs.flights {
		total += f.Reserved
	}
	return total
}

// flightsDomain returns the flight-number domain of a property set
// (empty domain = no restriction declared).
func flightsDomain(props property.Set) (property.Domain, bool) {
	p, ok := props.Get(PropFlights)
	if !ok {
		return property.Domain{}, false
	}
	return p.Domain, true
}

// Extract implements the Flecc extract method (extractFromObject /
// extractFromView): it snapshots the flights selected by the property
// set's "Flights" domain (all flights when the property is absent).
func (rs *ReservationSystem) Extract(props property.Set) (*image.Image, error) {
	img, _, err := rs.ExtractChanged(props, 0)
	if img == nil {
		img = image.New()
	}
	return img, err
}

// ExtractChanged implements image.ChangeExtractor: the selected flights
// that changed after revision since (all of them when since is 0), the
// selected flights removed after it as tombstones, and the current
// revision. It compares a revision per record and encodes only the
// records it returns; when none qualifies the image is nil and nothing is
// allocated.
func (rs *ReservationSystem) ExtractChanged(props property.Set, since uint64) (*image.Image, uint64, error) {
	dom, restricted := flightsDomain(props)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var entries []image.Entry
	for n, f := range rs.flights {
		if f.rev > since && (!restricted || dom.ContainsValue(float64(n))) {
			entries = append(entries, image.Entry{Key: f.key, Value: f.Encode()})
		}
	}
	if since > 0 {
		for n, rev := range rs.deleted {
			if rev > since && (!restricted || dom.ContainsValue(float64(n))) {
				entries = append(entries, image.Entry{Key: FlightKey(n), Deleted: true})
			}
		}
	}
	if entries == nil {
		return nil, rs.rev, nil
	}
	return image.Of(0, entries), rs.rev, nil
}

// ExtractKeys implements image.KeyedExtractor: it snapshots just the
// requested flights, applying the same "Flights" domain restriction as
// Extract, so the directory store can serve delta pulls by looking up the
// handful of flights that changed instead of walking the whole database.
// Non-flight keys and absent flights are omitted.
func (rs *ReservationSystem) ExtractKeys(props property.Set, keys []string) (*image.Image, error) {
	dom, restricted := flightsDomain(props)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	entries := make([]image.Entry, 0, len(keys))
	for _, key := range keys {
		n, err := ParseFlightKey(key)
		if err != nil {
			continue // foreign entries are not ours to interpret
		}
		if restricted && !dom.ContainsValue(float64(n)) {
			continue
		}
		f, ok := rs.flights[n]
		if !ok {
			continue
		}
		// key is canonical (ParseFlightKey), so it is f.Key() already.
		entries = append(entries, image.Entry{Key: key, Value: f.Encode()})
	}
	return image.Of(0, entries), nil
}

// Merge implements the Flecc merge method (mergeIntoObject /
// mergeIntoView): it folds flight entries into the store, honoring the
// property restriction and tombstones.
func (rs *ReservationSystem) Merge(img *image.Image, props property.Set) error {
	dom, restricted := flightsDomain(props)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, e := range img.Entries {
		n, err := ParseFlightKey(e.Key)
		if err != nil {
			continue // foreign entries are not ours to interpret
		}
		if restricted && !dom.ContainsValue(float64(n)) {
			continue
		}
		old, exists := rs.flights[n]
		if e.Deleted {
			if exists {
				delete(rs.flights, n)
				rs.rev++
				rs.deleted[n] = rs.rev
			}
			continue
		}
		f, err := DecodeFlight(n, e.Value)
		if err != nil {
			return err
		}
		if exists && old.Flight == f {
			continue // nothing changed: the key stays clean
		}
		rs.put(f)
	}
	return nil
}

// InScope implements image.Scoper: Merge applies exactly the flight keys
// whose number lies in the set's Flights domain (every flight when the
// set declares none).
func (rs *ReservationSystem) InScope(props property.Set, key string) bool {
	n, err := ParseFlightKey(key)
	dom, restricted := flightsDomain(props)
	return err == nil && (!restricted || dom.ContainsValue(float64(n)))
}

var (
	_ image.Codec           = (*ReservationSystem)(nil)
	_ image.KeyedExtractor  = (*ReservationSystem)(nil)
	_ image.ChangeExtractor = (*ReservationSystem)(nil)
	_ image.Scoper          = (*ReservationSystem)(nil)
)

// SeatResolver is the application conflict resolver for concurrent
// reservations: when two agents sold seats on the same flight based on the
// same snapshot, the merged record keeps the higher Reserved count (seats,
// once sold, stay sold) while taking the rest of the incoming record.
// Overselling beyond capacity is clamped.
func SeatResolver(c image.Conflict) (image.Entry, error) {
	ourN, err1 := ParseFlightKey(c.Key)
	if err1 != nil || c.Ours.Value == nil || c.Theirs.Value == nil {
		// Not a flight record (or a deletion raced): take the incoming.
		return c.Theirs, nil
	}
	ours, err1 := DecodeFlight(ourN, c.Ours.Value)
	theirs, err2 := DecodeFlight(ourN, c.Theirs.Value)
	if err1 != nil || err2 != nil {
		return c.Theirs, nil
	}
	merged := theirs
	if ours.Reserved > merged.Reserved {
		merged.Reserved = ours.Reserved
	}
	if merged.Reserved > merged.Capacity {
		merged.Reserved = merged.Capacity
	}
	out := c.Theirs
	out.Value = merged.Encode()
	return out, nil
}

// SeedFlights populates a system with count flights numbered from start,
// with the given capacity, and round-robin city pairs — the synthetic
// stand-in for the paper's "main flight database that contains all
// information about existing flights".
func SeedFlights(rs *ReservationSystem, start, count, capacity int) {
	cities := []string{"NYC", "BOS", "SFO", "LAX", "ORD", "MIA"}
	for i := 0; i < count; i++ {
		n := start + i
		rs.AddFlight(Flight{
			Number:   n,
			Origin:   cities[i%len(cities)],
			Dest:     cities[(i+1)%len(cities)],
			Capacity: capacity,
			Fare:     10000 + 100*(i%50),
		})
	}
}
