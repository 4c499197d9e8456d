package airline

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flecc/internal/image"
	"flecc/internal/property"
)

// The payload codec was rewritten without fmt and strings.Split; these are
// the previous implementations, kept as the reference the new ones must
// match byte for byte and error for error.
func refEncode(f Flight) []byte {
	return []byte(fmt.Sprintf("%s|%s|%d|%d|%d", f.Origin, f.Dest, f.Capacity, f.Reserved, f.Fare))
}

func refDecode(number int, b []byte) (Flight, error) {
	parts := strings.Split(string(b), "|")
	if len(parts) != 5 {
		return Flight{}, fmt.Errorf("bad payload")
	}
	capn, err1 := strconv.Atoi(parts[2])
	res, err2 := strconv.Atoi(parts[3])
	fare, err3 := strconv.Atoi(parts[4])
	if err1 != nil || err2 != nil || err3 != nil {
		return Flight{}, fmt.Errorf("bad numbers")
	}
	return Flight{Number: number, Origin: parts[0], Dest: parts[1], Capacity: capn, Reserved: res, Fare: fare}, nil
}

func TestFlightCodecMatchesReference(t *testing.T) {
	flights := []Flight{
		{},
		{Origin: "NYC", Dest: "SFO", Capacity: 200, Reserved: 42, Fare: 19900},
		{Origin: "", Dest: "", Capacity: 0, Reserved: 0, Fare: 0},
		{Origin: "", Dest: "LAX", Capacity: -1, Reserved: -200, Fare: -19900},
		{Origin: "A", Dest: "", Capacity: math.MaxInt, Reserved: math.MinInt, Fare: math.MaxInt32},
		{Origin: strings.Repeat("long-airport-name-", 8), Dest: "héliport", Capacity: 1, Reserved: 10, Fare: 100},
	}
	rng := rand.New(rand.NewSource(1))
	codes := []string{"", "NYC", "BOS", "SFO", "a b", "ü"}
	for i := 0; i < 500; i++ {
		flights = append(flights, Flight{
			Origin: codes[rng.Intn(len(codes))], Dest: codes[rng.Intn(len(codes))],
			Capacity: int(rng.Int63()) >> uint(rng.Intn(63)), Reserved: -(int(rng.Int63()) >> uint(rng.Intn(63))), Fare: rng.Intn(3) - 1,
		})
	}
	for _, f := range flights {
		got, want := f.Encode(), refEncode(f)
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode(%+v) = %q, reference %q", f, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("Encode(%+v): cap %d > len %d — retained payloads would carry slack", f, cap(got), len(got))
		}
		back, err := DecodeFlight(7, got)
		f.Number = 7
		if err != nil || back != f {
			t.Fatalf("DecodeFlight(%q) = %+v, %v; want %+v", got, back, err, f)
		}
	}

	payloads := []string{
		"", "|", "||||", "|||||", "a|b|c", "a|b|1|2", "a|b|1|2|3|4", "a|b|1|2|3|", "a|b|x|0|0", "a|b|1|x|0", "a|b|1|0|x",
		"a|b||0|0", "a|b|1|0|", "a|b|+1|-0|007", "a|b|1_0|0|0", "a|b|0x10|0|0", "a|b| 1|0|0", "a|b|1.0|0|0",
		"a|b|9223372036854775807|0|0", "a|b|9223372036854775808|0|0", "a|b|-9223372036854775808|0|0", "a|b|-9223372036854775809|0|0",
		"||1|2|3", "a|b|1|2|3\n",
	}
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = "|0123456789-+ax"[rng.Intn(15)]
		}
		payloads = append(payloads, string(b))
	}
	for _, p := range payloads {
		got, gerr := DecodeFlight(3, []byte(p))
		want, werr := refDecode(3, []byte(p))
		if (gerr != nil) != (werr != nil) || got != want {
			t.Errorf("DecodeFlight(%q) = %+v, %v; reference %+v, %v", p, got, gerr, want, werr)
		}
	}
}

func TestFlightCodecAllocs(t *testing.T) {
	f := Flight{Number: 102, Origin: "NYC", Dest: "SFO", Capacity: 200, Reserved: 42, Fare: 19900}
	payload := f.Encode()
	var sink []byte
	if n := testing.AllocsPerRun(200, func() { sink = f.Encode() }); n > 1 {
		t.Errorf("Encode: %v allocs, want <= 1", n)
	}
	_ = sink
	var back Flight
	if n := testing.AllocsPerRun(200, func() { back, _ = DecodeFlight(102, payload) }); n > 2 {
		t.Errorf("DecodeFlight: %v allocs, want <= 2", n)
	}
	if back != f {
		t.Fatalf("round trip: %+v != %+v", back, f)
	}
}

func flightProps(lo, hi int) property.Set {
	return property.NewSet(property.New(PropFlights, property.DiscreteRange(lo, hi)))
}

// tombstone removes flights the only way the system can lose one: a
// merged image carrying deletions.
func tombstone(t *testing.T, rs *ReservationSystem, numbers ...int) {
	t.Helper()
	img := image.New()
	for _, n := range numbers {
		img.Delete(FlightKey(n), 0, "")
	}
	if err := rs.Merge(img, property.Set{}); err != nil {
		t.Fatal(err)
	}
}

// changedKeys renders ExtractChanged's answer as "key" / "key:deleted".
func changedKeys(t *testing.T, rs *ReservationSystem, props property.Set, since uint64) ([]string, uint64) {
	t.Helper()
	img, rev, err := rs.ExtractChanged(props, since)
	if err != nil {
		t.Fatal(err)
	}
	if img == nil {
		return nil, rev
	}
	var out []string
	for _, e := range img.Entries {
		k := e.Key
		if e.Version != 0 || e.Writer != "" {
			t.Errorf("%s: ExtractChanged must leave Version/Writer zero, got v%d %q", k, e.Version, e.Writer)
		}
		if e.Deleted {
			k += ":deleted"
		}
		out = append(out, k)
	}
	return out, rev
}

func TestChangeExtractorSinceZeroIsExtract(t *testing.T) {
	rs := NewReservationSystem()
	empty, rev, err := rs.ExtractChanged(flightProps(100, 109), 0)
	if err != nil || empty != nil || rev != 0 {
		t.Fatalf("empty system: ExtractChanged(0) = %v, %d, %v; want no image at revision 0", empty, rev, err)
	}
	SeedFlights(rs, 100, 20, 50)
	tombstone(t, rs, 103, 115) // absent flights are simply absent at since 0
	for _, props := range []property.Set{{}, flightProps(100, 109), flightProps(500, 509)} {
		full, err := rs.Extract(props)
		if err != nil {
			t.Fatal(err)
		}
		img, _, err := rs.ExtractChanged(props, 0)
		if err != nil {
			t.Fatal(err)
		}
		if img == nil {
			img = image.New()
		}
		if !img.Equal(full) {
			t.Fatalf("props %s: ExtractChanged(0) = %v, Extract = %v", props, img.Entries, full.Entries)
		}
	}
}

func TestChangeExtractorRevisionsAdvance(t *testing.T) {
	rs := NewReservationSystem()
	var last uint64
	step := func(what string, mutate func(), want ...string) {
		t.Helper()
		mutate()
		got, rev := changedKeys(t, rs, property.Set{}, last)
		if rev <= last {
			t.Fatalf("%s: revision %d did not advance past %d", what, rev, last)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: changed after %d = %v, want %v", what, last, got, want)
		}
		last = rev
	}
	step("AddFlight", func() { rs.AddFlight(Flight{Number: 1, Capacity: 10}) }, "flight/1")
	step("AddFlight second", func() { rs.AddFlight(Flight{Number: 2, Capacity: 10}) }, "flight/2")
	step("ConfirmTickets", func() { rs.ConfirmTickets(2, 1) }, "flight/1")
	step("CancelTickets", func() { rs.CancelTickets(1, 1) }, "flight/1")
	step("Merge value", func() {
		img := image.New()
		img.Put(image.Entry{Key: FlightKey(2), Value: Flight{Capacity: 10, Reserved: 5}.Encode()})
		img.Put(image.Entry{Key: FlightKey(3), Value: Flight{Capacity: 7}.Encode()})
		if err := rs.Merge(img, property.Set{}); err != nil {
			t.Fatal(err)
		}
	}, "flight/2", "flight/3")
	step("Merge tombstone", func() { tombstone(t, rs, 2) }, "flight/2:deleted")
	step("AddFlight replace", func() { rs.AddFlight(Flight{Number: 1, Capacity: 99}) }, "flight/1")

	// Nothing happened: same revision, nothing to report, nothing allocated.
	if got, rev := changedKeys(t, rs, property.Set{}, last); got != nil || rev != last {
		t.Fatalf("idle: changed = %v at revision %d, want nothing at %d", got, rev, last)
	}
	if n := testing.AllocsPerRun(100, func() { rs.ExtractChanged(property.Set{}, last) }); n != 0 {
		t.Errorf("ExtractChanged with nothing changed: %v allocs, want 0", n)
	}
	// A failed operation and a merge that changes nothing may not report a
	// change either (over-reporting would be allowed, but costs a push).
	rs.ConfirmTickets(1, 404)
	img := image.New()
	img.Put(image.Entry{Key: FlightKey(1), Value: Flight{Capacity: 99}.Encode()})
	img.Delete(FlightKey(2), 0, "")
	if err := rs.Merge(img, property.Set{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := changedKeys(t, rs, property.Set{}, last); got != nil {
		t.Errorf("no-op merge reported %v", got)
	}
}

func TestChangeExtractorDeleteThenReAdd(t *testing.T) {
	rs := NewReservationSystem()
	SeedFlights(rs, 100, 4, 50)
	_, since := changedKeys(t, rs, property.Set{}, 0)
	tombstone(t, rs, 101)
	rs.AddFlight(Flight{Number: 101, Capacity: 5})
	got, _ := changedKeys(t, rs, property.Set{}, since)
	if strings.Join(got, ",") != "flight/101" {
		t.Fatalf("delete then re-add: changed = %v, want the live flight/101 and no tombstone", got)
	}
	img, _, _ := rs.ExtractChanged(property.Set{}, since)
	e, _ := img.Get(FlightKey(101))
	if f, err := DecodeFlight(101, e.Value); err != nil || f.Capacity != 5 {
		t.Fatalf("re-added flight = %+v, %v; want capacity 5", f, err)
	}
}

func TestChangeExtractorTombstonesHonourDomain(t *testing.T) {
	rs := NewReservationSystem()
	SeedFlights(rs, 100, 20, 50)
	_, since := changedKeys(t, rs, property.Set{}, 0)
	tombstone(t, rs, 103, 115)
	rs.ConfirmTickets(1, 104)
	rs.ConfirmTickets(1, 116)
	for _, c := range []struct {
		props property.Set
		want  string
	}{
		{property.Set{}, "flight/103:deleted,flight/104,flight/115:deleted,flight/116"},
		{flightProps(100, 109), "flight/103:deleted,flight/104"},
		{flightProps(110, 119), "flight/115:deleted,flight/116"},
		{flightProps(500, 509), ""},
	} {
		got, _ := changedKeys(t, rs, c.props, since)
		if strings.Join(got, ",") != c.want {
			t.Errorf("props %s: changed = %v, want %s", c.props, got, c.want)
		}
	}
}

// Since at or past the current revision asks for nothing: a nil image,
// the current revision, and no allocation. The cache manager reads its
// view's revision after a merge this way.
func TestChangeExtractorSincePastCurrentReadsRevision(t *testing.T) {
	rs := NewReservationSystem()
	SeedFlights(rs, 100, 8, 50)
	tombstone(t, rs, 103)
	_, cur := changedKeys(t, rs, property.Set{}, 0)
	for _, since := range []uint64{cur, cur + 1, math.MaxUint64} {
		for _, props := range []property.Set{{}, flightProps(100, 104)} {
			img, rev, err := rs.ExtractChanged(props, since)
			if err != nil || img != nil || rev != cur {
				t.Fatalf("since %d, props %s: image %v, revision %d, %v; want nil at %d", since, props, img, rev, err, cur)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { rs.ExtractChanged(property.Set{}, math.MaxUint64) }); n != 0 {
		t.Errorf("ExtractChanged past the current revision: %v allocs, want 0", n)
	}
}

// The deleted-flights map holds the flights that are absent now and were
// removed at some point — never one entry per deletion.
func TestChangeExtractorDeletedMapBounded(t *testing.T) {
	rs := NewReservationSystem()
	for round := 0; round < 100; round++ {
		for n := 0; n < 5; n++ {
			rs.AddFlight(Flight{Number: n, Capacity: round})
		}
		tombstone(t, rs, 0, 1, 2, 3, 4)
		tombstone(t, rs, 0, 1, 2, 3, 4, 99) // already gone / never there: no new record
	}
	if n := len(rs.deleted); n != 5 {
		t.Fatalf("deleted map holds %d flights after 100 delete rounds over 5 distinct flights, want 5", n)
	}
	rs.AddFlight(Flight{Number: 3})
	if _, still := rs.deleted[3]; still || len(rs.deleted) != 4 {
		t.Fatalf("re-adding flight 3 must drop its deletion record, map = %v", rs.deleted)
	}
}

// Mutators, merges and every extract flavour at once: run under -race.
func TestChangeExtractorConcurrent(t *testing.T) {
	rs := NewReservationSystem()
	SeedFlights(rs, 0, 16, 1<<30)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				n := (w*7 + i) % 16
				switch i % 4 {
				case 0:
					rs.ConfirmTickets(1, n)
				case 1:
					rs.CancelTickets(1, n)
				case 2:
					rs.AddFlight(Flight{Number: n, Capacity: 1 << 30, Reserved: i})
				default:
					img := image.New()
					img.Delete(FlightKey(n), 0, "")
					rs.Merge(img, property.Set{})
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var since uint64
			for i := 0; i < 300; i++ {
				_, rev, err := rs.ExtractChanged(flightProps(0, 7), since)
				if err != nil || rev < since {
					t.Errorf("ExtractChanged: revision %d after %d, err %v", rev, since, err)
					return
				}
				since = rev
				rs.Extract(property.Set{})
				rs.ExtractKeys(property.Set{}, []string{FlightKey(i % 16)})
			}
		}()
	}
	wg.Wait()
}
