package wire

import (
	"fmt"
	"strings"
	"testing"

	"flecc/internal/property"
)

// encodeRecords writes n records of the shape a replication log carries:
// a writer name, a key and a scope, each built by its function.
func encodeRecords(n int, name, key func(int) string, scope func(int) property.Set) []byte {
	e := GetEncoder()
	defer PutEncoder(e)
	for i := 0; i < n; i++ {
		e.Str(name(i))
		e.Str(key(i))
		e.PropSet(scope(i))
	}
	return e.Copy()
}

func flightScope(i int) property.Set {
	return property.NewSet(property.New("Flights", property.DiscreteInts(i, i+1)))
}

// TestStreamTablesBounded: 10,000 distinct writer names, keys and scopes
// leave every table at its cap, and each record still decodes to its own
// values. A scope whose encoding is over the byte cap is decoded, equal to
// what was written, but not cached.
func TestStreamTablesBounded(t *testing.T) {
	const n = 10000
	name := func(i int) string { return fmt.Sprintf("agent-%05d", i) }
	key := func(i int) string { return fmt.Sprintf("f/%05d", i) }
	tb := NewTables()
	d := tb.NewDecoder(encodeRecords(n, name, key, flightScope))
	for i := 0; i < n; i++ {
		gotName, gotKey, gotScope := d.Name(), d.Key(), d.PropSet()
		if d.Err() != nil {
			t.Fatalf("record %d: %v", i, d.Err())
		}
		if gotName != name(i) || gotKey != key(i) || !gotScope.Equal(flightScope(i)) {
			t.Fatalf("record %d decoded as %q %q %v", i, gotName, gotKey, gotScope)
		}
	}
	for what, size := range map[string]int{"names": len(tb.names), "keys": len(tb.keys), "scopes": len(tb.scopes)} {
		if size != maxEntries {
			t.Errorf("%s table holds %d entries, want its cap %d", what, size, maxEntries)
		}
	}

	members := make([]int, maxScopeLen)
	for i := range members {
		members[i] = i
	}
	big := property.NewSet(property.New("Flights", property.DiscreteInts(members...)))
	e := GetEncoder()
	e.PropSet(big)
	e.PropSet(big)
	blob := e.Copy()
	PutEncoder(e)
	if len(blob)/2 <= maxScopeLen {
		t.Fatalf("big scope encodes to %d bytes, not over the %d-byte cap", len(blob)/2, maxScopeLen)
	}
	tb = NewTables()
	d = tb.NewDecoder(blob)
	for i := 0; i < 2; i++ {
		if got := d.PropSet(); d.Err() != nil || !got.Equal(big) {
			t.Fatalf("big scope %d decoded as %d properties: %v", i, got.Len(), d.Err())
		}
	}
	if len(tb.scopes) != 0 {
		t.Fatalf("a scope over maxScopeLen was cached (%d entries)", len(tb.scopes))
	}
}

// TestStreamTablesCachedScopeAllocFree: once a scope's bytes decoded
// validly, decoding them again hands back the cached set and allocates
// nothing; writing a set allocates nothing either.
func TestStreamTablesCachedScopeAllocFree(t *testing.T) {
	scope := property.MustSet("Flights={12,13,14,15}; Seats=[0,200]")
	e := GetEncoder()
	defer PutEncoder(e)
	e.PropSet(scope)
	blob := e.Copy()
	tb := NewTables()
	tb.NewDecoder(blob).PropSet()
	d := &Decoder{t: tb}
	if n := testing.AllocsPerRun(100, func() {
		d.buf, d.off = blob, 0
		if got := d.PropSet(); !got.Equal(scope) {
			t.Fatalf("cached scope decoded as %v", got)
		}
	}); n != 0 {
		t.Errorf("decoding a cached scope: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e.buf = e.buf[:0]
		e.PropSet(scope)
	}); n != 0 {
		t.Errorf("encoding a scope: %v allocs, want 0", n)
	}
}

// TestStreamTablesMalformedScopeNotCached: a scope run the decoder
// refuses is refused again on every later decode, with the error an
// uncached decode reports, and never enters the table.
func TestStreamTablesMalformedScopeNotCached(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	e.Count(1)
	e.Str("") // a property with no name
	e.U8(uint8(property.KindInterval))
	e.U64(0)
	e.U64(0)
	bad := e.Copy()
	plain := NewDecoder(bad)
	plain.PropSet()
	if plain.Err() == nil {
		t.Fatal("a nameless property decoded")
	}
	tb := NewTables()
	for i := 0; i < 2; i++ {
		d := tb.NewDecoder(bad)
		d.PropSet()
		if d.Err() == nil || d.Err().Error() != plain.Err().Error() {
			t.Fatalf("decode %d through tables: %v, want %v", i, d.Err(), plain.Err())
		}
	}
	if len(tb.scopes) != 0 {
		t.Fatal("a refused scope was cached")
	}
	if strings.Contains(plain.Err().Error(), "truncated") {
		t.Fatalf("refused as truncated, not as a bad property: %v", plain.Err())
	}
}
