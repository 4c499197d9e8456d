package directory_test

import (
	"fmt"
	"testing"

	"flecc/internal/airline"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// The incremental delta path (dirty-key index + KeyedExtractor) must be
// observationally identical to the classic full path: extract everything,
// then trim to the delta.
// These tests run the same commit history through two stores over the same
// primary data — one seeing the keyed codec, one with the keyed extension
// hidden behind a FuncCodec — and compare every delta.

// hideKeyed wraps a codec so the store cannot see its ExtractKeys method.
func hideKeyed(c image.Codec) image.Codec {
	return image.FuncCodec{ExtractFn: c.Extract, MergeFn: c.Merge}
}

func sameImages(t *testing.T, label string, keyed, full *image.Image) {
	t.Helper()
	if keyed.Version != full.Version {
		t.Errorf("%s: image version %d vs %d", label, keyed.Version, full.Version)
	}
	if len(keyed.Entries) != len(full.Entries) {
		t.Errorf("%s: %d entries vs %d (%v vs %v)", label, len(keyed.Entries), len(full.Entries), keyed.Entries, full.Entries)
		return
	}
	for _, fe := range full.Entries {
		k := fe.Key
		ke, ok := keyed.Get(k)
		if !ok {
			t.Errorf("%s: key %s missing from keyed delta", label, k)
			continue
		}
		if ke.Version != fe.Version || ke.Writer != fe.Writer || ke.Deleted != fe.Deleted || string(ke.Value) != string(fe.Value) {
			t.Errorf("%s: key %s differs: keyed %+v vs full %+v", label, k, ke, fe)
		}
	}
}

// commitHistory drives an identical sequence of commits — inserts,
// overwrites (creating stale dirty records), and deletions — into both
// stores, returning the version after each step.
func commitHistory(t *testing.T, stores ...*directory.Store) []vclock.Version {
	t.Helper()
	flight := func(n, reserved int) image.Entry {
		return image.Entry{
			Key:   airline.FlightKey(n),
			Value: airline.Flight{Number: n, Origin: "NYC", Dest: "SFO", Capacity: 200, Reserved: reserved, Fare: 100}.Encode(),
		}
	}
	step := func(writer string, entries ...image.Entry) vclock.Version {
		var out vclock.Version
		for _, s := range stores {
			d := image.New()
			for _, e := range entries {
				e.Version = s.Current() // based on the latest committed state
				d.Put(e)
			}
			v, _, _, err := s.Commit(writer, d, 1)
			if err != nil {
				t.Fatal(err)
			}
			out = v
		}
		return out
	}

	var versions []vclock.Version
	// 1: seed twenty flights.
	var seed []image.Entry
	for n := 100; n < 120; n++ {
		seed = append(seed, flight(n, 0))
	}
	versions = append(versions, step("a", seed...))
	// 2: overwrite five of them (their v1 dirty records go stale).
	var over []image.Entry
	for n := 105; n < 110; n++ {
		over = append(over, flight(n, 7))
	}
	versions = append(versions, step("b", over...))
	// 3: delete one.
	versions = append(versions, step("c", image.Entry{Key: airline.FlightKey(103), Deleted: true}))
	// 4: fresh keys.
	versions = append(versions, step("d", flight(140, 1), flight(141, 2)))
	return versions
}

func TestExtractDeltaMatchesFullPath(t *testing.T) {
	primary := airline.NewReservationSystem()
	keyedStore := directory.NewStore(primary, vclock.NewSim())
	fullStore := directory.NewStore(hideKeyed(primary), vclock.NewSim())
	versions := commitHistory(t, keyedStore, fullStore)

	propSets := []property.Set{
		property.MustSet("Flights={100..160}"), // everything
		property.MustSet("Flights={100..110}"), // restricted
		{},                                     // unrestricted
	}
	sinces := append([]vclock.Version{0}, versions...)
	for _, props := range propSets {
		for _, since := range sinces {
			ki, err := keyedStore.Extract(props, since)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := fullStore.Extract(props, since)
			if err != nil {
				t.Fatal(err)
			}
			sameImages(t, fmt.Sprintf("props=%s since=%d", props, since), ki, fi)
		}
	}
}

// TestExtractDeltaAfterRestore: absorbing a full snapshot into a fresh
// store must build its dirty index, so delta pulls keep working on the
// standby.
func TestExtractDeltaAfterRestore(t *testing.T) {
	primary := airline.NewReservationSystem()
	keyedStore := directory.NewStore(primary, vclock.NewSim())
	fullStore := directory.NewStore(hideKeyed(primary), vclock.NewSim())
	versions := commitHistory(t, keyedStore, fullStore)

	standby := directory.NewStore(primary, vclock.NewSim())
	if err := standby.Absorb(keyedStore.SnapshotSince(0)); err != nil {
		t.Fatal(err)
	}
	props := property.MustSet("Flights={100..160}")
	for _, since := range versions {
		si, err := standby.Extract(props, since)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := fullStore.Extract(props, since)
		if err != nil {
			t.Fatal(err)
		}
		sameImages(t, fmt.Sprintf("restored since=%d", since), si, fi)
	}
}

// TestExtractDeltaEmpty: a puller already at the head gets an empty delta
// without the keyed path ever calling into the codec.
func TestExtractDeltaEmpty(t *testing.T) {
	primary := airline.NewReservationSystem()
	st := directory.NewStore(primary, vclock.NewSim())
	commitHistory(t, st)
	head := st.Current()
	img, err := st.Extract(property.MustSet("Flights={100..160}"), head)
	if err != nil {
		t.Fatal(err)
	}
	if img.Len() != 0 {
		t.Fatalf("delta at head has %d entries: %v", img.Len(), img.Entries)
	}
	if img.Version != head {
		t.Fatalf("delta version %d, want %d", img.Version, head)
	}
}
