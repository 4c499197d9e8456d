package directory

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// randDelta builds a random delta image over a small key space.
func randDelta(r *rand.Rand, writer string) *image.Image {
	img := image.New()
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", r.Intn(5))
		if r.Intn(6) == 0 {
			img.Put(image.Entry{Key: k, Writer: writer, Deleted: true})
		} else {
			img.Put(image.Entry{
				Key:     k,
				Value:   []byte(fmt.Sprintf("%s-%d", writer, r.Intn(100))),
				Version: vclock.Version(r.Intn(10)),
				Writer:  writer,
			})
		}
	}
	return img
}

// TestQuickStoreVersionMonotonic: every non-empty commit strictly
// increases the version; the log stays version-ordered; ConflictsSeen
// never decreases.
func TestQuickStoreVersionMonotonic(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	f := func() bool {
		st := NewStore(newMapStore(), vclock.NewSim())
		writers := []string{"a", "b", "c"}
		prevVer := vclock.Version(0)
		prevConf := 0
		for i := 0; i < 10; i++ {
			w := writers[r.Intn(len(writers))]
			ver, _, _, err := st.Commit(w, randDelta(r, w), 1)
			if err != nil {
				return false
			}
			if ver != prevVer+1 {
				return false
			}
			prevVer = ver
			if st.ConflictsSeen() < prevConf {
				return false
			}
			prevConf = st.ConflictsSeen()
		}
		log := st.Log()
		for i := 1; i < len(log); i++ {
			if log[i].Version <= log[i-1].Version {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStoreExtractReflectsCommits: after any commit sequence, a full
// extraction reflects exactly the primary's live keys plus tombstones for
// every deleted key, and the quality metric is consistent: a viewer that
// has seen the latest version has nothing unseen.
func TestQuickStoreExtractReflectsCommits(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	f := func() bool {
		ms := newMapStore()
		st := NewStore(ms, vclock.NewSim())
		for i := 0; i < 8; i++ {
			w := fmt.Sprintf("w%d", r.Intn(3))
			if _, _, _, err := st.Commit(w, randDelta(r, w), 1); err != nil {
				return false
			}
		}
		img, err := st.Extract(property.MustSet("F={1..5}"), 0)
		if err != nil {
			return false
		}
		// Every live key appears with its current value.
		for k, v := range ms.data {
			e, ok := img.Get(k)
			if !ok || e.Deleted || string(e.Value) != v {
				return false
			}
		}
		// Every extracted non-tombstone key is live.
		for _, e := range img.Entries {
			k := e.Key
			if e.Deleted {
				if _, live := ms.data[k]; live {
					return false
				}
				continue
			}
			if _, live := ms.data[k]; !live {
				return false
			}
		}
		// Fully caught-up viewers are fully fresh.
		return st.UnseenOps(st.Current(), "someone-else", property.MustSet("F={1..5}")) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeltaExtractIsSuffix: extracting with since=s returns exactly
// the entries whose shadow version exceeds s.
func TestQuickDeltaExtractIsSuffix(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	f := func() bool {
		st := NewStore(newMapStore(), vclock.NewSim())
		for i := 0; i < 6; i++ {
			w := fmt.Sprintf("w%d", r.Intn(2))
			if _, _, _, err := st.Commit(w, randDelta(r, w), 1); err != nil {
				return false
			}
		}
		full, err := st.Extract(property.MustSet("F={1..5}"), 0)
		if err != nil {
			return false
		}
		since := vclock.Version(r.Intn(7))
		delta, err := st.Extract(property.MustSet("F={1..5}"), since)
		if err != nil {
			return false
		}
		for _, e := range full.Entries {
			k := e.Key
			_, inDelta := delta.Get(k)
			if (e.Version > since) != inDelta {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
