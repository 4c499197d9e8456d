package directory

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// TestSnapshotUnderConcurrentWriters hammers a store with parallel
// committers while snapshots are taken continuously. Every snapshot must
// be internally consistent — a torn capture (shadow or log entries newer
// than the captured counter, or an unsorted log) would poison both
// fail-over restores and replication batches.
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())

	const writers = 4
	const commits = 200
	var stop atomic.Bool
	var writerWG, snapWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < commits; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%17)
				d := delta(key, fmt.Sprintf("val%d", i))
				if _, _, _, err := st.Commit(fmt.Sprintf("v%d", w), d, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var lastVer vclock.Version
		for !stop.Load() {
			snap := st.SnapshotSince(0)
			if snap.Version < lastVer {
				t.Errorf("snapshot version regressed: %d -> %d", lastVer, snap.Version)
				return
			}
			lastVer = snap.Version
			for _, r := range snap.Shadow {
				if r.Version > snap.Version {
					t.Errorf("torn snapshot: shadow %s at v%d > counter v%d", r.Key, r.Version, snap.Version)
					return
				}
			}
			for i, rec := range snap.Log {
				if rec.Version > snap.Version {
					t.Errorf("torn snapshot: log entry v%d > counter v%d", rec.Version, snap.Version)
					return
				}
				if i > 0 && rec.Version < snap.Log[i-1].Version {
					t.Errorf("snapshot log out of order at %d: %d after %d", i, rec.Version, snap.Log[i-1].Version)
					return
				}
			}
			// The serialized form must round-trip even mid-traffic.
			back, err := DecodeSnapshot(EncodeSnapshot(snap))
			if err != nil {
				t.Error(err)
				return
			}
			if back.Version != snap.Version || len(back.Shadow) != len(snap.Shadow) || len(back.Log) != len(snap.Log) {
				t.Errorf("round trip changed the snapshot: %d/%d/%d vs %d/%d/%d",
					back.Version, len(back.Shadow), len(back.Log),
					snap.Version, len(snap.Shadow), len(snap.Log))
				return
			}
		}
	}()

	writerWG.Wait()
	stop.Store(true)
	snapWG.Wait()
	if t.Failed() {
		return
	}

	// The final snapshot loads into a standby that picks up exactly
	// where the counter left off.
	final := st.SnapshotSince(0)
	if final.Version != vclock.Version(writers*commits) {
		t.Fatalf("final version %d, want %d", final.Version, writers*commits)
	}
	standby := NewStore(newMapStore(), vclock.NewSim())
	if err := standby.Absorb(final); err != nil {
		t.Fatal(err)
	}
	if standby.Current() != final.Version {
		t.Fatalf("standby counter %d, want %d", standby.Current(), final.Version)
	}
	if got := standby.UnseenOps(0, "observer", property.MustSet("F={1}")); got == 0 {
		t.Fatal("restored log should report unseen ops")
	}
}

// TestStoreSetResolverDuringCommits swaps the resolver while conflicting
// commits run (go test -race): Commit loads it once, under Store.mu.
func TestStoreSetResolverDuringCommits(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	theirs := func(c image.Conflict) (image.Entry, error) { return c.Theirs, nil }

	var writers sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 2; w++ { // one key per goroutine: concurrent commits stay disjoint
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				// Alternating writers on a stale base: every commit but the
				// first conflicts, so the resolver is consulted.
				writer := fmt.Sprintf("w%d-%d", w, i%2)
				d := delta(fmt.Sprintf("k%d", w), fmt.Sprint(i))
				if _, _, _, err := st.Commit(writer, d, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() {
		writers.Wait()
		done.Store(true)
	}()
	for i := 0; !done.Load(); i++ {
		if i%2 == 0 {
			st.SetResolver(theirs)
		} else {
			st.SetResolver(nil)
		}
	}
	if got := st.ConflictsSeen(); got != 2*199 {
		t.Fatalf("conflicts seen = %d, want %d", got, 2*199)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreAbsorbMergeSemantics pins down Absorb's general merge, the
// path a batch overlapping what already landed takes: the newer shadow
// version wins per key, logs interleave by version with the
// existing entry winning a version tie, and the counter only ever moves
// forward.
func TestStoreAbsorbMergeSemantics(t *testing.T) {
	a := NewStore(newMapStore(), vclock.NewSim())
	b := NewStore(newMapStore(), vclock.NewSim())

	// a commits k1 (v1) then k2 (v2); b commits k1 (v1, its own counter).
	if _, _, _, err := a.Commit("v1", delta("k1", "from-a"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.Commit("v1", delta("k2", "from-a"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := b.Commit("v2", delta("k1", "from-b"), 1); err != nil {
		t.Fatal(err)
	}

	if err := b.Absorb(a.SnapshotSince(0)); err != nil {
		t.Fatal(err)
	}
	// Counter fast-forwarded to a's (2), never back.
	if b.Current() != 2 {
		t.Fatalf("absorbed counter = %d, want 2", b.Current())
	}
	snap := b.SnapshotSince(0)
	byKey := map[string]ShadowRec{}
	for _, r := range snap.Shadow {
		byKey[r.Key] = r
	}
	// k1: a's version 1 does not beat b's version 1 (not newer), so b's
	// writer is preserved; k2 arrives from a.
	if byKey["k1"].Writer != "v2" {
		t.Fatalf("k1 writer = %q, want v2 (equal versions must not be replaced)", byKey["k1"].Writer)
	}
	if byKey["k2"].Writer != "v1" {
		t.Fatalf("k2 writer = %q, want v1", byKey["k2"].Writer)
	}
	// Log merged in version order; a's v1 record lost the tie against b's
	// existing v1 record, so only a's v2 arrived.
	for i := 1; i < len(snap.Log); i++ {
		if snap.Log[i].Version <= snap.Log[i-1].Version {
			t.Fatalf("merged log out of order or duplicated: %v", snap.Log)
		}
	}
	if len(snap.Log) != 2 {
		t.Fatalf("merged log has %d entries, want 2", len(snap.Log))
	}
	// Absorbing the same snapshot again must not regress anything — and
	// must not grow the log with duplicate versions (a resent batch whose
	// log the store already holds).
	if err := b.Absorb(a.SnapshotSince(0)); err != nil {
		t.Fatal(err)
	}
	if b.Current() != 2 {
		t.Fatalf("re-absorb moved the counter to %d", b.Current())
	}
	if got := len(b.SnapshotSince(0).Log); got != 2 {
		t.Fatalf("re-absorb grew the log to %d entries, want 2", got)
	}
}
