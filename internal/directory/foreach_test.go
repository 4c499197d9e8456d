package directory

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"flecc/internal/metrics"
)

// goid returns the running goroutine's id as the runtime prints it.
func goid() string {
	b := make([]byte, 64)
	return string(bytes.Fields(b[:runtime.Stack(b, false)])[1])
}

// TestFanoutEveryTargetOnce drives forEachTarget directly over widths
// 1..8 and 0..20 targets, with errors injected at random indices: every
// target is called exactly once, never more than width at a time, the
// lowest-index error is the one returned, and at width 1 the calls run in
// slice order on the calling goroutine.
func TestFanoutEveryTargetOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for width := 1; width <= 8; width++ {
		for n := 0; n <= 20; n++ {
			m := &Manager{opts: Options{FanOut: width}, latFanout: metrics.NewLatency("fanout")}
			targets := make([]string, n)
			fails := make(map[string]bool, n)
			wantErr := ""
			for i := range targets {
				targets[i] = fmt.Sprintf("v%02d", i)
				if rng.Intn(4) == 0 {
					fails[targets[i]] = true
					if wantErr == "" {
						wantErr = targets[i]
					}
				}
			}

			var (
				mu       sync.Mutex
				order    []string
				callers  = map[string]bool{}
				inFlight atomic.Int32
				peak     atomic.Int32
			)
			err := m.forEachTarget(targets, func(target string) error {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				runtime.Gosched() // let the other workers overlap this call
				mu.Lock()
				order = append(order, target)
				callers[goid()] = true
				mu.Unlock()
				inFlight.Add(-1)
				if fails[target] {
					return fmt.Errorf("%s", target)
				}
				return nil
			})

			called := slices.Clone(order)
			slices.Sort(called)
			if !slices.Equal(called, targets) {
				t.Fatalf("width %d, %d targets: called %v, want each target once", width, n, order)
			}
			if p := int(peak.Load()); p > width {
				t.Fatalf("width %d, %d targets: %d calls in flight at once", width, n, p)
			}
			if got := fmt.Sprint(err); wantErr == "" && err != nil || wantErr != "" && got != wantErr {
				t.Fatalf("width %d, %d targets: err = %v, want %q (lowest failing index)", width, n, err, wantErr)
			}
			if len(callers) > min(width, n) {
				t.Fatalf("width %d, %d targets: %d goroutines made calls", width, n, len(callers))
			}
			if width == 1 && n > 0 {
				if !slices.Equal(order, targets) {
					t.Fatalf("width 1, %d targets: order %v, want slice order", n, order)
				}
				if !callers[goid()] {
					t.Fatalf("width 1, %d targets: calls ran off the calling goroutine", n)
				}
			}
		}
	}
}

// TestFanoutRoundAllocs: a round's state is one pooled record, so at
// width 1 a round allocates nothing of its own, and at width 4 nothing but
// its helper goroutines. The lowest-index error still wins, from a helper
// as from the caller. Both read 0, under -race too: a record the race
// detector's pool drops costs two objects a quarter of the time, which
// AllocsPerRun's whole-number mean rounds away.
func TestFanoutRoundAllocs(t *testing.T) {
	targets := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	errs := map[string]error{"v2": fmt.Errorf("v2"), "v5": fmt.Errorf("v5"), "v7": fmt.Errorf("v7")}
	call := func(target string) error { return errs[target] }
	for _, tc := range []struct {
		width   int
		ceiling float64
	}{
		{1, 0},
		{4, 3},
	} {
		m := &Manager{opts: Options{FanOut: tc.width}, latFanout: metrics.NewLatency("fanout")}
		var err error
		n := testing.AllocsPerRun(200, func() { err = m.forEachTarget(targets, call) })
		if n > tc.ceiling {
			t.Errorf("width %d: a round allocates %v, want <= %v", tc.width, n, tc.ceiling)
		}
		if fmt.Sprint(err) != "v2" {
			t.Errorf("width %d: err = %v, want v2 (lowest failing index)", tc.width, err)
		}
	}
}
