package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flecc/internal/transport"
)

// Load model: drivers = min(nproc, 4) goroutines, each with at most one
// client operation outstanding, sharing the process (and default
// GOMAXPROCS) with the server and the standby. A 16-view population is 16
// mostly idle sockets; never more than `drivers` requests are
// client-initiated at once. DM-initiated fan-out to idle views is the
// system's own work.
func driverCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// warmupOps is the fixed warm-up length (lane map built, pools filled,
// connections' buffers grown) before anything is timed. A variable only so
// the smoke test can shorten it.
var warmupOps = 2000

// rig is one booted deployment plus the client population driving it.
type rig struct {
	spec    spec
	seed    int64
	dep     *deployment
	net     *clientNet
	clients []*client
	drivers int
	tr      *tracer
	bufs    []*spanBuf // per driver, traced runs
	total   counters
}

// setup boots the deployment, seeds the database (inside boot), and
// registers and initializes every resident view. Its wall time is setup_s.
func setup(s spec, seed int64, tr *tracer) (*rig, time.Duration, error) {
	start := time.Now()
	var h hooks
	if tr != nil {
		h = tr.hooks()
	}
	dep, err := boot(s, h)
	if err != nil {
		return nil, 0, fmt.Errorf("boot %s: %w", s.name, err)
	}
	r := &rig{spec: s, seed: seed, dep: dep, net: newClientNet(dep.addr, tr), drivers: driverCount(), tr: tr}
	if tr != nil {
		for d := 0; d < r.drivers; d++ {
			r.bufs = append(r.bufs, &spanBuf{})
		}
	}
	for i := 0; i < s.views; i++ {
		from, to := s.viewRange(i)
		c := &client{idx: i, spec: s, net: r.net, src: s.newSource(seed, i), from: from, to: to, acked: map[int]int{}}
		if tr != nil {
			c.buf = r.bufs[r.driverOf(i)]
		}
		if err := c.open(0); err != nil {
			r.clients = append(r.clients, c)
			r.teardown()
			return nil, 0, fmt.Errorf("open view %d: %w", i, err)
		}
		r.clients = append(r.clients, c)
	}
	return r, time.Since(start), nil
}

// teardown kills every open view and closes the deployment, waiting for
// the goroutines both sides started.
func (r *rig) teardown() {
	for _, c := range r.clients {
		if c.v != nil {
			c.close()
		}
	}
	r.dep.close()
}

// mine returns driver d's clients: a static split, so a view only ever has
// one request outstanding. Reserve workloads deal clients out round-robin.
// The session mix deals out whole conflict groups (see spec.groupAffine).
func (r *rig) mine(d int) []*client {
	var out []*client
	for i, c := range r.clients {
		if r.driverOf(i) == d {
			out = append(out, c)
		}
	}
	return out
}

// driverOf returns the driver that owns client i.
func (r *rig) driverOf(i int) int {
	if r.spec.groupAffine {
		i /= r.spec.viewsPerGroup
	}
	return i % r.drivers
}

// drive runs body once per driver goroutine and folds the tallies.
func (r *rig) drive(body func(d int, mine []*client, ct *counters)) counters {
	cts := make([]counters, r.drivers)
	var wg sync.WaitGroup
	for d := 0; d < r.drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			body(d, r.mine(d), &cts[d])
		}(d)
	}
	wg.Wait()
	var sum counters
	for _, c := range cts {
		sum.add(c)
	}
	r.total.add(sum)
	return sum
}

// warm runs a fixed number of closed-loop ops, untimed.
func (r *rig) warm(n int) {
	per := n / r.drivers
	r.drive(func(d int, mine []*client, ct *counters) {
		for i := 0; i < per; i++ {
			mine[i%len(mine)].step(ct)
		}
	})
}

// snapshot is the set of whole-process and wire counters read at a phase
// boundary, all through public accessors.
type snapshot struct {
	cpu     time.Duration
	mallocs uint64
	server  transport.WireStatsSnapshot
	clients transport.WireStatsSnapshot
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *rig) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{cpu: cpuTime(), mallocs: ms.Mallocs, server: r.dep.snet.WireStats(), clients: r.net.wireStats()}
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	ops       counters
	windows   []float64 // ops/s per window
	opsPerSec float64   // median window
	before    snapshot
	after     snapshot
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// closed drives the system closed-loop for dur: every driver issues its
// next op as soon as the previous one completes. Rate is the median of
// `windows` equal windows; the per-op costs are counter deltas over the
// whole phase divided by the ops it completed.
func (r *rig) closed(dur time.Duration, windows int) closedResult {
	var done atomic.Int64
	var stop atomic.Bool
	res := closedResult{before: r.snapshot()}
	start := time.Now()
	sampled := make(chan []float64, 1)
	go func() {
		win := dur / time.Duration(windows)
		rates := make([]float64, 0, windows)
		prev, prevT := int64(0), start
		for w := 1; w <= windows; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w) * win)))
			now, n := time.Now(), done.Load()
			rates = append(rates, float64(n-prev)/now.Sub(prevT).Seconds())
			prev, prevT = n, now
		}
		stop.Store(true)
		sampled <- rates
	}()
	res.ops = r.drive(func(d int, mine []*client, ct *counters) {
		for i := 0; !stop.Load(); i++ {
			mine[i%len(mine)].step(ct)
			done.Add(1)
		}
	})
	res.after = r.snapshot()
	res.windows = <-sampled
	res.opsPerSec = median(res.windows)
	return res
}

// pacedResult is what the paced (open-schedule) phase measured.
type pacedResult struct {
	ops     counters
	latency []float64 // µs, due time → completion
	// lag is how late the generator itself ran, in µs: due time → actual
	// start, over the ops whose driver was idle when they came due. An op
	// that waited for the driver's previous op was delayed by the system,
	// not by the generator; that wait is already in its latency.
	lag []float64
}

// paced offers ops on a fixed schedule: op k is due at start + k/rate and
// belongs to driver k mod drivers. A driver that is behind starts its next
// op immediately, and every op is timed from when it was due, so a stall
// is charged to every op it delayed. The op count is fixed by the schedule
// (rate × dur), not by how fast the system is.
func (r *rig) paced(rate float64, dur time.Duration) pacedResult {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]float64, n)
	lags := make([][]float64, r.drivers)
	start := time.Now().Add(time.Millisecond)
	ops := r.drive(func(d int, mine []*client, ct *counters) {
		pace, err := newPacer()
		if err != nil {
			ct.firstErr = err
			ct.failed++
			return
		}
		defer pace.close()
		for k, i := d, 0; k < n; k, i = k+r.drivers, i+1 {
			due := start.Add(time.Duration(k) * interval)
			idle := time.Now().Before(due)
			if err := pace.sleepUntil(due); err != nil && ct.firstErr == nil {
				ct.firstErr = err
			}
			begun := time.Now()
			mine[i%len(mine)].step(ct)
			lat[k] = float64(time.Since(due)) / 1e3
			if idle {
				lags[d] = append(lags[d], float64(begun.Sub(due))/1e3)
			}
		}
	})
	res := pacedResult{ops: ops, latency: lat}
	for _, l := range lags {
		res.lag = append(res.lag, l...)
	}
	return res
}

// quantile returns the q-quantile (nearest rank) of v; v is sorted in
// place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// heapLiveMiB forces a collection and returns the live heap.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
