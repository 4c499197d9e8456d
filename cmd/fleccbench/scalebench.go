package main

// The scale experiment (E18): commit throughput of the directory at one
// execution lane against eight (Options.Lanes). G disjoint conflict
// groups × W writers per group hammer one directory manager with
// conflicting pushes over the in-process transport; each group's views
// share a property range no other group touches, so the lane table routes
// them to independent execution lanes. The lanes8 rows report
// speedup_vs_lanes1 against the one-lane run at the same G.
//
// Both rows run the same commit path — conflict inputs from a keyed
// extract of just the conflicting keys, codec calls outside every lock —
// so the ratio measures lane parallelism alone: what is gained by letting
// disjoint groups' commits overlap instead of queueing on one lane.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// incomingWins is the bench resolver: the pushed value always wins, but
// its presence forces every conflicting commit through a keyed extract of
// the primary's side.
func incomingWins(c image.Conflict) (image.Entry, error) {
	return c.Theirs, nil
}

const (
	scaleKeysPerGroup = 192 // seeded keys per conflict group
	scaleWindow       = 8   // keys per pushed delta
)

// scaleRun drives one configuration and returns total commits and the
// wall-clock the pushes took.
func scaleRun(groups, writersPerGroup, opsPerWriter, lanes int) (int, time.Duration, error) {
	net := transport.NewInproc()
	dm, err := directory.New("dm", newBenchKV(), vclock.NewReal(), net, directory.Options{
		Resolver: incomingWins,
		Lanes:    lanes,
	})
	if err != nil {
		return 0, 0, err
	}
	defer dm.Close()

	// Register every writer; group g's views all share property P{g} and
	// no other group's, so groups are mutually disjoint conflict groups.
	type writer struct {
		name  string
		ep    transport.Endpoint
		props property.Set
		group int
	}
	var ws []*writer
	for g := 0; g < groups; g++ {
		props := property.MustSet(fmt.Sprintf("P%d={0..9}", g))
		for w := 0; w < writersPerGroup; w++ {
			name := fmt.Sprintf("g%dw%d", g, w)
			ep, err := net.Attach(name, func(req *wire.Message) *wire.Message {
				return &wire.Message{Type: wire.TAck}
			})
			if err != nil {
				return 0, 0, err
			}
			reply, err := ep.Call("dm", &wire.Message{
				Type: wire.TRegister, From: name, Props: props, Mode: wire.Weak,
			})
			if err != nil {
				return 0, 0, err
			}
			if reply.Type == wire.TErr {
				return 0, 0, fmt.Errorf("register %s: %s", name, reply.Err)
			}
			ws = append(ws, &writer{name: name, ep: ep, props: props, group: g})
		}
	}

	// Seed each group's key space from the primary (writer ""), so every
	// push against base version 0 is a detected conflict and exercises
	// the resolution path.
	for g := 0; g < groups; g++ {
		props := property.MustSet(fmt.Sprintf("P%d={0..9}", g))
		delta := image.New(props.Clone())
		for k := 0; k < scaleKeysPerGroup; k++ {
			delta.Put(image.Entry{Key: fmt.Sprintf("g%d:k%03d", g, k), Value: []byte("seed")})
		}
		if _, err := dm.CommitLocal(delta, 1); err != nil {
			return 0, 0, err
		}
	}

	push := func(w *writer, i int) error {
		delta := image.New(w.props.Clone())
		base := (i * scaleWindow) % scaleKeysPerGroup
		for k := 0; k < scaleWindow; k++ {
			delta.Put(image.Entry{
				Key:   fmt.Sprintf("g%d:k%03d", w.group, (base+k)%scaleKeysPerGroup),
				Value: []byte("v"),
			})
		}
		reply, err := w.ep.Call("dm", &wire.Message{Type: wire.TPush, From: w.name, Img: delta, Ops: 1})
		if err != nil {
			return err
		}
		if reply.Type == wire.TErr {
			return fmt.Errorf("push %s: %s", w.name, reply.Err)
		}
		return nil
	}

	// Warm the lane table and the caches outside the timed window.
	for _, w := range ws {
		if err := push(w, 0); err != nil {
			return 0, 0, err
		}
	}

	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	start := time.Now()
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w *writer) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				if err := push(w, i+1); err != nil {
					errs[wi] = err
					return
				}
			}
		}(wi, w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return len(ws) * opsPerWriter, elapsed, nil
}

func runScaleBenchmarks(agents, ops int) ([]wireBenchResult, error) {
	writersPerGroup := 2
	if agents > 0 {
		writersPerGroup = agents
	}
	opsPerWriter := 150
	if ops > 0 {
		opsPerWriter = ops
	}

	var out []wireBenchResult
	for _, groups := range []int{1, 2, 4, 8} {
		var oneLaneCPS float64
		for _, lanes := range []int{1, 8} {
			commits, elapsed, err := scaleRun(groups, writersPerGroup, opsPerWriter, lanes)
			if err != nil {
				return nil, fmt.Errorf("scale g=%d lanes=%d: %w", groups, lanes, err)
			}
			cps := float64(commits) / elapsed.Seconds()
			extra := map[string]float64{
				"groups":          float64(groups),
				"writers":         float64(groups * writersPerGroup),
				"commits_per_sec": cps,
			}
			if lanes == 1 {
				oneLaneCPS = cps
			} else if oneLaneCPS > 0 {
				extra["speedup_vs_lanes1"] = cps / oneLaneCPS
			}
			out = append(out, wireBenchResult{
				Name:    fmt.Sprintf("scale_commit/lanes%d_g%d", lanes, groups),
				N:       commits,
				NsPerOp: float64(elapsed.Nanoseconds()) / float64(commits),
				Extra:   extra,
			})
		}
	}
	return out, nil
}

// runScale executes the scale benchmark set; with jsonOut non-empty the
// report is written there as JSON (BENCH_scale.json by default), otherwise
// a text table goes to stdout.
func runScale(jsonOut string, agents, ops int) error {
	rows, err := runScaleBenchmarks(agents, ops)
	if err != nil {
		return err
	}
	report := wireBenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Results:   rows,
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", jsonOut, len(report.Results))
		return nil
	}
	fmt.Printf("%-26s %12s %16s %10s\n", "benchmark", "ns/commit", "commits/s", "speedup")
	for _, r := range report.Results {
		speed := ""
		if s, ok := r.Extra["speedup_vs_lanes1"]; ok {
			speed = fmt.Sprintf("%.2fx", s)
		}
		fmt.Printf("%-26s %12.0f %16.0f %10s\n", r.Name, r.NsPerOp, r.Extra["commits_per_sec"], speed)
	}
	return nil
}
