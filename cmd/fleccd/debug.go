package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"flecc/internal/metrics"
	"flecc/internal/trace"
	"flecc/internal/transport"
)

// observability bundles the debug endpoint's data sources: the metric
// registry, the raw message trace, and the reconstructed request spans.
type observability struct {
	reg   *metrics.Registry
	rec   *trace.Recorder
	spans *trace.SpanRecorder
}

// newObservability builds the registry and attaches the wire observers
// for a running deployment. Wire-level stats, the trace recorder, and
// the span recorder register on the TCP-facing network (through Faulty
// when fault injection is on, so they see final Seq stamps).
func newObservability(name string, tnet transport.Network, d *deployment) *observability {
	o := &observability{
		reg:   metrics.NewRegistry(),
		rec:   trace.NewRecorder(2048),
		spans: trace.NewSpanRecorder(name, 256),
	}
	wireStats := metrics.NewMessageStats(false)
	if on, ok := tnet.(transport.ObservableNetwork); ok {
		on.AddObserver(wireStats)
		on.AddObserver(o.rec)
		on.AddObserver(o.spans)
	}
	o.reg.SetMessageStats(wireStats)

	dm := d.dm
	pull, push, fanout := dm.Latencies()
	o.reg.RegisterLatencyAs("pull", pull)
	o.reg.RegisterLatencyAs("push", push)
	o.reg.RegisterLatencyAs("fanout", fanout)
	o.reg.RegisterGauge("version", func() int64 { return int64(dm.CurrentVersion()) })
	o.reg.RegisterGauge("views", func() int64 { return int64(len(dm.Views())) })
	o.reg.RegisterGauge("log_len", func() int64 { return int64(dm.Store().LogLen()) })
	o.reg.RegisterGauge("views_evicted", dm.ViewsEvicted)
	o.reg.RegisterGauge("conflicts_resolved", func() int64 { return int64(dm.Store().ConflictsSeen()) })
	o.reg.RegisterGauge("claim_retries", dm.ClaimRetries)
	o.reg.RegisterGauge("grants", dm.Grants)
	o.reg.RegisterGauge("revocations", dm.Revocations)
	o.reg.RegisterGauge("grant_lease_waits", dm.GrantLeaseWaits)
	o.reg.RegisterGauge("repl_lag", func() int64 { return int64(dm.ReplLag()) })
	o.reg.RegisterGauge("repl_batches", func() int64 {
		if r := dm.Replication(); r != nil {
			return r.BatchesShipped()
		}
		return 0
	})
	o.reg.RegisterGauge("repl_degraded_barriers", func() int64 {
		if r := dm.Replication(); r != nil {
			return r.DegradedBarriers()
		}
		return 0
	})
	o.reg.RegisterGauge("repl_down", func() int64 {
		if r := dm.Replication(); r != nil && r.Degraded() {
			return 1
		}
		return 0
	})
	o.reg.RegisterGauge("ha_epoch", func() int64 { return int64(dm.Epoch()) })
	o.reg.RegisterGauge("ha_standby", func() int64 {
		if dm.Standby() {
			return 1
		}
		return 0
	})
	o.reg.RegisterGauge("ha_fenced", func() int64 {
		if dm.Fenced() {
			return 1
		}
		return 0
	})
	if d.faulty != nil {
		o.reg.RegisterGauge("faults_injected", d.faulty.Injected)
	}
	if d.snet != nil {
		// The listener's write-side counters, as the status line shows them.
		o.reg.RegisterGauge("wire_frames", func() int64 { return d.snet.WireStats().Frames })
		o.reg.RegisterGauge("wire_flushes", func() int64 { return d.snet.WireStats().Flushes })
		o.reg.RegisterGauge("wire_bytes", func() int64 { return d.snet.WireStats().Bytes })
		o.reg.RegisterGauge("wire_late_replies", func() int64 { return d.snet.WireStats().LateReplies })
	}
	o.reg.RegisterGauge("spans_completed", func() int64 { return int64(o.spans.Total()) })
	return o
}

// serveDebug starts the observability HTTP server on addr and returns
// its listener (so callers can report the bound address and close it).
//
//	/metrics        registry snapshot, text (or ?format=json)
//	/trace          raw message ring as a Figure-2 sequence diagram
//	/spans          reconstructed request spans as call trees
//	/debug/pprof/   the standard runtime profiles
func (o *observability) serveDebug(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if err := o.reg.WriteJSON(w); err != nil {
				log.Printf("fleccd: /metrics: %v", err)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := o.reg.WriteText(w); err != nil {
			log.Printf("fleccd: /metrics: %v", err)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "# %d messages observed, most recent below\n", o.rec.Total())
		fmt.Fprint(w, o.rec.String())
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "# %d spans completed, %d open, most recent below\n", o.spans.Total(), o.spans.Open())
		fmt.Fprint(w, o.spans.String())
	})
	// net/http/pprof self-registers on DefaultServeMux; mirror its
	// routes on this private mux instead of exposing the default one.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		err := srv.Serve(ln)
		// The daemon shuts the server down by closing the listener.
		if err != nil && err != http.ErrServerClosed && !errors.Is(err, net.ErrClosed) {
			log.Printf("fleccd: debug server: %v", err)
		}
	}()
	return ln, nil
}
