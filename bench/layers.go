package main

import (
	"time"

	"flecc/internal/metrics"
	"flecc/internal/wire"
)

// metric is one named measurement with its unit, as printed.
type metric struct {
	name  string
	value float64
	unit  string
}

// liveCounters are the layers' own public counters, read before and after
// the traced phase so per-op figures cover exactly that phase.
type liveCounters struct {
	fanoutNs            int64
	versions, conflicts int64
	epochs              uint64
	routed              int64
	batches             int64
	invalidations       int64
	serverMsgs          int64
}

func (r *rig) liveCounters() liveCounters {
	var c liveCounters
	for _, dm := range r.dep.managers() {
		_, _, fanout := dm.Latencies()
		c.fanoutNs += fanout.TotalNs()
		c.versions += int64(dm.CurrentVersion())
		c.conflicts += int64(dm.Store().ConflictsSeen())
		c.epochs += dm.Registry().Epoch()
	}
	if r.dep.stats != nil {
		c.routed = r.dep.stats.Total()
	}
	if r.dep.repl != nil {
		c.batches = r.dep.repl.BatchesShipped()
	}
	for _, cl := range r.clients {
		c.invalidations += int64(cl.invalidations)
		if cl.v != nil {
			c.invalidations += int64(cl.v.agent.CM.Invalidations())
		}
	}
	if r.tr != nil {
		c.serverMsgs = r.tr.serverMsgs.Load()
	}
	return c
}

// weightedQuantile combines per-shard histograms: the count-weighted mean
// of each shard's quantile (exact with one directory).
func weightedQuantile(hs []*metrics.Latency, q float64) float64 {
	var sum, n float64
	for _, h := range hs {
		c := float64(h.Count())
		sum += c * float64(h.Quantile(q)) / 1e3
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// layerInputs is everything the per-layer budget is computed from.
type layerInputs struct {
	rig           *rig
	spans         []span
	from, to      int64 // the traced phase, in tracer time
	phase         closedResult
	before, after liveCounters
	ref           closedResult // the undecorated reference deployment's closed phase
	paced         pacedResult  // and its paced phase
	baseOpsPerSec float64      // untraced rate of the unreplicated twin (replicated workloads)
}

// layerMetrics turns the traced run into the per-layer budget. `_per_op`
// figures are a layer's summed span time over the phase divided by the ops
// the phase completed, so parallel drivers need no per-request
// attribution; a layer's self time is its spans minus the interval its
// children cover.
func layerMetrics(in layerInputs) []metric {
	r, s := in.rig, in.rig.spec
	ops := float64(in.phase.ops.attempted)
	if ops == 0 {
		ops = 1
	}
	var sumNs [numSpanKinds]float64
	var count [numSpanKinds]float64
	durs := make([][]float64, numSpanKinds)
	var cmUnderCache float64
	var replBytes, extractEntries []float64
	var dmPulls, dmPushes []float64 // µs inside a directory manager, by request type
	dmKind := kServe
	if s.shards > 1 {
		dmKind = kShardHop
	}
	serveDur := map[uint64]int64{} // kServe id → duration, for the router's own share
	var hops []span
	for _, sp := range in.spans {
		if sp.start < in.from || sp.end > in.to {
			continue
		}
		d := float64(sp.dur())
		sumNs[sp.kind] += d
		count[sp.kind]++
		durs[sp.kind] = append(durs[sp.kind], d/1e3)
		if sp.kind == dmKind {
			switch wire.Type(sp.detail) {
			case wire.TPull:
				dmPulls = append(dmPulls, d/1e3)
			case wire.TPush:
				dmPushes = append(dmPushes, d/1e3)
			}
		}
		switch sp.kind {
		case kCMExtract, kCMMerge:
			if sp.detail == underCache {
				cmUnderCache += d
			}
		case kReplShip:
			replBytes = append(replBytes, float64(sp.n))
		case kServe:
			if s.shards > 1 {
				serveDur[sp.id] = sp.dur()
			}
		case kShardHop:
			hops = append(hops, sp)
		}
	}
	for _, e := range r.tr.extracts {
		extractEntries = append(extractEntries, float64(e.n))
	}
	perOp := func(ns float64) float64 { return ns / 1e3 / ops }
	q := func(k spanKind, p float64) float64 { return quantile(durs[k], p) }
	cacheNs := sumNs[kCachePull] + sumNs[kCachePush] + sumNs[kCacheSetMode] + sumNs[kCacheOpen] + sumNs[kCacheClose]

	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// cache: spans around the benchmark's calls into cache.Manager.
	add("cache.pull_p50_us", q(kCachePull, 0.50), "us")
	add("cache.pull_p99_us", q(kCachePull, 0.99), "us")
	add("cache.push_p50_us", q(kCachePush, 0.50), "us")
	add("cache.push_p99_us", q(kCachePush, 0.99), "us")
	add("cache.setmode_p50_us", q(kCacheSetMode, 0.50), "us")
	add("cache.open_p50_us", q(kCacheOpen, 0.50), "us")
	add("cache.close_p50_us", q(kCacheClose, 0.50), "us")
	add("cache.op_p99_us", q(kOp, 0.99), "us")
	add("cache.self_us_per_op", perOp(cacheNs-sumNs[kRTT]-sumNs[kDial]-cmUnderCache), "us")
	add("cache.retries_per_op", float64(in.phase.ops.retries)/ops, "count")
	add("cache.invalidations_per_op", float64(in.after.invalidations-in.before.invalidations)/ops, "count")
	add("cache.handler_us_per_op", perOp(sumNs[kHandler]), "us")

	// transport: client round trips against server service time, and the
	// write path's own counters.
	wireDelta := addWire(subWire(in.phase.after.server, in.phase.before.server), subWire(in.phase.after.clients, in.phase.before.clients))
	add("transport.rtt_p50_us", q(kRTT, 0.50), "us")
	add("transport.hop_us_per_op", perOp(sumNs[kRTT]+sumNs[kDial]-sumNs[kServe]), "us")
	add("transport.frames_per_flush", ratio(float64(wireDelta.Frames), float64(wireDelta.Flushes)), "count")
	add("transport.flushes_per_op", float64(wireDelta.Flushes)/ops, "count")
	add("transport.late_replies", float64(wireDelta.LateReplies), "count")

	// wire: captured messages replayed through Encode/Decode.
	wr := replayWire(r.tr.msgs)
	msgsPerOp := float64(in.after.serverMsgs-in.before.serverMsgs) / ops
	add("wire.encode_ns_per_msg", wr.encodeNs, "ns")
	add("wire.decode_ns_per_msg", wr.decodeNs, "ns")
	add("wire.allocs_per_msg", wr.allocs, "count")
	add("wire.bytes_per_msg_p50", wr.bytesP50, "bytes")
	add("wire.bytes_per_msg_p99", wr.bytesP99, "bytes")
	add("wire.us_per_op", (wr.encodeNs+wr.decodeNs)*msgsPerOp/1e3, "us")

	// shard: the router's share of a served request.
	var routeUs []float64
	for _, h := range hops {
		if d, ok := serveDur[h.parent]; ok {
			routeUs = append(routeUs, float64(d-h.dur())/1e3)
		}
	}
	serviceNs := sumNs[kServe] // time inside the directory manager(s)
	var shardSelf, imbalance, failovers float64
	if s.shards > 1 {
		serviceNs = sumNs[kShardHop]
		shardSelf = perOp(sumNs[kServe] - sumNs[kShardHop])
		var max, total float64
		per := r.dep.stats.PerShard()
		for _, n := range per {
			total += float64(n)
			if float64(n) > max {
				max = float64(n)
			}
		}
		imbalance = ratio(max*float64(s.shards), total)
		failovers = float64(r.dep.svc.Router().Failovers())
	}
	add("shard.route_us_p50", quantile(routeUs, 0.50), "us")
	add("shard.self_us_per_op", shardSelf, "us")
	add("shard.routed_msgs_per_op", float64(in.after.routed-in.before.routed)/ops, "count")
	add("shard.imbalance", imbalance, "ratio")
	add("shard.failovers", failovers, "count")

	// directory: the server observer's request spans plus the managers'
	// own fan-out histogram. Fan-out legs run in parallel, so the interval
	// they cover is taken from that histogram's total, not from their sum
	// (its quantiles are bucketed: fanout_p50 moves in steps).
	var fanouts []*metrics.Latency
	var evictions, logLen float64
	for _, dm := range r.dep.managers() {
		_, _, fanout := dm.Latencies()
		fanouts = append(fanouts, fanout)
		evictions += float64(dm.ViewsEvicted())
		logLen += float64(len(dm.Store().Log()))
	}
	fanoutNs := float64(in.after.fanoutNs - in.before.fanoutNs)
	dirSelf := serviceNs - fanoutNs - sumNs[kDMExtract] - sumNs[kDMMerge] - sumNs[kResolve] - sumNs[kReplShip]
	if dirSelf < 0 {
		dirSelf = 0
	}
	add("directory.pull_p50_us", quantile(dmPulls, 0.50), "us")
	add("directory.pull_p99_us", quantile(dmPulls, 0.99), "us")
	add("directory.push_p50_us", quantile(dmPushes, 0.50), "us")
	add("directory.push_p99_us", quantile(dmPushes, 0.99), "us")
	add("directory.fanout_p50_us", weightedQuantile(fanouts, 0.50), "us")
	add("directory.fanout_us_per_op", perOp(fanoutNs), "us")
	add("directory.fanout_calls_per_op", count[kLeg]/ops, "count")
	add("directory.self_us_per_op", perOp(dirSelf), "us")
	add("directory.commits_per_op", float64(in.after.versions-in.before.versions)/ops, "count")
	add("directory.evictions", evictions, "count")

	// store: captured deltas and pulls replayed through a fresh Store.
	sr := replayStore(s, r.tr.commits, r.tr.extracts)
	add("store.commit_us_per_call", sr.commitUs, "us")
	add("store.extract_us_per_call", sr.extractUs, "us")
	add("store.extract_entries_p50", quantile(extractEntries, 0.50), "count")
	add("store.conflicts_per_op", float64(in.after.conflicts-in.before.conflicts)/ops, "count")
	add("store.log_len_end", logLen, "count")

	// registry: the workload's property sets replayed into a fresh one.
	rr := replayRegistry(s)
	add("registry.conflict_query_ns", rr.queryNs, "ns")
	add("registry.matches_per_query", rr.matches, "count")
	add("registry.register_ns", rr.registerNs, "ns")
	add("registry.epoch_bumps_per_op", float64(in.after.epochs-in.before.epochs)/ops, "count")

	// image: the decorated conflict resolver.
	add("image.resolves_per_op", count[kResolve]/ops, "count")
	add("image.resolve_us_per_op", perOp(sumNs[kResolve]), "us")

	// airline: the decorated primary and view codecs.
	add("airline.dm_extract_us_per_op", perOp(sumNs[kDMExtract]), "us")
	add("airline.dm_merge_us_per_op", perOp(sumNs[kDMMerge]), "us")
	add("airline.dm_extract_calls_per_op", count[kDMExtract]/ops, "count")
	add("airline.cm_extract_us_per_op", perOp(sumNs[kCMExtract]), "us")
	add("airline.cm_merge_us_per_op", perOp(sumNs[kCMMerge]), "us")

	// repl: the decorated primary→standby link and the replicator's
	// accessors (zero without a standby, except the capture cost, which
	// any directory would pay).
	var degraded, lag, slowdown float64
	if r.dep.repl != nil {
		degraded = float64(r.dep.repl.DegradedBarriers())
		lag = float64(r.dep.repl.Lag())
		slowdown = ratio(in.baseOpsPerSec, in.ref.opsPerSec)
	}
	add("repl.batches_per_op", float64(in.after.batches-in.before.batches)/ops, "count")
	add("repl.rtt_p50_us", q(kReplShip, 0.50), "us")
	add("repl.us_per_op", perOp(sumNs[kReplShip]), "us")
	add("repl.batch_bytes_p50", quantile(replBytes, 0.50), "bytes")
	add("repl.capture_us_per_call", captureCost(r.dep.managers()[0]), "us")
	add("repl.degraded_barriers", degraded, "count")
	add("repl.lag_end", lag, "count")
	add("repl.slowdown_x", slowdown, "x")

	// Speed, measured on the undecorated reference deployment. On a shared
	// two-core box no time repeats within a bound the benchmark could hold
	// a change to (README, "Measured noise"), so throughput, CPU per op and
	// paced latency are reported here, ungated, instead of end to end.
	refOps := float64(in.ref.ops.attempted)
	add("ops_per_s", in.ref.opsPerSec, "ops/s")
	add("cpu_us_per_op", ratio(float64(in.ref.after.cpu-in.ref.before.cpu)/1e3, refOps), "us")
	add("paced_p50_us", quantile(in.paced.latency, 0.50), "us")
	add("paced_p95_us", quantile(in.paced.latency, 0.95), "us")

	// bench: the generator itself.
	add("bench.sched_lag_p99_us", quantile(in.paced.lag, 0.99), "us")
	add("bench.trace_overhead_frac", 1-ratio(in.phase.opsPerSec, in.ref.opsPerSec), "frac")
	add("bench.unattributed_frac", 1-ratio(cacheNs, sumNs[kOp]), "frac")
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd assembles the end-to-end metrics of an untraced run: the costs
// that repeat run to run (counts, live heap) and the set-up time.
func endToEnd(setups []time.Duration, heapMiB float64, c closedResult) []metric {
	ops := float64(c.ops.attempted)
	if ops == 0 {
		ops = 1
	}
	fastest := setups[0]
	for _, d := range setups[1:] {
		if d < fastest {
			fastest = d
		}
	}
	server := subWire(c.after.server, c.before.server)
	clients := subWire(c.after.clients, c.before.clients)
	both := addWire(server, clients)
	return []metric{
		{"allocs_per_op", float64(c.after.mallocs-c.before.mallocs) / ops, "count"},
		{"msgs_per_op", float64(both.Frames) / ops, "count"},
		{"wire_bytes_per_op", float64(both.Bytes) / ops, "bytes"},
		{"heap_live_mb", heapMiB, "MiB"},
		{"setup_s", fastest.Seconds(), "s"},
	}
}
