package main

import (
	"fmt"
	"sort"
	"time"
)

// endToEnd sets the user-visible metrics. Loss and query errors also set
// the run's attempted and failed counts.
func (win *window) endToEnd(rep *report, p *pipeline, resync [][]float64) {
	a, b := win.a, win.b
	c := p.chk
	c.mu.Lock()
	ages := c.ages
	win.foldSizes = append([]float64(nil), c.foldSizes...)
	mixed := c.mixedFolds
	c.mu.Unlock()
	written, _, excluded, lost, firstLost := c.delivery(p.leaves, win.tick0, win.tick1)
	samples := float64(b.samples - a.samples)

	rep.set("sample_age_p50_ms", quantile(ages, 0.5), "ms")
	rep.set("sample_age_p99_ms", quantile(ages, 0.99), "ms")
	rep.set("cpu_us_per_sample", ratio(float64((b.cpu-a.cpu).Nanoseconds())/1e3, samples), "us")
	rep.set("wire_bytes_per_sample", ratio(float64(b.bytesIn-a.bytesIn), samples), "B")
	rep.set("peak_rss_mb", peakRSSBytes()/(1<<20), "MiB")
	// Resync quantiles are taken per episode (one set-up or churn cycle,
	// 1024 sets each), then the median across episodes.
	var r50, r99 []float64
	nResync := 0
	for _, e := range resync {
		r50 = append(r50, quantile(e, 0.5))
		r99 = append(r99, quantile(e, 0.99))
		nResync += len(e)
	}
	rep.set("resync_p50_ms", median(r50), "ms")
	rep.set("resync_p99_ms", median(r99), "ms")
	// The rest is printed but not among BENCHMARK.json's metrics. Loss and
	// query errors are 0 on a correct run, and they make up failed and
	// attempted. Only store-dense-query sends queries (see NOTES.md).
	rep.set("sample_loss_frac", ratio(float64(lost), float64(written-excluded)), "frac")
	for i, v := range win.sliceCPU() {
		rep.set(fmt.Sprintf("cpu_us_per_sample.slice%d", i), v, "us")
	}
	q := win.q
	if q.sent > 0 {
		rep.set("query_p50_ms", quantile(q.latMs, 0.5), "ms")
		rep.set("query_p99_ms", quantile(q.latMs, 0.99), "ms")
		rep.set("query_error_frac", ratio(float64(q.failed), float64(q.sent)), "frac")
		rep.set("query_late_p99_ms", quantile(q.lateMs, 0.99), "ms")
		rep.set("queries_sent", float64(q.sent), "count")
	}
	rep.set("gc_cycles", float64(b.rt.gcCycles-a.rt.gcCycles), "count")
	rep.set("gc_cpu_s", b.rt.gcCPU-a.rt.gcCPU, "s")
	rep.set("age_samples", float64(len(ages)), "count")
	rep.set("resync_samples", float64(nResync), "count")
	rep.set("resync_episodes", float64(len(resync)), "count")
	rep.set("samples_written", float64(written), "count")
	rep.set("samples_excluded_resync", float64(excluded), "count")
	rep.set("churn_cycles", float64(win.cycles), "count")
	rep.set("partial_folds", float64(mixed), "count")

	rep.attempted = written - excluded + q.sent
	rep.failed = lost + q.failed
	if lost > 0 {
		rep.problem("%d of %d samples written in the window never reached the top store intact, first %v", lost, written-excluded, firstLost)
	}
	if q.failed > 0 {
		rep.problem("%d of %d queries failed: %v", q.failed, q.sent, q.errs)
	}
	if written == 0 || len(ages) == 0 || (p.w.queryRate > 0 && q.sent == 0) || nResync == 0 {
		rep.problem("empty window: %d samples, %d ages, %d queries, %d resyncs", written, len(ages), q.sent, nResync)
	}
}

// bounds lists the window's slice boundaries, start and end included.
func (win *window) bounds() []cut {
	out := []cut{{at: win.a.at, cpu: win.a.cpu, samples: win.a.samples}}
	out = append(out, win.cuts...)
	return append(out, cut{at: win.b.at, cpu: win.b.cpu, samples: win.b.samples})
}

// sliceCPU is the CPU time per leaf sample in each slice, in microseconds.
func (win *window) sliceCPU() []float64 {
	bs := win.bounds()
	var out []float64
	for i := 1; i < len(bs); i++ {
		out = append(out, ratio(float64((bs[i].cpu-bs[i-1].cpu).Nanoseconds())/1e3, float64(bs[i].samples-bs[i-1].samples)))
	}
	return out
}

// perLayer sets the traced run's per-layer metrics. Span timings and the
// transport byte counts come from the traced half of the window (and, for
// dir and lookup, from set-up); counters cover the whole window; the Go
// runtime's figures come from the untraced half.
func (win *window) perLayer(rep *report, p *pipeline, tr *tracer) {
	a, m, b := win.a, win.mid, win.b
	spans := tr.reduce()
	durs := func(name string, scale float64) []float64 {
		ls := spans[name]
		if ls == nil {
			return nil
		}
		out := make([]float64, len(ls.Durs))
		for i, d := range ls.Durs {
			out[i] = d / scale
		}
		return out
	}
	rep.set("metric.set_values_ns.p50", quantile(durs("metric.set_values", 1), 0.5), "ns")

	ub := durs("transport.update_batch", 1e3)
	rep.set("transport.update_batch_us.p50", quantile(ub, 0.5), "us")
	rep.set("transport.update_batch_us.p99", quantile(ub, 0.99), "us")
	ops := float64(b.mx.ops - a.mx.ops + b.tx.ops - a.tx.ops)
	ok := float64(b.mx.opsOK - a.mx.opsOK + b.tx.opsOK - a.tx.opsOK)
	rep.set("transport.ops_per_batch", ratio(ops, float64(b.mx.batches-a.mx.batches+b.tx.batches-a.tx.batches)), "count")
	rep.set("transport.delta_frac", ratio(float64(b.mx.deltaOps-a.mx.deltaOps+b.tx.deltaOps-a.tx.deltaOps), ok), "frac")
	var updBytes, tracedOps, connBytes, tracedLUs int64
	for _, x := range []*benchXprt{p.midX, p.topX} {
		updBytes += x.n.updateBytes.Load()
		tracedOps += x.n.tracedOps.Load()
		connBytes += x.n.connectBytes.Load()
		tracedLUs += x.n.tracedLUs.Load()
	}
	rep.set("transport.bytes_per_update", ratio(float64(updBytes), float64(tracedOps)), "B")
	rep.set("transport.dir_us.p50", quantile(durs("transport.dir", 1e3), 0.5), "us")
	rep.set("transport.dirgen_us.p50", quantile(durs("transport.dirgen", 1e3), 0.5), "us")
	lu := durs("transport.lookup", 1e3)
	rep.set("transport.lookup_us.p50", quantile(lu, 0.5), "us")
	rep.set("transport.lookup_us.p99", quantile(lu, 0.99), "us")
	rep.set("transport.connect_bytes_per_set", ratio(float64(connBytes), float64(tracedLUs)), "B")
	rep.set("transport.op_errors", float64(b.mx.opErrors-a.mx.opErrors+b.tx.opErrors-a.tx.opErrors), "count")
	rep.set("transport.server_updates", float64(b.srvUpd-a.srvUpd), "count")
	rep.set("transport.server_delta_frac", ratio(float64(b.srvDelta-a.srvDelta), float64(b.srvUpd-a.srvUpd)), "frac")

	rep.set("ldmsd.pass_us.mid", median(win.passMid), "us")
	rep.set("ldmsd.pass_us.top", median(win.passTop), "us")
	d := func(f func(s snapshot) int64) float64 { return float64(f(b) - f(a)) }
	rep.set("ldmsd.skipped_busy", d(func(s snapshot) int64 { return s.midSt.UpdatesSkippedBusy + s.topSt.UpdatesSkippedBusy }), "count")
	rep.set("ldmsd.stale_frac", ratio(
		d(func(s snapshot) int64 { return s.midSt.UpdatesStale + s.topSt.UpdatesStale }),
		d(func(s snapshot) int64 { return s.midSt.Updates + s.topSt.Updates })), "frac")
	rep.set("ldmsd.update_errors", d(func(s snapshot) int64 { return s.midSt.UpdateErrors + s.topSt.UpdateErrors }), "count")

	rep.set("tier.folds", float64(b.folds-a.folds), "count")
	rep.set("tier.members_per_fold", mean(win.foldSizes), "count")

	sb := durs("store.batch", 1e3)
	rep.set("store.batch_us.p50", quantile(sb, 0.5), "us")
	rep.set("store.batch_us.p99", quantile(sb, 0.99), "us")
	rows := float64(b.rows - a.rows)
	rep.set("store.rows_per_batch", ratio(rows, float64(b.batches-a.batches)), "count")
	rep.set("store.flush_ms.p50", quantile(durs("store.flush", 1e6), 0.5), "ms")
	rep.set("store.bytes_per_row", ratio(float64(b.storeBytes-a.storeBytes), rows), "B")
	rep.set("store.queue_depth_max", float64(win.queueMax), "count")
	rep.set("store.dropped", float64(b.drops-a.drops), "count")

	q := win.q
	rep.set("query.window_query_us.p50", quantile(q.directUs, 0.5), "us")
	rep.set("query.window_query_us.p99", quantile(q.directUs, 0.99), "us")
	rep.set("query.http_overhead_us", median(q.serviceUs)-median(q.directUs), "us")
	rep.set("query.window_bytes_per_point", win.windowBytesPerPoint, "B")

	rep.set("mmgr.arena_bytes.mid", float64(win.arenaMid), "B")
	rep.set("mmgr.arena_bytes.top", float64(win.arenaTop), "B")

	untraced := float64(m.samples - a.samples)
	rep.set("runtime.alloc_bytes_per_sample", ratio(float64(m.rt.allocBytes-a.rt.allocBytes), untraced), "B")
	rep.set("runtime.gc_cpu_frac", ratio(m.rt.gcCPU-a.rt.gcCPU, m.rt.totalCPU-a.rt.totalCPU), "frac")
	rep.set("runtime.goroutines_delta", float64(win.goroutinesDelta), "count")

	cpuUntraced := ratio(float64(m.cpu-a.cpu), untraced)
	cpuTraced := ratio(float64(b.cpu-m.cpu), float64(b.samples-m.samples))
	rep.set("bench.trace_overhead_frac", ratio(cpuTraced, cpuUntraced)-1, "frac")

	// Per-layer span totals: count, busy and self time over the run.
	for _, name := range sortedKeys(spans) {
		ls := spans[name]
		fmt.Printf("span %-28s count %8d busy %10.3fms self %10.3fms\n", name, ls.Count,
			float64(ls.BusyNs)/float64(time.Millisecond), float64(ls.SelfNs)/float64(time.Millisecond))
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
