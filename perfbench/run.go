package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"goldms/internal/ldmsd"
	"goldms/internal/transport"
)

// run builds the pipeline w.setups times, measures the last one for
// rc.seconds, tears everything down and checks it.
func run(rc runConfig) (*report, error) {
	w := rc.w
	if err := os.MkdirAll(rc.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	baseG, baseFD := runtime.NumGoroutine(), openFDs()
	vf := w.values(rc.seed)
	rep := newReport()
	var tr *tracer
	if rc.traced {
		// Set-up runs traced too: it is where dir and lookup happen.
		tr = newTracer()
		tr.enabled.Store(true)
	}
	churn := w.churnEvery > 0
	var setupS []float64
	var resync [][]float64 // per episode
	var p *pipeline
	for i := 0; i < w.setups; i++ {
		sleepUntil(nextGridPhase(time.Now(), w.interval, time.Millisecond))
		t0 := time.Now()
		p, err = buildPipeline(w, vf, dir, tr, !churn)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		done, err := p.waitFresh(30 * time.Second)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, done.Sub(t0).Seconds())
		if i < w.setups-1 {
			p.finish(rep)
			resync = append(resync, p.chk.episodes()...)
			// Hand the torn-down pipeline's memory back before the next
			// build, so peak_rss_mb is one pipeline's peak, not the
			// garbage of earlier set-ups stacked under it.
			debug.FreeOSMemory()
		}
	}
	win := measure(rc, p, rep, tr)
	p.finish(rep)
	if extraG, extraFD := settleGoroutines(baseG, baseFD, 5*time.Second); extraG > 0 || extraFD > 0 {
		rep.problem("teardown left %d goroutines and %d descriptors above baseline", extraG, extraFD)
	}
	win.goroutinesDelta = runtime.NumGoroutine() - baseG
	resync = append(resync, p.chk.episodes()...)

	rep.set("setup_s", median(setupS), "s")
	win.endToEnd(rep, p, resync)
	if rc.traced {
		win.perLayer(rep, p, tr)
		if err := tr.writeSpans(rc.spansPath()); err != nil {
			rep.problem("writing spans: %v", err)
		}
	}
	return rep, nil
}

// sleepUntil sleeps until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// nextGridPhase is the first instant after now that lies phase past a
// multiple of interval since the unix epoch, the grid synchronous
// updaters fire on.
func nextGridPhase(now time.Time, interval, phase time.Duration) time.Time {
	iv := interval.Nanoseconds()
	at := (now.UnixNano()/iv)*iv + phase.Nanoseconds()
	for at <= now.UnixNano() {
		at += iv
	}
	return time.Unix(0, at)
}

// ceilTick is the first grid tick at or after t.
func ceilTick(t time.Time, interval time.Duration) uint64 {
	iv := interval.Nanoseconds()
	return uint64((t.UnixNano() + iv - 1) / iv)
}

// xcount is one tier's wrapper counters at an instant.
type xcount struct{ batches, ops, opsOK, deltaOps, opErrors int64 }

func (f *benchXprt) counts() xcount {
	n := &f.n
	return xcount{n.batches.Load(), n.ops.Load(), n.opsOK.Load(), n.deltaOps.Load(), n.opErrors.Load()}
}

// snapshot holds every cumulative counter the metrics difference.
type snapshot struct {
	at                time.Time
	cpu               time.Duration
	samples           int64
	rt                runtimeSnap
	midSt, topSt      ldmsd.Stats
	bytesIn           int64 // received by the mid and top producers
	srvUpd, srvDelta  int64 // served by the leaves
	mx, tx            xcount
	folds             uint64
	rows, batches     int64 // through the store wrapper
	storeBytes, drops int64
}

func (p *pipeline) snap() snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTime(), rt: takeRuntimeSnap(), samples: p.samples()}
	for _, l := range p.leaves {
		st := l.srv.Stats()
		s.srvUpd += st.Updates
		s.srvDelta += st.DeltaUpdates
	}
	s.midSt, s.topSt = p.mid.Stats(), p.top.Stats()
	s.bytesIn = p.transportTotals(p.mid).BytesIn + p.transportTotals(p.top).BytesIn
	s.mx, s.tx = p.midX.counts(), p.topX.counts()
	if u := p.mid.Updater("u"); u != nil {
		if _, _, st, ok := u.ReduceStatus(); ok {
			s.folds = st.Folds
		}
	}
	s.rows, s.batches = p.sink.rows.Load(), p.sink.batches.Load()
	for _, schema := range p.w.storedSchemas() {
		sp := p.top.StoragePolicy(schema)
		s.drops += sp.Counters().Dropped
		if st := sp.Store(); st != nil {
			s.storeBytes += st.BytesWritten()
		}
	}
	return s
}

// samples counts the leaf samples written so far.
func (p *pipeline) samples() int64 {
	var n int64
	for _, l := range p.leaves {
		n += l.samples.Load()
	}
	return n
}

// sliceLen is the target length of the slices an untraced window is cut
// into. Each slice's CPU per sample is printed beside cpu_us_per_sample, so
// a burst inside the window shows. It is a multiple of every workload's
// interval and churn period.
const sliceLen = 5 * time.Second

// cut is the CPU and sample count at a slice boundary.
type cut struct {
	at      time.Time
	cpu     time.Duration
	samples int64
}

// producers names the producers a daemon pulls from.
func (p *pipeline) producers(d *ldmsd.Daemon) []string {
	if d == p.top {
		return []string{"mid"}
	}
	var out []string
	for i := range p.leaves {
		out = append(out, fmt.Sprintf("leaf%d", i))
	}
	return out
}

// transportTotals sums a daemon's producer transport counters.
func (p *pipeline) transportTotals(d *ldmsd.Daemon) transport.ConnStats {
	var sum transport.ConnStats
	for _, name := range p.producers(d) {
		if pr := d.Producer(name); pr != nil {
			sum.Add(pr.Counters().Transport)
		}
	}
	return sum
}

// window is what the measured window recorded.
type window struct {
	a, mid, b       snapshot // window start, traced-half start, window end
	cuts            []cut    // slice boundaries inside an untraced window
	tick0, tick1    uint64   // ticks written in the window: [tick0, tick1)
	q               *queryResult
	passMid         []float64
	passTop         []float64
	cycles, missed  int
	goroutinesDelta int
	foldSizes       []float64
	queueMax        int64
	// Read at the window's end, while the top tier still runs.
	windowBytesPerPoint float64
	arenaMid, arenaTop  int
}

// measure runs the query client (and the churn loop) over the measured
// window, then waits for the window's samples to land.
func measure(rc runConfig, p *pipeline, rep *report, tr *tracer) *window {
	w := rc.w
	win := &window{}
	// Warm up for at least a second, then start on a grid boundary, so the
	// slices hold whole intervals and churn cycles fall at the same grid
	// phase in every run. No collection is forced here: the window pays
	// for the collector's cycles like any other cost.
	sleepUntil(nextGridPhase(time.Now().Add(time.Second), w.interval, 0))
	if tr != nil {
		tr.enabled.Store(false)
	}
	if w.churnEvery > 0 {
		p.chk.mu.Lock()
		p.chk.keepResync = true
		p.chk.mu.Unlock()
	}
	p.chk.setMeasuring(true)
	rep.set("peak_rss_setup_mb", peakRSSBytes()/(1<<20), "MiB")
	win.a = p.snap()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	win.q = &queryResult{}
	if w.queryRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.q = runQueries(ctx, p, newQueryGen(w, rc.seed), w.queryRate, tr, win.a.at)
		}()
	}
	var churnErr error
	if w.churnEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.cycles, win.missed, churnErr = p.churn(ctx)
		}()
	}
	if rc.traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.passMid, win.passTop = p.samplePasses(ctx)
		}()
		time.Sleep(rc.seconds / 2)
		win.mid = p.snap()
		tr.enabled.Store(true)
		time.Sleep(rc.seconds - rc.seconds/2)
	} else {
		n := max(1, int((rc.seconds+sliceLen/2)/sliceLen))
		for i := 1; i < n; i++ {
			sleepUntil(win.a.at.Add(rc.seconds * time.Duration(i) / time.Duration(n)))
			win.cuts = append(win.cuts, cut{at: time.Now(), cpu: cpuTime(), samples: p.samples()})
		}
		sleepUntil(win.a.at.Add(rc.seconds))
	}
	win.b = p.snap()
	if wnd := p.top.Window(); wnd != nil {
		st := wnd.Stats()
		win.windowBytesPerPoint = ratio(float64(st.Bytes), float64(st.Points))
	}
	win.arenaMid, win.arenaTop = p.mid.Arena().Stats().InUse, p.top.Arena().Stats().InUse
	if tr != nil {
		tr.enabled.Store(false)
	}
	cancel()
	wg.Wait()
	p.chk.setMeasuring(false)
	if churnErr != nil {
		rep.problem("churn: %v", churnErr)
	}
	if win.missed > 0 {
		rep.problem("%d of %d churn cycles began before every set had resynced", win.missed, win.cycles)
	}
	if _, err := p.waitFresh(20 * time.Second); err != nil {
		rep.problem("resync after the window: %v", err)
	}
	win.tick0, win.tick1 = ceilTick(win.a.at, w.interval), ceilTick(win.b.at, w.interval)
	// The window's last tick reaches the top store one top-tier pass
	// after it is written; allow a further interval for slow passes.
	sleepUntil(tickTime(win.tick1-1, w.interval).Add(w.topOffset + w.interval + 200*time.Millisecond))
	win.queueMax = p.sink.queueMax.Load()
	return win
}

// churn cycles prdcr_stop and prdcr_start on both leaves every churnEvery,
// at a phase of the grid where neither tier is pulling.
func (p *pipeline) churn(ctx context.Context) (cycles, missed int, err error) {
	phase := p.w.interval * 9 / 10
	next := time.Now().Add(p.w.churnEvery / 2)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		at := nextGridPhase(next, p.w.interval, phase)
		timer.Reset(time.Until(at))
		select {
		case <-ctx.Done():
			return cycles, missed, nil
		case <-timer.C:
		}
		if p.chk.pending() > 0 {
			missed++
		}
		p.chk.startEpisode()
		for i := range p.leaves {
			if err := p.stopLeaf(i); err != nil {
				return cycles, missed, err
			}
		}
		for i := range p.leaves {
			if err := p.startLeaf(i); err != nil {
				return cycles, missed, err
			}
		}
		cycles++
		next = at.Add(p.w.churnEvery)
	}
}

// samplePasses polls updtr_status on both tiers and collects each new
// pass's last_pass_us.
func (p *pipeline) samplePasses(ctx context.Context) (mid, top []float64) {
	var lastMid, lastTop int64
	ticker := time.NewTicker(max(p.w.interval/2, 20*time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return mid, top
		case <-ticker.C:
		}
		if n, us, ok := passStatus(p.mid); ok && n != lastMid {
			lastMid = n
			mid = append(mid, us)
		}
		if n, us, ok := passStatus(p.top); ok && n != lastTop {
			lastTop = n
			top = append(top, us)
		}
	}
}

// passStatus reads the pass count and the last pass's duration from a
// daemon's updtr_status line.
func passStatus(d *ldmsd.Daemon) (passes int64, lastUs float64, ok bool) {
	st, err := d.Exec("updtr_status")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(st, "\n")
	var havePasses, haveUs bool
	for _, f := range strings.Fields(line) {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "passes":
			passes, err = strconv.ParseInt(v, 10, 64)
			havePasses = err == nil
		case "last_pass_us":
			var n int64
			n, err = strconv.ParseInt(v, 10, 64)
			lastUs, haveUs = float64(n), err == nil
		}
	}
	return passes, lastUs, havePasses && haveUs
}

// finish quiesces the pipeline, reconciles the benchmark's counts with the
// daemons' own counters, tears it down, and checks what was stored.
func (p *pipeline) finish(rep *report) {
	if err := p.quiesce(); err != nil {
		rep.problem("quiesce: %v", err)
	}
	p.reconcileTransport(rep)
	topFresh := p.top.Stats().UpdatesFresh
	midFresh := p.mid.Stats().UpdatesFresh
	var policies []*ldmsd.StoragePolicy
	for _, schema := range p.w.storedSchemas() {
		policies = append(policies, p.top.StoragePolicy(schema))
	}
	var written int64
	for _, l := range p.leaves {
		written += l.samples.Load()
	}
	p.top.Stop()
	p.mid.Stop()

	var rows, enqueued, dropped int64
	for _, sp := range policies {
		c := sp.Counters()
		rows += c.Rows
		enqueued += c.Enqueued
		dropped += c.Dropped
		if err := sp.Err(); err != nil {
			rep.problem("storage policy %s failed: %v", sp.Name(), err)
		}
	}
	seen := p.sink.rows.Load()
	stored := p.top.Stats().StoredRows
	csv, err := p.csvRows()
	if err != nil {
		rep.problem("reading the CSV: %v", err)
	}
	if seen != rows || rows != stored || csv != rows || dropped != 0 {
		rep.problem("store rows: wrapper %d, policy %d, daemon %d, CSV lines %d, dropped %d", seen, rows, stored, csv, dropped)
	}
	if topFresh != enqueued {
		rep.problem("top tier: %d fresh pulls but %d rows enqueued", topFresh, enqueued)
	}
	if midFresh > written {
		rep.problem("mid tier: %d fresh pulls of %d samples written", midFresh, written)
	}
	p.chk.mu.Lock()
	if p.chk.bad > 0 {
		rep.problem("%d stored rows failed their checks: %s", p.chk.bad, strings.Join(p.chk.errs, "; "))
	}
	if !p.w.reduce && p.chk.rows > midFresh {
		rep.problem("top store holds %d rows but the mid tier pulled %d fresh samples", p.chk.rows, midFresh)
	}
	p.chk.mu.Unlock()
	p.close()
}

// reconcileTransport checks, with no pull in flight, that the wrapper's
// operation counts equal each tier's producer counters, and that what the
// leaves and the mid tier served equals what their pullers received.
func (p *pipeline) reconcileTransport(rep *report) {
	for _, tier := range []struct {
		name string
		d    *ldmsd.Daemon
		x    *benchXprt
	}{{"mid", p.mid, p.midX}, {"top", p.top, p.topX}} {
		got := tier.x.counts()
		want := p.transportTotals(tier.d)
		if got.batches != want.Batches || got.ops != want.BatchedOps || got.opsOK != want.Updates || got.deltaOps != want.DeltaUpdates {
			rep.problem("%s transport: wrapper batches/ops/ok/delta %d/%d/%d/%d, producers %d/%d/%d/%d",
				tier.name, got.batches, got.ops, got.opsOK, got.deltaOps,
				want.Batches, want.BatchedOps, want.Updates, want.DeltaUpdates)
		}
	}
	for i, l := range p.leaves {
		srv := l.srv.Stats()
		c := p.mid.Producer(fmt.Sprintf("leaf%d", i)).Counters().Transport
		if srv.Updates != c.Updates || srv.DeltaUpdates != c.DeltaUpdates {
			rep.problem("leaf%d served %d updates (%d delta), the mid tier received %d (%d delta)",
				i, srv.Updates, srv.DeltaUpdates, c.Updates, c.DeltaUpdates)
		}
	}
	srv := p.mid.ServerStats()
	c := p.transportTotals(p.top)
	if srv.Updates != c.Updates || srv.DeltaUpdates != c.DeltaUpdates {
		rep.problem("mid served %d updates (%d delta), the top tier received %d (%d delta)",
			srv.Updates, srv.DeltaUpdates, c.Updates, c.DeltaUpdates)
	}
}
