package ldmsd

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"goldms/internal/obs"
	"goldms/internal/query"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// virtualRunResult is everything a virtual-clock pipeline run must
// reproduce bit-for-bit: daemon stats, the control-interface updater
// status (including pass timing), all three hop-latency histograms, the
// recent-window contents, and the stored CSV rows.
type virtualRunResult struct {
	stats       Stats
	updtrStatus string
	pull        obs.HistSnapshot
	window      obs.HistSnapshot
	store       obs.HistSnapshot
	series      []query.Series
	csv         string
	// deltaUpdates counts pulls the transport answered with a delta rather
	// than a full chunk — proof of which wire path a run exercised.
	deltaUpdates int64
}

// virtualPipelineRun drives a full sampler → aggregator → window/store
// pipeline for 20 simulated seconds on a fresh virtual clock and
// collects every observable output. compress selects the recent
// window's storage mode; the codec is lossless on raw value bits, so
// served results must not depend on it. noDelta is the full-chunk
// reference: every pull moves a full data chunk, and since the delta codec
// is exact, nothing downstream of the transport may differ.
func virtualPipelineRun(t *testing.T, compress, noDelta bool) virtualRunResult {
	t.Helper()
	sch := sched.NewVirtual(time.Unix(90000, 0))
	net := transport.NewNetwork()

	smp := virtualSampler(t, "n1", sch, net, 1)
	defer smp.Stop()
	sp, err := smp.LoadSampler("meminfo", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp.Start(time.Second, 0, false)

	agg, err := New(Options{
		Name:        "agg",
		Scheduler:   sch,
		Transports:  []transport.Factory{transport.MemFactory{Net: net, NoDelta: noDelta}},
		JournalSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()
	// The gateway creates the recent window; started before any update
	// pass so both runs observe from the first sample.
	if _, err := agg.ServeHTTP(GatewayConfig{Addr: "127.0.0.1:0", Compress: compress}); err != nil {
		t.Fatal(err)
	}

	csvPath := filepath.Join(t.TempDir(), "out.csv")
	if _, err := agg.ExecScript(`
prdcr_add name=n1 xprt=mem host=n1 interval=1s
prdcr_start name=n1
updtr_add name=u1 interval=1s
updtr_prdcr_add name=u1 prdcr=n1
updtr_start name=u1
strgp_add name=s1 plugin=store_csv schema=meminfo container=` + csvPath + `
strgp_start name=s1
`); err != nil {
		t.Fatal(err)
	}

	sch.AdvanceBy(20 * time.Second)

	res := virtualRunResult{stats: agg.Stats()}
	res.deltaUpdates = agg.Producer("n1").Counters().Transport.DeltaUpdates
	if res.updtrStatus, err = agg.Exec("updtr_status"); err != nil {
		t.Fatal(err)
	}
	lat := agg.Latency()
	res.pull = lat.Pull.Snapshot()
	res.window = lat.Window.Snapshot()
	res.store = lat.Store.Snapshot()

	w := agg.Window()
	if w == nil {
		t.Fatal("gateway created no recent window")
	}
	res.series = w.Query("MemFree", 0, time.Unix(0, 0))

	agg.Stop() // drain and flush the store pipeline before reading the file
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	res.csv = string(data)
	return res
}

// TestVirtualRunDeterministic is the regression test for the wall-clock
// sweep: two identical virtual-clock daemon runs must produce identical
// latency histograms, window contents, stored rows, and status output.
// Before the sweep, Query's retention floor, the storage policy's
// store/flush stamps, and the updater's pass timing all read time.Now
// and differed run to run.
func TestVirtualRunDeterministic(t *testing.T) {
	a := virtualPipelineRun(t, false, false)
	b := virtualPipelineRun(t, false, false)

	// The runs exercise the delta protocol, not just full chunks: after the
	// first pull of each set, every steady-state pull is a delta.
	if a.deltaUpdates == 0 {
		t.Fatal("virtual pipeline moved no delta updates")
	}
	if a.deltaUpdates != b.deltaUpdates {
		t.Errorf("delta updates differ: %d vs %d", a.deltaUpdates, b.deltaUpdates)
	}

	// The runs must be non-trivial or determinism is vacuous.
	if a.pull.Count == 0 || a.window.Count == 0 || a.store.Count == 0 {
		t.Fatalf("latency hops empty: pull=%d window=%d store=%d",
			a.pull.Count, a.window.Count, a.store.Count)
	}
	if a.stats.UpdatesFresh == 0 || a.stats.StoredRows == 0 {
		t.Fatalf("pipeline idle: fresh=%d stored=%d", a.stats.UpdatesFresh, a.stats.StoredRows)
	}
	if len(a.series) == 0 || len(a.series[0].Points) == 0 {
		t.Fatal("recent window served no MemFree points")
	}
	if a.csv == "" {
		t.Fatal("store_csv wrote no rows")
	}
	// Pass timing is measured on the scheduler clock, which does not
	// advance inside a synchronous virtual pass.
	if !strings.Contains(a.updtrStatus, "last_pass_us=0") {
		t.Errorf("virtual pass timing leaked wall time: %s", a.updtrStatus)
	}

	if a.stats != b.stats {
		t.Errorf("stats differ:\n run1: %+v\n run2: %+v", a.stats, b.stats)
	}
	if a.updtrStatus != b.updtrStatus {
		t.Errorf("updtr_status differs:\n run1: %s\n run2: %s", a.updtrStatus, b.updtrStatus)
	}
	if a.pull != b.pull {
		t.Errorf("pull-hop histograms differ:\n run1: %+v\n run2: %+v", a.pull, b.pull)
	}
	if a.window != b.window {
		t.Errorf("window-hop histograms differ:\n run1: %+v\n run2: %+v", a.window, b.window)
	}
	if a.store != b.store {
		t.Errorf("store-hop histograms differ:\n run1: %+v\n run2: %+v", a.store, b.store)
	}
	if !reflect.DeepEqual(a.series, b.series) {
		t.Errorf("window series differ:\n run1: %+v\n run2: %+v", a.series, b.series)
	}
	if a.csv != b.csv {
		t.Errorf("stored CSV rows differ:\n run1:\n%s\n run2:\n%s", a.csv, b.csv)
	}
}

// TestVirtualRunDeterministicCompressed pins two properties of the
// compressed window: two compressed runs are byte-identical, and —
// because Gorilla encoding is lossless on the raw 64-bit value
// representation — a compressed run serves exactly the same series,
// rows and histograms as an uncompressed one.
func TestVirtualRunDeterministicCompressed(t *testing.T) {
	plain := virtualPipelineRun(t, false, false)
	c1 := virtualPipelineRun(t, true, false)
	c2 := virtualPipelineRun(t, true, false)

	if len(c1.series) == 0 || len(c1.series[0].Points) == 0 {
		t.Fatal("compressed window served no MemFree points")
	}
	if !reflect.DeepEqual(c1.series, c2.series) {
		t.Errorf("compressed runs serve different series:\n run1: %+v\n run2: %+v", c1.series, c2.series)
	}
	if c1.csv != c2.csv {
		t.Errorf("compressed runs stored different CSV rows:\n run1:\n%s\n run2:\n%s", c1.csv, c2.csv)
	}
	if c1.stats != c2.stats {
		t.Errorf("compressed runs differ in stats:\n run1: %+v\n run2: %+v", c1.stats, c2.stats)
	}
	if !reflect.DeepEqual(plain.series, c1.series) {
		t.Errorf("compression changed served series:\n plain: %+v\n compressed: %+v", plain.series, c1.series)
	}
	if plain.csv != c1.csv {
		t.Errorf("compression changed stored rows:\n plain:\n%s\n compressed:\n%s", plain.csv, c1.csv)
	}
	if plain.window != c1.window {
		t.Errorf("compression changed the window-hop histogram:\n plain: %+v\n compressed: %+v", plain.window, c1.window)
	}
}

// TestVirtualRunDeltaEquivalence pins the delta protocol's exactness at the
// system level: a pipeline pulling deltas and a pipeline pulling only full
// chunks (the reference) must produce byte-identical windows, stored rows,
// histograms and status output — the wire encoding may never leak into what
// the daemon observes.
func TestVirtualRunDeltaEquivalence(t *testing.T) {
	delta := virtualPipelineRun(t, false, false)
	full := virtualPipelineRun(t, false, true)

	if delta.deltaUpdates == 0 {
		t.Fatal("delta run moved no delta updates")
	}
	if full.deltaUpdates != 0 {
		t.Fatalf("full-chunk run moved %d delta updates", full.deltaUpdates)
	}
	if delta.stats != full.stats {
		t.Errorf("stats differ:\n delta: %+v\n full:  %+v", delta.stats, full.stats)
	}
	if delta.updtrStatus != full.updtrStatus {
		t.Errorf("updtr_status differs:\n delta: %s\n full:  %s", delta.updtrStatus, full.updtrStatus)
	}
	if delta.pull != full.pull {
		t.Errorf("pull-hop histograms differ:\n delta: %+v\n full:  %+v", delta.pull, full.pull)
	}
	if !reflect.DeepEqual(delta.series, full.series) {
		t.Errorf("window series differ:\n delta: %+v\n full:  %+v", delta.series, full.series)
	}
	if delta.csv != full.csv {
		t.Errorf("stored CSV rows differ:\n delta:\n%s\n full:\n%s", delta.csv, full.csv)
	}
}
