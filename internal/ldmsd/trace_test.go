package ldmsd

import (
	"strings"
	"testing"
	"time"

	"goldms/internal/obs"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// threeTierTraceRun drives a leaf sampler → mid aggregator → top
// aggregator pipeline on a fresh virtual clock and returns the top
// tier's rendered trace output (spans plus chains) along with the
// daemons for extra assertions. The caller must Stop the daemons.
func threeTierTraceRun(t *testing.T) (topOut, midOut string, leaf, mid, top *Daemon) {
	t.Helper()
	sch := sched.NewVirtual(time.Unix(95000, 0))
	net := transport.NewNetwork()
	fac := transport.MemFactory{Net: net}

	leaf = virtualSampler(t, "n1", sch, net, 1)
	sp, err := leaf.LoadSampler("meminfo", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp.Start(time.Second, 0, false)

	mid = tierAgg(t, "mid", sch, fac, []string{"n1"}, `
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=n1
updtr_start name=u
`)
	if _, err := mid.Listen("mem", "mid"); err != nil {
		t.Fatal(err)
	}
	top = tierAgg(t, "top", sch, fac, []string{"mid"}, `
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=mid
updtr_start name=u
`)

	sch.AdvanceBy(10 * time.Second)

	if topOut, err = top.Exec("trace chains=1"); err != nil {
		t.Fatal(err)
	}
	if midOut, err = mid.Exec("trace chains=1"); err != nil {
		t.Fatal(err)
	}
	return topOut, midOut, leaf, mid, top
}

// TestTierTraceThreeTier pins per-hop attribution across a full
// three-tier topology: the top tier's chain for the leaf's set is three
// hops deep — n1(leaf) -> mid(mid) -> top(top) — and the top's span
// recorder holds sample-age summaries for every tier below it.
func TestTierTraceThreeTier(t *testing.T) {
	topOut, midOut, leaf, mid, top := threeTierTraceRun(t)
	defer leaf.Stop()
	defer mid.Stop()
	defer top.Stop()

	chains := top.Chains()
	if len(chains) != 1 || chains[0].Set != "n1/meminfo" {
		t.Fatalf("top chains = %+v", chains)
	}
	hops := chains[0].Hops
	if len(hops) != 3 {
		t.Fatalf("chain depth = %d, want 3: %+v", len(hops), hops)
	}
	want := []struct {
		daemon string
		role   obs.HopRole
	}{{"n1", obs.RoleLeaf}, {"mid", obs.RoleMid}, {"top", obs.RoleTop}}
	for i, w := range want {
		if hops[i].Daemon != w.daemon || hops[i].Role != w.role {
			t.Errorf("hop %d = %s(%s), want %s(%s)",
				i, hops[i].Daemon, hops[i].Role, w.daemon, w.role)
		}
	}
	// The leaf's hop is a bare identity stamp (its local sets never pass
	// through an aggregation stage); the aggregator hops carry pull times.
	if hops[0].Pull != 0 || hops[0].Store != 0 {
		t.Errorf("leaf hop carries stage stamps: %+v", hops[0])
	}
	if hops[1].Pull == 0 || hops[2].Pull == 0 {
		t.Errorf("aggregator hops missing pull stamps: mid=%+v top=%+v", hops[1], hops[2])
	}

	// The top's span recorder attributes age per hop daemon: its own pull
	// stage plus the mid's pull stage observed from the wire.
	spans := top.Spans()
	var sawMid, sawTop bool
	for _, s := range spans {
		switch {
		case s.Daemon == "mid" && s.Role == obs.RoleMid && s.Stage == obs.StagePull:
			sawMid = s.Count > 0
		case s.Daemon == "top" && s.Role == obs.RoleTop && s.Stage == obs.StagePull:
			sawTop = s.Count > 0
		}
	}
	if !sawMid || !sawTop {
		t.Errorf("top spans missing hops (mid=%v top=%v): %+v", sawMid, sawTop, spans)
	}
	if n := top.TraceDecodeErrors(); n != 0 {
		t.Errorf("top counted %d trace decode errors", n)
	}

	// Rendered control output is non-trivial.
	if !strings.Contains(topOut, "depth=3") || !strings.Contains(topOut, "n1(leaf)->mid(mid)->top(top)") {
		t.Errorf("top trace output:\n%s", topOut)
	}
	if !strings.Contains(midOut, "depth=2") {
		t.Errorf("mid trace output:\n%s", midOut)
	}
}

// TestTierTraceDeterministic replays the three-tier run on a fresh
// virtual clock: the rendered trace output — every hop stamp, span
// quantile and chain — must be byte-identical across replays.
func TestTierTraceDeterministic(t *testing.T) {
	top1, mid1, l1, m1, t1 := threeTierTraceRun(t)
	l1.Stop()
	m1.Stop()
	t1.Stop()
	top2, mid2, l2, m2, t2 := threeTierTraceRun(t)
	l2.Stop()
	m2.Stop()
	t2.Stop()

	if top1 != top2 {
		t.Errorf("top trace output differs across replays:\n run1:\n%s\n run2:\n%s", top1, top2)
	}
	if mid1 != mid2 {
		t.Errorf("mid trace output differs across replays:\n run1:\n%s\n run2:\n%s", mid1, mid2)
	}
	if top1 == "" {
		t.Error("trace output empty; determinism is vacuous")
	}
}

// TestTierTraceLegacyPeer models a leaf whose server has no trace hook
// next to a traced one: the untraced set's chain restarts at the
// aggregator (depth 1) while the traced set keeps its origin hop, and
// nothing counts as a decode error.
func TestTierTraceLegacyPeer(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(96000, 0))
	net := transport.NewNetwork()
	fac := transport.MemFactory{Net: net}

	// Untraced peer: a bare transport server with no trace hook, so every
	// update response carries an empty trace block.
	legacyReg := leafRegistry(t, 1, 100, sch.Now())
	if _, err := fac.Listen("legacy", transport.NewServer(legacyReg)); err != nil {
		t.Fatal(err)
	}

	traced := virtualSampler(t, "n2", sch, net, 2)
	defer traced.Stop()
	sp, err := traced.LoadSampler("meminfo", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp.Start(time.Second, 0, false)

	agg := tierAgg(t, "agg", sch, fac, []string{"legacy", "n2"}, `
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=legacy
updtr_prdcr_add name=u prdcr=n2
updtr_start name=u
`)
	defer agg.Stop()

	sch.AdvanceBy(5 * time.Second)

	depths := map[string]int{}
	for _, c := range agg.Chains() {
		depths[c.Set] = len(c.Hops)
	}
	if depths["legacy/node00"] != 1 {
		t.Errorf("legacy set chain depth = %d, want 1 (untraced peer)", depths["legacy/node00"])
	}
	if depths["n2/meminfo"] != 2 {
		t.Errorf("traced set chain depth = %d, want 2", depths["n2/meminfo"])
	}
	if n := agg.TraceDecodeErrors(); n != 0 {
		t.Errorf("legacy interop counted %d decode errors", n)
	}
}

// TestTierTraceReduction checks that a reduced set inherits the chain of
// its newest contributing member and stamps the reduce stage on the
// aggregator's hop.
func TestTierTraceReduction(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(97000, 0))
	net := transport.NewNetwork()
	fac := transport.MemFactory{Net: net}

	for _, name := range []string{"n1", "n2"} {
		d := virtualSampler(t, name, sch, net, 1)
		defer d.Stop()
		sp, err := d.LoadSampler("meminfo", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		sp.Start(time.Second, 0, false)
	}

	mid := tierAgg(t, "mid", sch, fac, []string{"n1", "n2"}, `
updtr_add name=u interval=1s reduce=max export=reduced
updtr_prdcr_add name=u prdcr=n1
updtr_prdcr_add name=u prdcr=n2
updtr_start name=u
`)
	defer mid.Stop()

	sch.AdvanceBy(5 * time.Second)

	var reduced *obs.ChainSnapshot
	for _, c := range mid.Chains() {
		if strings.HasSuffix(c.Set, "_max") {
			cc := c
			reduced = &cc
			break
		}
	}
	if reduced == nil {
		t.Fatalf("no reduced chain published: %+v", mid.Chains())
	}
	last := reduced.Hops[len(reduced.Hops)-1]
	if last.Daemon != "mid" || last.Reduce == 0 {
		t.Fatalf("reduced chain's local hop missing reduce stamp: %+v", reduced.Hops)
	}
	// The inherited origin hop is one of the contributing leaves.
	if len(reduced.Hops) != 2 || (reduced.Hops[0].Daemon != "n1" && reduced.Hops[0].Daemon != "n2") {
		t.Fatalf("reduced chain = %+v, want leaf origin + mid", reduced.Hops)
	}
}
