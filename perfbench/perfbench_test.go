package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"goldms/internal/metric"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.values(7), w.values(7), w.values(8)
		differs := false
		for s := 0; s < nSets; s += 97 {
			if !reflect.DeepEqual(a.changedCols(s, w.nValues), b.changedCols(s, w.nValues)) {
				t.Fatalf("%s: set %d changes different columns under one seed", w.name, s)
			}
			for j := 0; j < w.nValues; j += 7 {
				for tick := uint64(1000); tick < 1030; tick++ {
					if a.value(s, j, tick) != b.value(s, j, tick) {
						t.Fatalf("%s: value(%d,%d,%d) differs under one seed", w.name, s, j, tick)
					}
					differs = differs || a.value(s, j, tick) != c.value(s, j, tick)
				}
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same values", w.name)
		}
		qa, qb, qc := newQueryGen(w, 7), newQueryGen(w, 7), newQueryGen(w, 8)
		qdiff := false
		for i := 0; i < 200; i++ {
			x, y, z := qa.next(), qb.next(), qc.next()
			if x != y {
				t.Fatalf("%s: query %d differs under one seed: %+v vs %+v", w.name, i, x, y)
			}
			qdiff = qdiff || x != z
		}
		if !qdiff {
			t.Errorf("%s: seeds 7 and 8 give the same query sequence", w.name)
		}
	}
}

// TestSparseChangeFraction checks that a sparse sample rewrites about one
// column in changeEvery, and that the value function changes exactly there.
func TestSparseChangeFraction(t *testing.T) {
	w, _ := workloadByName("fanin-sparse-reduce")
	vf := w.values(3)
	changed, total := 0, 0
	for s := 0; s < 64; s++ {
		cols := vf.changedCols(s, w.nValues)
		for tick := uint64(500); tick < 520; tick++ {
			touched := make(map[int]bool)
			for _, j := range cols[tick%w.changeEvery] {
				touched[j] = true
			}
			for j := 0; j < w.nValues; j++ {
				moved := vf.value(s, j, tick) != vf.value(s, j, tick-1)
				if moved && !touched[j] {
					t.Fatalf("set %d col %d changed at tick %d without being written", s, j, tick)
				}
			}
			changed += len(touched)
			total += w.nValues
		}
	}
	if frac := float64(changed) / float64(total); frac < 0.07 || frac > 0.13 {
		t.Errorf("sparse samples change %.3f of the columns, want about 0.1", frac)
	}
}

// rawRow builds the row the top tier should store for set s at tick.
func rawRow(w workload, vf valueFn, s int, tick uint64) metric.Row {
	sch := newSchema(w.schemaName(), w.nValues, w.longNames)
	r := metric.Row{
		Time:     tickTime(tick, w.interval),
		Instance: "leaf0/" + setName(s),
		CompID:   uint64(s + 1),
	}
	for i := 0; i < sch.Card(); i++ {
		r.Names = append(r.Names, sch.Def(i).Name)
		var v uint64
		switch i {
		case colTick:
			v = tick
		case colWritten:
			v = uint64(tickTime(tick, w.interval).UnixNano())
		case colOne:
			v = 1
		default:
			v = vf.value(s, i-nFixed, tick)
		}
		r.Values = append(r.Values, metric.U64Value(v))
	}
	return r
}

func TestChecksCatchCorruptAndDroppedRows(t *testing.T) {
	w, _ := workloadByName("store-dense-query")
	vf := w.values(5)
	base := tickOf(time.Now(), w.interval) - 10
	good := func(s int, tick uint64) metric.Row { return rawRow(w, vf, s, tick) }
	cm := newColMap(good(0, base).Names)

	c := newChecker(w, vf)
	c.rawRows([]metric.Row{good(0, base), good(0, base+1), good(1, base)}, cm, time.Now())
	if c.bad != 0 {
		t.Fatalf("correct rows failed: %v", c.errs)
	}
	corrupt := good(1, base+1)
	corrupt.Values[nFixed+5] = metric.U64Value(corrupt.Values[nFixed+5].U64() + 1)
	torn := good(2, base)
	torn.Time = tickTime(base-1, w.interval)
	c.rawRows([]metric.Row{corrupt, torn, good(0, base+1)}, cm, time.Now())
	if c.bad != 3 {
		t.Fatalf("corrupted, torn and repeated rows: %d failures, want 3: %v", c.bad, c.errs)
	}

	// Leaf 0 wrote ticks base and base+1 to all of its sets; set 0 has
	// both stored, set 1 lost base+1 to corruption, every other set
	// stored nothing: one row dropped per (set, tick).
	l := &leaf{ticks: []uint64{base, base + 1}}
	written, delivered, excluded, lost, _ := c.delivery([]*leaf{l}, base, base+2)
	if written != 2*setsPerLeaf || delivered != 3 || excluded != 0 || lost != written-3 {
		t.Errorf("delivery = %d written, %d delivered, %d excluded, %d lost", written, delivered, excluded, lost)
	}
}

func TestFoldCheckCatchesWrongSum(t *testing.T) {
	w, _ := workloadByName("fanin-sparse-reduce")
	vf := w.values(9)
	tick := tickOf(time.Now(), w.interval) - 5
	names := append(schemaNames(w), "reduce_count")
	fold := func(op int) metric.Row {
		r := metric.Row{Time: tickTime(tick, w.interval), Names: names}
		for _, n := range names {
			var v metric.Value
			switch n {
			case "tick":
				v = metric.U64Value(tick)
			case "written_at_ns":
				v = metric.U64Value(uint64(tickTime(tick, w.interval).UnixNano()))
			case "one":
				v = metric.U64Value(1)
				if op == 3 {
					v = metric.U64Value(nSets)
				}
			case "reduce_count":
				v = metric.U64Value(nSets)
			default:
				j, _ := valueIndex(n)
				c := newChecker(w, vf)
				e := c.aggLocked(tick, j)
				v = []metric.Value{metric.U64Value(e.min), metric.U64Value(e.max), metric.F64Value(e.avg), metric.U64Value(e.sum)}[op]
			}
			if op == 2 && (n == "tick" || n == "written_at_ns" || n == "one") {
				v = metric.F64Value(float64(v.U64()))
			}
			if op == 3 && n == "tick" {
				v = metric.U64Value(tick * nSets)
			}
			r.Values = append(r.Values, v)
		}
		return r
	}
	c := newChecker(w, vf)
	for op := range foldOps {
		c.foldRows([]metric.Row{fold(op)}, op, time.Now())
	}
	if c.bad != 0 || !c.fullTicks[tick] {
		t.Fatalf("correct fold rejected: %v", c.errs)
	}
	c = newChecker(w, vf)
	for op := range foldOps {
		r := fold(op)
		if op == 3 {
			for i, n := range r.Names {
				if _, ok := valueIndex(n); ok {
					r.Values[i] = metric.U64Value(r.Values[i].U64() + 1)
				}
			}
		}
		c.foldRows([]metric.Row{r}, op, time.Now())
	}
	if c.bad != 1 || c.fullTicks[tick] {
		t.Errorf("fold with a wrong sum: %d failures, full=%v", c.bad, c.fullTicks[tick])
	}
}

func schemaNames(w workload) []string {
	sch := newSchema(w.schemaName(), w.nValues, w.longNames)
	var names []string
	for i := 0; i < sch.Card(); i++ {
		names = append(names, sch.Def(i).Name)
	}
	return names
}

func TestAggregateCheckCatchesWrongSum(t *testing.T) {
	w, _ := workloadByName("store-dense-query")
	vf := w.values(4)
	c := newChecker(w, vf)
	g := newQueryGen(w, 4)
	tick := uint64(123456)
	want, _ := expectedSum(c, g, 3, tick)
	var ar aggResp
	if err := json.Unmarshal([]byte(`{"series_count":1024,"points":[{"time":"`+
		tickTime(tick, w.interval).Format(time.RFC3339Nano)+`","value":0,"count":1024}]}`), &ar); err != nil {
		t.Fatal(err)
	}
	ar.Points[0].Value = want
	if err := checkAggregate(ar, querySpec{kind: qAggregate, col: 3}, c, g); err != nil {
		t.Fatalf("correct aggregate rejected: %v", err)
	}
	ar.Points[0].Value = want + 1
	if err := checkAggregate(ar, querySpec{kind: qAggregate, col: 3}, c, g); err == nil {
		t.Error("wrong aggregate sum accepted")
	}
}

// TestShortRunEmitsEveryMetric runs each workload briefly, traced, and
// checks that every end-to-end and per-layer metric is reported with a
// unit and that every check passed.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full pipeline")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rc := runConfig{w: w, seed: 1, seconds: 3 * time.Second, traced: true, tmp: t.TempDir()}
			rep, err := run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct {
				t.Errorf("checks failed: %v", rep.problems)
			}
			for _, name := range append(append([]string(nil), endToEnd...), perLayer...) {
				m, ok := rep.metrics[name]
				if !ok || m.Unit == "" {
					t.Errorf("metric %s missing or without a unit", name)
				}
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark's own
// workload and metric lists.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, list := range []struct {
		got  []struct{ Name, Unit string }
		want []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got []string
		for _, m := range list.got {
			got = append(got, m.Name)
		}
		if !reflect.DeepEqual(got, list.want) {
			t.Errorf("metrics %v, want %v", got, list.want)
		}
	}
}
