package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"goldms/internal/metric"
)

// setState is one leaf set's history as seen at the top store.
type setState struct {
	lastTick  uint64
	have      bool
	delivered []uint64    // ticks stored, ascending
	gaps      [][2]uint64 // open tick ranges excluded as resync gaps
	pending   bool        // waiting for the first fresh row since startAt
	startAt   time.Time   // when prdcr_start for this set's producer returned
}

// foldGroup collects the rows one mid-tier fold produced, one per op.
type foldGroup struct {
	rows    [4][]metric.Value
	got     int
	minAt   time.Time // arrival of the min row
	measure bool      // the min row arrived inside the measured window
}

// aggExpect is the fold of one value column over every set at one tick.
type aggExpect struct {
	min, max, sum uint64
	avg           float64
}

// checker verifies everything that reaches the top tier's store and
// gateway against the seeded value function, and accounts delivery, sample
// age and resync time. Store-pool goroutines and the query client call it
// concurrently.
type checker struct {
	w        workload
	vf       valueFn
	interval time.Duration

	mu         sync.Mutex
	sets       []setState
	folds      map[int64]*foldGroup
	fullTicks  map[uint64]bool
	lastFold   uint64
	mixedFolds int // folds in the window not covering one tick of every set
	aggCache   map[[2]uint64]aggExpect
	measuring  bool
	ages       []float64 // ms, rows arriving while measuring
	foldSizes  []float64 // members per complete fold, while measuring
	keepResync bool
	resyncs    [][]float64 // ms, per episode: one set-up or churn cycle
	lastFresh  time.Time   // arrival of the latest first-fresh row
	rows       int64       // rows handed to the store wrapper
	bad        int64       // rows (or folds) failing a check
	errs       []string
}

func newChecker(w workload, vf valueFn) *checker {
	return &checker{
		w:         w,
		vf:        vf,
		interval:  w.interval,
		sets:      make([]setState, nSets),
		folds:     make(map[int64]*foldGroup),
		fullTicks: make(map[uint64]bool),
		aggCache:  make(map[[2]uint64]aggExpect),
	}
}

// failLocked records one failed check. Caller holds c.mu.
func (c *checker) failLocked(format string, args ...any) {
	c.bad++
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// startEpisode begins a new resync episode: a set-up or a churn cycle.
func (c *checker) startEpisode() {
	c.mu.Lock()
	c.resyncs = append(c.resyncs, nil)
	c.mu.Unlock()
}

// episodes returns the resync times of every episode that has any.
func (c *checker) episodes() [][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]float64
	for _, e := range c.resyncs {
		if len(e) > 0 {
			out = append(out, append([]float64(nil), e...))
		}
	}
	return out
}

// markStart notes that prdcr_start for leaf li returned at t: each of its
// sets is pending until a row written after t reaches the top store.
func (c *checker) markStart(li int, t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s := li * setsPerLeaf; s < (li+1)*setsPerLeaf; s++ {
		c.sets[s].pending = true
		c.sets[s].startAt = t
	}
}

// pending counts sets still waiting for their first fresh row.
func (c *checker) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.sets {
		if c.sets[i].pending {
			n++
		}
	}
	return n
}

func (c *checker) setMeasuring(on bool) {
	c.mu.Lock()
	c.measuring = on
	c.mu.Unlock()
}

// resolveLocked ends set s's pending state when a row it contributed to,
// written at writtenNs and holding tick t, arrived at arr. Caller holds c.mu.
func (c *checker) resolveLocked(s int, t, writtenNs uint64, arr time.Time) {
	st := &c.sets[s]
	if !st.pending || int64(writtenNs) <= st.startAt.UnixNano() {
		return
	}
	st.pending = false
	if c.keepResync && len(c.resyncs) > 0 {
		last := len(c.resyncs) - 1
		c.resyncs[last] = append(c.resyncs[last], float64(arr.Sub(st.startAt).Nanoseconds())/1e6)
	}
	if st.have && t > st.lastTick+1 {
		st.gaps = append(st.gaps, [2]uint64{st.lastTick, t})
	}
	if arr.After(c.lastFresh) {
		c.lastFresh = arr
	}
}

// colMap locates the stored columns of one schema.
type colMap struct {
	tick, written, one, count int
	vals                      []int // value-column index j per stored column, -1 for fixed ones
}

func newColMap(names []string) colMap {
	cm := colMap{tick: -1, written: -1, one: -1, count: -1, vals: make([]int, len(names))}
	for i, n := range names {
		cm.vals[i] = -1
		switch n {
		case "tick":
			cm.tick = i
		case "written_at_ns":
			cm.written = i
		case "one":
			cm.one = i
		case "reduce_count":
			cm.count = i
		default:
			if j, ok := valueIndex(n); ok {
				cm.vals[i] = j
			}
		}
	}
	return cm
}

// rawRows checks leaf rows stored at the top tier: the set and its
// component id, the timestamp against the tick, every stored value against
// the value function, and ticks strictly rising per set (no repeated or
// older sample, the paper's "no torn or stale data reaches storage").
func (c *checker) rawRows(rows []metric.Row, cm colMap, arr time.Time) {
	nowTick := tickOf(arr, c.interval)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows += int64(len(rows))
	for _, row := range rows {
		s, ok := setIndex(row.Instance)
		if !ok || s < 0 || s >= nSets {
			c.failLocked("row for unknown set %q", row.Instance)
			continue
		}
		v := row.Values
		t, written := v[cm.tick].U64(), v[cm.written].U64()
		st := &c.sets[s]
		switch {
		case v[cm.one].U64() != 1:
			c.failLocked("%s tick %d: one=%d", row.Instance, t, v[cm.one].U64())
			continue
		case row.CompID != uint64(s+1):
			c.failLocked("%s: comp_id %d", row.Instance, row.CompID)
			continue
		case !row.Time.Equal(tickTime(t, c.interval)):
			c.failLocked("%s tick %d: torn row, timestamp %s", row.Instance, t, row.Time)
			continue
		case t > nowTick:
			c.failLocked("%s: tick %d from the future (now %d)", row.Instance, t, nowTick)
			continue
		case st.have && t <= st.lastTick:
			c.failLocked("%s: tick %d stored after tick %d", row.Instance, t, st.lastTick)
			continue
		}
		if !c.valuesMatchLocked(row, cm, s, t) {
			continue
		}
		c.resolveLocked(s, t, written, arr)
		st.lastTick, st.have = t, true
		st.delivered = append(st.delivered, t)
		if c.measuring {
			c.ages = append(c.ages, float64(arr.UnixNano()-int64(written))/1e6)
		}
	}
}

func (c *checker) valuesMatchLocked(row metric.Row, cm colMap, s int, t uint64) bool {
	for i, j := range cm.vals {
		if j < 0 {
			continue
		}
		if got, want := row.Values[i].U64(), c.vf.value(s, j, t); got != want {
			c.failLocked("%s tick %d: %s=%d, want %d", row.Instance, t, row.Names[i], got, want)
			return false
		}
	}
	return true
}

// foldRows collects rows of the folded schemas; a fold is checked once
// its min, max, avg and sum rows have all arrived.
func (c *checker) foldRows(rows []metric.Row, op int, arr time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows += int64(len(rows))
	for _, row := range rows {
		key := row.Time.UnixNano()
		g := c.folds[key]
		if g == nil {
			g = &foldGroup{}
			c.folds[key] = g
		}
		if g.rows[op] != nil {
			c.failLocked("fold at %s: %s row stored twice", row.Time, foldOps[op])
			continue
		}
		g.rows[op] = append([]metric.Value(nil), row.Values...)
		g.got++
		if op == 0 {
			g.minAt, g.measure = arr, c.measuring
		}
		if g.got == len(foldOps) {
			delete(c.folds, key)
			c.checkFoldLocked(row.Time, g, row.Names)
		}
	}
}

// checkFoldLocked checks one complete fold: sum(one) equals the member
// count, avg(one) is 1, min(tick) <= max(tick) <= the current tick, and,
// when every set contributed the same tick, seeded value columns equal
// their fold over the value function.
func (c *checker) checkFoldLocked(at time.Time, g *foldGroup, names []string) {
	cm := newColMap(names)
	mn, mx, av, sm := g.rows[0], g.rows[1], g.rows[2], g.rows[3]
	count := sm[cm.count].U64()
	minT, maxT := mn[cm.tick].U64(), mx[cm.tick].U64()
	nowTick := tickOf(g.minAt, c.interval)
	switch {
	case sm[cm.one].U64() != count || mn[cm.count].U64() != count:
		c.failLocked("fold at %s: sum(one)=%d, members %d", at, sm[cm.one].U64(), count)
		return
	case av[cm.one].F64() != 1 || mn[cm.one].U64() != 1 || mx[cm.one].U64() != 1:
		c.failLocked("fold at %s: avg(one)=%g", at, av[cm.one].F64())
		return
	case minT > maxT || maxT > nowTick:
		c.failLocked("fold at %s: min(tick)=%d max(tick)=%d now %d", at, minT, maxT, nowTick)
		return
	case !at.Equal(tickTime(maxT, c.interval)):
		c.failLocked("fold at %s: timestamp is not max(tick)=%d", at, maxT)
		return
	case maxT < c.lastFold:
		c.failLocked("fold at %s: max(tick)=%d after %d", at, maxT, c.lastFold)
		return
	}
	c.lastFold = maxT
	if count != nSets || minT != maxT {
		// A fold over fewer sets (set-up) or over sets at different ticks
		// is consistent but delivers no tick whole.
		if g.measure {
			c.mixedFolds++
		}
		return
	}
	for k := 0; k < c.w.checkCols; k++ {
		j := int(hash4(c.vf.seed, minT, uint64(k), 0xc01) % uint64(c.w.nValues))
		col := -1
		for i, vj := range cm.vals {
			if vj == j {
				col = i
			}
		}
		e := c.aggLocked(minT, j)
		if mn[col].U64() != e.min || mx[col].U64() != e.max || sm[col].U64() != e.sum || av[col].F64() != e.avg {
			c.failLocked("fold tick %d %s: min/max/sum/avg %d/%d/%d/%g, want %d/%d/%d/%g",
				minT, names[col], mn[col].U64(), mx[col].U64(), sm[col].U64(), av[col].F64(), e.min, e.max, e.sum, e.avg)
			return
		}
	}
	c.fullTicks[minT] = true
	written := mn[cm.written].U64()
	for s := range c.sets {
		c.resolveLocked(s, minT, written, g.minAt)
		st := &c.sets[s]
		st.lastTick, st.have = minT, true
	}
	if g.measure {
		c.ages = append(c.ages, float64(g.minAt.UnixNano()-int64(written))/1e6)
		c.foldSizes = append(c.foldSizes, float64(count))
	}
}

// aggLocked folds value column j over every set at tick t. The sum of
// fewer than 2^11 values below 2^32 is exact in a float64, so avg is too.
func (c *checker) aggLocked(t uint64, j int) aggExpect {
	key := [2]uint64{t, uint64(j)}
	if e, ok := c.aggCache[key]; ok {
		return e
	}
	e := aggExpect{min: math.MaxUint64}
	for s := 0; s < nSets; s++ {
		v := c.vf.value(s, j, t)
		e.min = min(e.min, v)
		e.max = max(e.max, v)
		e.sum += v
	}
	e.avg = float64(e.sum) / nSets
	if len(c.aggCache) > 4096 {
		clear(c.aggCache)
	}
	c.aggCache[key] = e
	return e
}

// expected returns the value the top tier should hold for value column j
// of instance at tick t; ok is false when it cannot be known (a folded
// instance at a tick that had no complete fold).
func (c *checker) expected(instance string, j int, t uint64) (float64, bool) {
	if !c.w.reduce {
		s, ok := setIndex(instance)
		if !ok || s >= nSets {
			return 0, false
		}
		return float64(c.vf.value(s, j, t)), true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.fullTicks[t] {
		return 0, false
	}
	e := c.aggLocked(t, j)
	switch {
	case strings.HasSuffix(instance, "_min"):
		return float64(e.min), true
	case strings.HasSuffix(instance, "_max"):
		return float64(e.max), true
	case strings.HasSuffix(instance, "_avg"):
		return e.avg, true
	case strings.HasSuffix(instance, "_sum"):
		return float64(e.sum), true
	}
	return 0, false
}

// delivery counts the leaf samples written at ticks in [from, to): how
// many reached the top store, how many fell in a resync gap, how many were
// lost (never stored, or stored torn, stale or wrong).
func (c *checker) delivery(leaves []*leaf, from, to uint64) (written, delivered, excluded, lost int64, firstLost []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for li, l := range leaves {
		for _, t := range l.ticksIn(from, to) {
			for s := li * setsPerLeaf; s < (li+1)*setsPerLeaf; s++ {
				written++
				st := &c.sets[s]
				switch {
				case c.w.reduce && c.fullTicks[t]:
					delivered++
				case !c.w.reduce && hasTick(st.delivered, t):
					delivered++
				case inGap(st.gaps, t):
					excluded++
				default:
					lost++
					if len(firstLost) < 5 {
						firstLost = append(firstLost, fmt.Sprintf("%s tick %d (window ticks %d..%d)", setName(s), t, from, to-1))
					}
				}
			}
		}
	}
	return written, delivered, excluded, lost, firstLost
}

func hasTick(ticks []uint64, t uint64) bool {
	i := sort.Search(len(ticks), func(i int) bool { return ticks[i] >= t })
	return i < len(ticks) && ticks[i] == t
}

func inGap(gaps [][2]uint64, t uint64) bool {
	for _, g := range gaps {
		if t > g[0] && t < g[1] {
			return true
		}
	}
	return false
}
