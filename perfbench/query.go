package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"goldms/internal/query"
)

// Query kinds of the gateway mix.
const (
	qSeriesOne = iota // /api/v1/series for one set
	qSeriesAll        // /api/v1/series across every set
	qAggregate        // /api/v1/aggregate sum per grid step
)

// querySpec is one request of the seeded mix.
type querySpec struct {
	kind int
	col  int // value column
	set  int // leaf set, for qSeriesOne on raw workloads
}

// queryGen draws the seeded request mix in blocks of twenty: ten
// single-set series, nine aggregates and one all-set series. Only the
// order within a block, the columns and sets asked for, and the send times
// are drawn, so every run sends the same mix.
//
// The mix is an assumption, not taken from a deployment: it stands for
// dashboards that mostly drill into one node or show a cross-producer
// total, and now and then draw every producer's series (the most costly
// request). NOTES.md, "Query load", says what each figure stands for.
type queryGen struct {
	rng   *rand.Rand
	w     workload
	block []int
}

func newQueryGen(w workload, seed int64) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed ^ 0x71e7)), w: w}
}

func (g *queryGen) next() querySpec {
	if len(g.block) == 0 {
		for i := 0; i < 20; i++ {
			kind := qSeriesOne
			if i >= 10 {
				kind = qAggregate
			}
			g.block = append(g.block, kind)
		}
		g.block[19] = qSeriesAll
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	q := querySpec{kind: g.block[0], col: g.rng.Intn(g.w.nValues), set: g.rng.Intn(nSets)}
	g.block = g.block[1:]
	return q
}

// span is the history a request asks for: two grid intervals, so every
// series answers with a point or two. This too is an assumption: a
// "latest values" view rather than a long sparkline.
func (g *queryGen) span() time.Duration { return 2 * g.w.interval }

func (g *queryGen) url(addr string, q querySpec) string {
	v := url.Values{}
	v.Set("metric", valueName(q.col, g.w.longNames))
	v.Set("window", g.span().String())
	path := "/api/v1/series"
	switch q.kind {
	case qSeriesOne:
		if !g.w.reduce {
			v.Set("comp", fmt.Sprint(q.set+1))
		}
	case qAggregate:
		path = "/api/v1/aggregate"
		v.Set("func", "sum")
		v.Set("step", g.w.interval.String())
	}
	return "http://" + addr + path + "?" + v.Encode()
}

// direct runs q straight against the window, as the gateway would.
func (g *queryGen) direct(win *query.Window, q querySpec) {
	name := valueName(q.col, g.w.longNames)
	since := time.Now().Add(-g.span())
	switch q.kind {
	case qSeriesOne:
		comp := uint64(0)
		if !g.w.reduce {
			comp = uint64(q.set + 1)
		}
		win.Query(name, comp, since)
	case qSeriesAll:
		win.Query(name, 0, since)
	case qAggregate:
		win.Aggregate(name, 0, since, g.w.interval, "sum", 0)
	}
}

// queryResult is what the open-loop client measured.
type queryResult struct {
	sent, failed int64
	latMs        []float64 // completion minus due time
	lateMs       []float64 // send minus due time: how late the client ran
	serviceUs    []float64 // send to response, traced runs
	directUs     []float64 // the same query straight against the window
	errs         []string
}

// queryWorkers is how many requests the client keeps in flight: enough
// that one slow all-set request does not hold up the requests due behind
// it, as independent users would not wait for each other. Four is an
// assumption chosen for that, not a measured client count.
const queryWorkers = 4

// dueQuery is one request handed from the schedule to a worker.
type dueQuery struct {
	i   int
	due time.Time
	q   querySpec
}

// runQueries sends the seeded mix open-loop at rate requests per second
// from start until ctx ends, over one keep-alive client with up to
// queryWorkers requests in flight. Each request is timed from its due time
// and its response is checked.
func runQueries(ctx context.Context, p *pipeline, g *queryGen, rate int, tr *tracer, start time.Time) *queryResult {
	res := &queryResult{}
	tp := &http.Transport{MaxIdleConnsPerHost: queryWorkers, DisableCompression: true}
	client := &http.Client{Transport: tp, Timeout: 10 * time.Second}
	defer tp.CloseIdleConnections()
	var mu sync.Mutex
	work := make(chan dueQuery, rate) // a second of backlog before the schedule blocks
	var wg sync.WaitGroup
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dq := range work {
				sentAt := time.Now()
				h := tr.begin("query.http", -1, uint64(dq.i))
				err := fetchAndCheck(client, g.url(p.gwAddr, dq.q), dq.q, p.chk, g)
				tr.end(h)
				done := time.Now()
				var directUs float64
				traced := tr.on()
				if win := p.top.Window(); traced && win != nil {
					h := tr.begin("query.window", -1, uint64(dq.i))
					g.direct(win, dq.q)
					directUs = float64(time.Since(done).Nanoseconds()) / 1e3
					tr.end(h)
				}
				mu.Lock()
				res.sent++
				res.lateMs = append(res.lateMs, float64(sentAt.Sub(dq.due).Nanoseconds())/1e6)
				res.latMs = append(res.latMs, float64(done.Sub(dq.due).Nanoseconds())/1e6)
				if err != nil {
					res.failed++
					if len(res.errs) < 10 {
						res.errs = append(res.errs, err.Error())
					}
				}
				if traced {
					res.serviceUs = append(res.serviceUs, float64(done.Sub(sentAt).Nanoseconds())/1e3)
					res.directUs = append(res.directUs, directUs)
				}
				mu.Unlock()
			}
		}()
	}
	schedule(ctx, work, g, rate, start)
	close(work)
	wg.Wait()
	return res
}

// schedule hands each request to the workers at its due time until ctx
// ends.
func schedule(ctx context.Context, work chan<- dueQuery, g *queryGen, rate int, start time.Time) {
	gap := time.Second / time.Duration(rate)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		// Each request is due at a seeded point of its gap-long slot: the
		// rate is fixed, but no request phase-locks to a pull pass.
		due := start.Add(time.Duration(i)*gap + time.Duration(g.rng.Int63n(int64(gap))))
		timer.Reset(time.Until(due))
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		select {
		case work <- dueQuery{i: i, due: due, q: g.next()}:
		case <-ctx.Done():
			return
		}
	}
}

type seriesResp struct {
	Series []struct {
		Instance string `json:"instance"`
		CompID   uint64 `json:"comp_id"`
		Points   []struct {
			Time  time.Time   `json:"time"`
			Value json.Number `json:"value"`
		} `json:"points"`
	} `json:"series"`
}

type aggResp struct {
	SeriesCount int `json:"series_count"`
	Points      []struct {
		Time  time.Time `json:"time"`
		Value float64   `json:"value"`
		Count int       `json:"count"`
	} `json:"points"`
}

// fetchAndCheck sends one request and checks that the response parses and
// that its points match the value function.
func fetchAndCheck(client *http.Client, u string, q querySpec, chk *checker, g *queryGen) error {
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", u, resp.StatusCode, body)
	}
	iv := g.w.interval
	if q.kind == qAggregate {
		var ar aggResp
		if err := json.Unmarshal(body, &ar); err != nil {
			return fmt.Errorf("%s: %w", u, err)
		}
		return checkAggregate(ar, q, chk, g)
	}
	var sr seriesResp
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&sr); err != nil {
		return fmt.Errorf("%s: %w", u, err)
	}
	if q.kind == qSeriesOne && !g.w.reduce {
		// A set inside a resync gap has no point in the asked-for window.
		gapped := g.w.churnEvery > 0 && len(sr.Series) == 0
		if !gapped && (len(sr.Series) != 1 || sr.Series[0].CompID != uint64(q.set+1)) {
			return fmt.Errorf("%s: want one series for comp %d, got %d", u, q.set+1, len(sr.Series))
		}
	}
	for _, s := range sr.Series {
		for _, pt := range s.Points {
			t := tickOf(pt.Time, iv)
			if !pt.Time.Equal(tickTime(t, iv)) {
				return fmt.Errorf("%s: %s point at %s is off the sample grid", u, s.Instance, pt.Time)
			}
			got, err := pt.Value.Float64()
			if err != nil {
				return fmt.Errorf("%s: %w", u, err)
			}
			if want, ok := chk.expected(s.Instance, q.col, t); ok && got != want {
				return fmt.Errorf("%s: %s tick %d = %v, want %v", u, s.Instance, t, got, want)
			}
		}
	}
	return nil
}

// checkAggregate checks a per-step sum: each bucket is one grid tick, holds
// at most one point per series, and when every series contributed, equals
// the sum of the expected values.
func checkAggregate(ar aggResp, q querySpec, chk *checker, g *queryGen) error {
	iv := g.w.interval
	series := nSets
	if g.w.reduce {
		series = len(foldOps)
	}
	for _, pt := range ar.Points {
		t := tickOf(pt.Time, iv)
		if !pt.Time.Equal(tickTime(t, iv)) || pt.Count > series || pt.Count > ar.SeriesCount {
			return fmt.Errorf("aggregate %s: bucket %s count %d of %d series", valueName(q.col, g.w.longNames), pt.Time, pt.Count, ar.SeriesCount)
		}
		if pt.Count < series {
			continue
		}
		// Raw sums are of integers below 2^42, exact in a float64; folds
		// add an avg, whose fraction may round once.
		want, ok := expectedSum(chk, g, q.col, t)
		tol := 0.0
		if g.w.reduce {
			tol = 1e-12 * math.Abs(want)
		}
		if ok && math.Abs(pt.Value-want) > tol {
			return fmt.Errorf("aggregate %s tick %d: sum %v, want %v", valueName(q.col, g.w.longNames), t, pt.Value, want)
		}
	}
	return nil
}

// expectedSum is the sum over every top-tier series of column j at tick t.
func expectedSum(chk *checker, g *queryGen, j int, t uint64) (float64, bool) {
	if !g.w.reduce {
		var sum float64
		for s := 0; s < nSets; s++ {
			sum += float64(chk.vf.value(s, j, t))
		}
		return sum, true
	}
	var sum float64
	for _, op := range foldOps {
		v, ok := chk.expected("_"+op, j, t)
		if !ok {
			return 0, false
		}
		sum += v
	}
	return sum, true
}
