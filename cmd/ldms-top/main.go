// Command ldms-top is a terminal consumer of an aggregator's query
// gateway: it reads the /healthz, /api/v1/dir, /api/v1/metrics and
// /api/v1/series endpoints (in-transit data on the aggregator — no storage
// backend involved) and renders a compact status view.
//
// Usage:
//
//	ldms-top -d http://agg1:8080                    # health + set directory
//	ldms-top -d http://agg1:8080 -metric Active     # latest value per producer
//	ldms-top -d http://agg1:8080 -metric Active -series -window 5m
//	ldms-top -d http://agg1:8080 -metric Active -agg sum -step 10s
//	ldms-top -d http://agg1:8080 -events -n 30      # recent daemon events
//	ldms-top -d http://agg1:8080 -trace             # cross-tier hop latency + chains
//	ldms-top -d http://agg1:8080 -watch 2s          # refresh until interrupted
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		daemon  = flag.String("d", "http://127.0.0.1:8080", "gateway base URL")
		metricN = flag.String("metric", "", "metric to display (latest per producer)")
		comp    = flag.Uint64("comp", 0, "component id filter (0 = all)")
		series  = flag.Bool("series", false, "sparkline recent history instead of latest values (needs -metric)")
		window  = flag.Duration("window", 0, "history window for -series/-agg (default: the gateway's retention)")
		step    = flag.Duration("step", 0, "server-side downsample step for -series/-agg (0 with -window: auto window/48)")
		aggFn   = flag.String("agg", "", "fold -metric across producers server-side with this func (sum, avg, min, max, count, quantile)")
		quant   = flag.Float64("q", 0.95, "quantile for -agg quantile")
		events  = flag.Bool("events", false, "show the daemon's recent event journal")
		trace   = flag.Bool("trace", false, "show cross-tier per-hop sample ages and set hop chains")
		nEvents = flag.Int("n", 20, "events to show with -events")
		minSev  = flag.String("severity", "", "minimum event severity for -events (info, warn, error)")
		watch   = flag.Duration("watch", 0, "refresh every interval until interrupted")
		timeout = flag.Duration("timeout", 5*time.Second, "HTTP timeout")
	)
	flag.Parse()
	client := &http.Client{Timeout: *timeout}
	base := strings.TrimRight(*daemon, "/")

	render := func() error {
		if *watch > 0 {
			fmt.Print("\033[H\033[2J") // clear screen between refreshes
		}
		if err := showHealth(client, base); err != nil {
			return err
		}
		switch {
		case *events:
			return showEvents(client, base, *nEvents, *minSev)
		case *trace:
			return showTrace(client, base)
		case *metricN != "" && *aggFn != "":
			return showAggregate(client, base, *metricN, *comp, *window, *step, *aggFn, *quant)
		case *metricN != "" && *series:
			return showSeries(client, base, *metricN, *comp, *window, *step)
		case *metricN != "":
			return showLatest(client, base, *metricN, *comp)
		default:
			return showDir(client, base)
		}
	}

	if err := render(); err != nil {
		fail(err)
	}
	for *watch > 0 {
		time.Sleep(*watch)
		if err := render(); err != nil {
			fail(err)
		}
	}
}

// getJSON fetches url and decodes the response body into v. Degraded
// health (503) still carries a JSON body, so it is not an error here.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("GET %s: status %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func showHealth(client *http.Client, base string) error {
	var h struct {
		Status    string  `json:"status"`
		Daemon    string  `json:"daemon"`
		Tier      string  `json:"tier"`
		Uptime    float64 `json:"uptime_seconds"`
		Producers []struct {
			Name              string    `json:"name"`
			Host              string    `json:"host"`
			State             string    `json:"state"`
			Standby           bool      `json:"standby"`
			Active            bool      `json:"active"`
			Connects          int64     `json:"connects"`
			Disconnects       int64     `json:"disconnects"`
			LastUpdate        time.Time `json:"last_update"`
			ConsecutiveErrors int64     `json:"consecutive_errors"`
			Stale             bool      `json:"stale"`
			Sets              int       `json:"sets"`
			Updates           int64     `json:"updates"`
			DeltaUpdates      int64     `json:"delta_updates"`
			BytesPerSample    float64   `json:"bytes_per_sample"`
		} `json:"producers"`
	}
	if err := getJSON(client, base+"/healthz", &h); err != nil {
		return err
	}
	tier := ""
	if h.Tier != "" {
		tier = "  tier=" + h.Tier
	}
	fmt.Printf("%s  status=%s%s  uptime=%s  producers=%d\n",
		h.Daemon, h.Status, tier, (time.Duration(h.Uptime) * time.Second).String(), len(h.Producers))
	for _, p := range h.Producers {
		mark := " "
		if p.Stale {
			mark = "!"
		}
		last := "never"
		if !p.LastUpdate.IsZero() {
			last = time.Since(p.LastUpdate).Truncate(time.Second).String() + " ago"
		}
		role := ""
		if p.Standby {
			role = " standby"
			if p.Active {
				role = " standby(active)"
			}
		}
		// Wire efficiency: delta hit rate and bytes per pulled sample, the
		// cost curve the delta protocol flattens at high fan-in.
		cost := ""
		if p.Updates > 0 {
			cost = fmt.Sprintf(" B/sample=%.0f", p.BytesPerSample)
			if p.DeltaUpdates > 0 {
				cost += fmt.Sprintf(" delta=%d%%", 100*p.DeltaUpdates/p.Updates)
			}
		}
		fmt.Printf(" %s %-16s %-12s conns=%d/%d sets=%d last_update=%s errs=%d%s%s\n",
			mark, p.Name, p.State, p.Connects, p.Disconnects, p.Sets, last, p.ConsecutiveErrors, cost, role)
	}
	return nil
}

func showDir(client *http.Client, base string) error {
	var d struct {
		Sets []struct {
			Instance   string    `json:"instance"`
			Schema     string    `json:"schema"`
			CompID     uint64    `json:"comp_id"`
			Card       int       `json:"card"`
			Consistent bool      `json:"consistent"`
			Timestamp  time.Time `json:"timestamp"`
		} `json:"sets"`
	}
	if err := getJSON(client, base+"/api/v1/dir", &d); err != nil {
		return err
	}
	fmt.Printf("\n%-32s %-12s %6s %5s %s\n", "INSTANCE", "SCHEMA", "COMP", "CARD", "UPDATED")
	for _, s := range d.Sets {
		cons := ""
		if !s.Consistent {
			cons = " [inconsistent]"
		}
		fmt.Printf("%-32s %-12s %6d %5d %s%s\n",
			s.Instance, s.Schema, s.CompID, s.Card,
			s.Timestamp.UTC().Format(time.RFC3339), cons)
	}
	return nil
}

func showLatest(client *http.Client, base, metricName string, comp uint64) error {
	url := fmt.Sprintf("%s/api/v1/metrics?metric=%s", base, metricName)
	if comp != 0 {
		url += fmt.Sprintf("&comp=%d", comp)
	}
	var m struct {
		Values []struct {
			Instance  string    `json:"instance"`
			CompID    uint64    `json:"comp_id"`
			Value     any       `json:"value"`
			Timestamp time.Time `json:"timestamp"`
		} `json:"values"`
	}
	if err := getJSON(client, url, &m); err != nil {
		return err
	}
	fmt.Printf("\n%-32s %6s %16s %s\n", "INSTANCE", "COMP", metricName, "AT")
	for _, v := range m.Values {
		fmt.Printf("%-32s %6d %16v %s\n",
			v.Instance, v.CompID, v.Value, v.Timestamp.UTC().Format(time.RFC3339))
	}
	return nil
}

// autoStep picks a downsample step that fits the sparkline width, so
// the server sends ~one point per cell instead of the raw window.
func autoStep(step, window time.Duration) time.Duration {
	if step == 0 && window > 0 {
		step = window / sparkWidth
	}
	return step
}

func showSeries(client *http.Client, base, metricName string, comp uint64, window, step time.Duration) error {
	url := fmt.Sprintf("%s/api/v1/series?metric=%s", base, metricName)
	if comp != 0 {
		url += fmt.Sprintf("&comp=%d", comp)
	}
	if window > 0 {
		url += "&window=" + window.String()
	}
	if step = autoStep(step, window); step > 0 {
		url += "&step=" + step.String()
	}
	var s struct {
		Window string `json:"window"`
		Step   string `json:"step"`
		Series []struct {
			Instance string `json:"instance"`
			CompID   uint64 `json:"comp_id"`
			Points   []struct {
				Time  time.Time `json:"time"`
				Value float64   `json:"value"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := getJSON(client, url, &s); err != nil {
		return err
	}
	res := ""
	if s.Step != "" {
		res = " @ " + s.Step
	}
	fmt.Printf("\n%s over %s%s (from the aggregator's in-memory window)\n", metricName, s.Window, res)
	for _, sr := range s.Series {
		vals := make([]float64, len(sr.Points))
		for i, p := range sr.Points {
			vals[i] = p.Value
		}
		var last float64
		if n := len(vals); n > 0 {
			last = vals[n-1]
		}
		fmt.Printf("%-32s %6d %s %g (%d pts)\n",
			sr.Instance, sr.CompID, spark(vals), last, len(vals))
	}
	return nil
}

// showAggregate renders one cross-producer sparkline from the gateway's
// server-side fold: a 64-producer view is a single O(buckets) request.
func showAggregate(client *http.Client, base, metricName string, comp uint64, window, step time.Duration, fn string, q float64) error {
	url := fmt.Sprintf("%s/api/v1/aggregate?metric=%s&func=%s", base, metricName, fn)
	if comp != 0 {
		url += fmt.Sprintf("&comp=%d", comp)
	}
	if window > 0 {
		url += "&window=" + window.String()
	}
	if step = autoStep(step, window); step > 0 {
		url += "&step=" + step.String()
	}
	if fn == "quantile" {
		url += fmt.Sprintf("&q=%g", q)
	}
	var a struct {
		Func        string `json:"func"`
		Window      string `json:"window"`
		Step        string `json:"step"`
		SeriesCount int    `json:"series_count"`
		Points      []struct {
			Time  time.Time `json:"time"`
			Value float64   `json:"value"`
			Count int       `json:"count"`
		} `json:"points"`
	}
	if err := getJSON(client, url, &a); err != nil {
		return err
	}
	res := ""
	if a.Step != "" {
		res = " @ " + a.Step
	}
	vals := make([]float64, len(a.Points))
	for i, p := range a.Points {
		vals[i] = p.Value
	}
	var last float64
	if n := len(vals); n > 0 {
		last = vals[n-1]
	}
	fmt.Printf("\n%s(%s) over %s%s across %d producers (server-side fold)\n",
		a.Func, metricName, a.Window, res, a.SeriesCount)
	fmt.Printf("%-32s %6s %s %g (%d buckets)\n", "aggregate", "-", spark(vals), last, len(vals))
	return nil
}

// showEvents renders the daemon's event journal pane, newest last, with
// warnings in yellow and errors in red (severity coloring is suppressed
// when stdout is not a terminal-ish consumer — NO_COLOR is honored).
func showEvents(client *http.Client, base string, n int, minSev string) error {
	url := fmt.Sprintf("%s/api/v1/events?n=%d", base, n)
	if minSev != "" {
		url += "&severity=" + minSev
	}
	var e struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Seq       uint64    `json:"seq"`
			Time      time.Time `json:"time"`
			Severity  string    `json:"severity"`
			Component string    `json:"component"`
			Subject   string    `json:"subject"`
			Epoch     uint64    `json:"epoch"`
			Message   string    `json:"message"`
		} `json:"events"`
	}
	if err := getJSON(client, url, &e); err != nil {
		return err
	}
	color := os.Getenv("NO_COLOR") == ""
	fmt.Printf("\nEVENTS (%d shown of %d total)\n", len(e.Events), e.Total)
	for _, ev := range e.Events {
		subject := ev.Subject
		if subject == "" {
			subject = "-"
		}
		epoch := ""
		if ev.Epoch != 0 {
			epoch = fmt.Sprintf(" epoch=%d", ev.Epoch)
		}
		line := fmt.Sprintf("%s %-5s %-9s %-16s %s%s",
			ev.Time.UTC().Format(time.RFC3339), ev.Severity, ev.Component,
			subject, ev.Message, epoch)
		if color {
			switch ev.Severity {
			case "warn":
				line = "\033[33m" + line + "\033[0m"
			case "error":
				line = "\033[31m" + line + "\033[0m"
			}
		}
		fmt.Println(line)
	}
	return nil
}

// showTrace renders the cross-tier tracing pane: per-(daemon, role,
// stage) sample-age quantiles over every traced hop below this
// aggregator, followed by each set's hop chain (origin first) so fan-in
// paths and their depth read directly off the screen.
func showTrace(client *http.Client, base string) error {
	var t struct {
		Spans []struct {
			Daemon string  `json:"daemon"`
			Role   string  `json:"role"`
			Stage  string  `json:"stage"`
			Count  uint64  `json:"count"`
			P50    float64 `json:"p50_seconds"`
			P95    float64 `json:"p95_seconds"`
			Max    float64 `json:"max_seconds"`
		} `json:"spans"`
		Chains []struct {
			Set   string `json:"set"`
			Depth int    `json:"depth"`
			Hops  []struct {
				Daemon string `json:"daemon"`
				Role   string `json:"role"`
			} `json:"hops"`
		} `json:"chains"`
	}
	if err := getJSON(client, base+"/api/v1/trace", &t); err != nil {
		return err
	}
	fmt.Printf("\n%-16s %-5s %-7s %10s %10s %10s %10s\n",
		"HOP DAEMON", "ROLE", "STAGE", "COUNT", "P50", "P95", "MAX")
	for _, s := range t.Spans {
		fmt.Printf("%-16s %-5s %-7s %10d %10s %10s %10s\n",
			s.Daemon, s.Role, s.Stage, s.Count,
			secs(s.P50), secs(s.P95), secs(s.Max))
	}
	fmt.Printf("\nCHAINS (%d sets)\n", len(t.Chains))
	for _, c := range t.Chains {
		hops := make([]string, len(c.Hops))
		for i, h := range c.Hops {
			hops[i] = fmt.Sprintf("%s(%s)", h.Daemon, h.Role)
		}
		fmt.Printf("%-32s depth=%d %s\n", c.Set, c.Depth, strings.Join(hops, " -> "))
	}
	return nil
}

// secs renders a seconds value as a compact duration.
func secs(s float64) string {
	return time.Duration(s * float64(time.Second)).Truncate(time.Microsecond).String()
}

// sparkWidth is the sparkline cell budget; auto-stepping asks the
// server for about one bucket per cell.
const sparkWidth = 48

// spark renders values as a unicode sparkline, resampled to fit width.
func spark(vals []float64) string {
	ramp := []rune("▁▂▃▄▅▆▇█")
	if len(vals) == 0 {
		return strings.Repeat(" ", sparkWidth)
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	n := len(vals)
	w := sparkWidth
	if n < w {
		w = n
	}
	out := make([]rune, w)
	for i := 0; i < w; i++ {
		v := vals[i*n/w]
		level := 0
		if max > min {
			level = int((v - min) / (max - min) * float64(len(ramp)-1))
		}
		out[i] = ramp[level]
	}
	return string(out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ldms-top:", err)
	os.Exit(1)
}
