package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"goldms/internal/ldmsd"
	"goldms/internal/transport"
)

// daemonMemory is the metric-set budget of the mid and top daemons: room
// for 1024 wide mirrors with their metadata.
const daemonMemory = 256 << 20

// pipeline is one instance of the reference pipeline: leaves → mid → top
// with store_csv and the query gateway at the top.
type pipeline struct {
	w      workload
	dir    string
	leaves []*leaf
	midX   *benchXprt
	topX   *benchXprt
	mid    *ldmsd.Daemon
	top    *ldmsd.Daemon
	gwAddr string
	sink   *storeSink
	chk    *checker
	paths  []string // store_csv containers
}

// us renders a duration in the microseconds ldmsd config takes.
func us(d time.Duration) string { return fmt.Sprint(d.Microseconds()) }

// exec runs config lines on a daemon, stopping at the first error.
func exec(d *ldmsd.Daemon, lines ...string) (string, error) {
	var out string
	for _, l := range lines {
		res, err := d.Exec(l)
		if err != nil {
			return "", fmt.Errorf("%s: %q: %w", d.Name(), l, err)
		}
		out = res
	}
	return out, nil
}

// buildPipeline starts every tier and the producers. Set-up finishes when
// every leaf set has a fresh row at the top store (waitFresh).
func buildPipeline(w workload, vf valueFn, dir string, tr *tracer, keepResync bool) (p *pipeline, err error) {
	p = &pipeline{w: w, dir: dir, chk: newChecker(w, vf)}
	p.chk.keepResync = keepResync
	p.sink = &storeSink{chk: p.chk, tr: tr, policies: make(map[string]*ldmsd.StoragePolicy)}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	for i := 0; i < nLeaves; i++ {
		l, err := newLeaf(i, w, vf, tr)
		if err != nil {
			return p, err
		}
		p.leaves = append(p.leaves, l)
	}
	p.midX = &benchXprt{tr: tr}
	p.topX = &benchXprt{tr: tr}
	if p.mid, err = ldmsd.New(ldmsd.Options{Name: "mid", Memory: daemonMemory, Transports: []transport.Factory{p.midX}}); err != nil {
		return p, err
	}
	if p.top, err = ldmsd.New(ldmsd.Options{Name: "top", Memory: daemonMemory, Transports: []transport.Factory{p.topX}}); err != nil {
		return p, err
	}
	midAddr, err := exec(p.mid, "listen xprt=sock addr=127.0.0.1:0")
	if err != nil {
		return p, err
	}
	updtr := func(offset time.Duration) string {
		return fmt.Sprintf("updtr_add name=u interval=%s offset=%s synchronous=1", us(w.interval), us(offset))
	}
	midUpdtr := updtr(w.midOffset)
	if w.reduce {
		midUpdtr += " reduce=" + strings.Join(foldOps, ",") + " export=reduced"
	}
	cfg := []string{midUpdtr}
	for i, l := range p.leaves {
		cfg = append(cfg,
			fmt.Sprintf("prdcr_add name=leaf%d xprt=sock host=%s interval=%s", i, l.addr(), us(w.interval)),
			fmt.Sprintf("updtr_prdcr_add name=u prdcr=leaf%d", i))
	}
	cfg = append(cfg, "updtr_start name=u")
	if _, err := exec(p.mid, cfg...); err != nil {
		return p, err
	}

	cfg = []string{
		updtr(w.topOffset),
		fmt.Sprintf("prdcr_add name=mid xprt=sock host=%s interval=%s", midAddr, us(w.interval)),
		"updtr_prdcr_add name=u prdcr=mid",
	}
	for _, schema := range w.storedSchemas() {
		path := filepath.Join(dir, schema+".csv")
		storeSinks.Store(path, p.sink)
		p.paths = append(p.paths, path)
		cfg = append(cfg, fmt.Sprintf("strgp_add name=%s plugin=%s schema=%s container=%s queue=%d flush_interval=1s",
			schema, benchStorePlugin, schema, path, w.storeQueue))
		for _, m := range w.storeCols {
			cfg = append(cfg, fmt.Sprintf("strgp_metric_add name=%s metric=%s", schema, m))
		}
	}
	cfg = append(cfg, "updtr_start name=u", "prdcr_start name=mid")
	if _, err := exec(p.top, cfg...); err != nil {
		return p, err
	}
	for _, schema := range w.storedSchemas() {
		p.sink.policies[schema] = p.top.StoragePolicy(schema)
	}
	// The window keeps 16 points per series: enough for the queries'
	// few-interval windows at every workload's rate.
	if p.gwAddr, err = exec(p.top, "http_listen addr=127.0.0.1:0 window=30s points=16"); err != nil {
		return p, err
	}
	p.chk.startEpisode()
	for i := range p.leaves {
		if err := p.startLeaf(i); err != nil {
			return p, err
		}
	}
	return p, nil
}

// startLeaf starts the mid tier's producer for leaf i and marks its sets
// pending until they resync at the top.
func (p *pipeline) startLeaf(i int) error {
	if _, err := exec(p.mid, fmt.Sprintf("prdcr_start name=leaf%d", i)); err != nil {
		return err
	}
	p.chk.markStart(i, time.Now())
	return nil
}

func (p *pipeline) stopLeaf(i int) error {
	_, err := exec(p.mid, fmt.Sprintf("prdcr_stop name=leaf%d", i))
	return err
}

// waitFresh waits until every set has had a fresh row at the top store
// since its producer last started, returning when the last one arrived.
func (p *pipeline) waitFresh(limit time.Duration) (time.Time, error) {
	deadline := time.Now().Add(limit)
	for p.chk.pending() > 0 {
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("%d sets not fresh at the top store after %s", p.chk.pending(), limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.chk.mu.Lock()
	defer p.chk.mu.Unlock()
	return p.chk.lastFresh, nil
}

// quiesce stops both updaters and waits until no pull is in flight, so
// the transport counters on both ends of every connection are final.
func (p *pipeline) quiesce() error {
	for _, d := range []*ldmsd.Daemon{p.top, p.mid} {
		if _, err := exec(d, "updtr_stop name=u"); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for stable := 0; stable < 3; {
		idle := true
		for _, d := range []*ldmsd.Daemon{p.top, p.mid} {
			st, err := d.Exec("updtr_status")
			if err != nil {
				return err
			}
			idle = idle && strings.Contains(st, " inflight=0 ")
		}
		if idle {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("updaters still pulling 10s after updtr_stop")
		}
		time.Sleep(p.w.interval/4 + 10*time.Millisecond)
	}
	return nil
}

// close stops everything and removes the run's files.
func (p *pipeline) close() {
	if p.top != nil {
		p.top.Stop()
	}
	if p.mid != nil {
		p.mid.Stop()
	}
	for _, l := range p.leaves {
		l.close()
	}
	for _, path := range p.paths {
		storeSinks.Delete(path)
		os.Remove(path)
	}
}

// csvRows counts the data lines store_csv wrote (each file's first line is
// its header).
func (p *pipeline) csvRows() (int64, error) {
	var n int64
	for _, path := range p.paths {
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		if lines := int64(bytes.Count(b, []byte{'\n'})); lines > 0 {
			n += lines - 1
		}
	}
	return n, nil
}
