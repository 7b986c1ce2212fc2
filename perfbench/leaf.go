package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/metric"
	"goldms/internal/transport"
)

// leaf is one sampler producer: a benchmark-owned registry of setsPerLeaf
// sets served over sock, written by one goroutine on a wall-clock-aligned
// grid.
type leaf struct {
	base     int // global index of the first set
	interval time.Duration
	vf       valueFn
	nValues  int
	tr       *tracer

	reg  *metric.Registry
	srv  *transport.Server
	ln   transport.Listener
	sets []*metric.Set
	cols [][][]int // per set: value columns changing at each tick residue

	// Scratch for fill, the SetValues callback (only the sampler goroutine
	// writes sets after construction).
	fillFn func(*metric.Batch)
	curS   int
	curT   uint64
	curNow uint64
	curAll bool

	samples atomic.Int64
	mu      sync.Mutex
	ticks   []uint64 // every tick written, ascending

	stop chan struct{}
	done chan struct{}
}

// newLeaf builds leaf number idx with every set holding its value at the
// current tick, and starts serving it on a loopback port.
func newLeaf(idx int, w workload, vf valueFn, tr *tracer) (*leaf, error) {
	l := &leaf{
		base:     idx * setsPerLeaf,
		interval: w.interval,
		vf:       vf,
		nValues:  w.nValues,
		tr:       tr,
		reg:      metric.NewRegistry(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.fillFn = l.fill
	sch := newSchema(w.schemaName(), w.nValues, w.longNames)
	for i := 0; i < setsPerLeaf; i++ {
		s := l.base + i
		set, err := metric.New(setName(s), sch, metric.WithCompID(uint64(s+1)))
		if err != nil {
			return nil, err
		}
		if err := l.reg.Add(set); err != nil {
			return nil, err
		}
		l.sets = append(l.sets, set)
		l.cols = append(l.cols, vf.changedCols(s, w.nValues))
	}
	l.write(tickOf(time.Now(), w.interval), true)
	l.srv = transport.NewServer(l.reg)
	ln, err := transport.SockFactory{}.Listen("127.0.0.1:0", l.srv)
	if err != nil {
		return nil, fmt.Errorf("leaf %d: %w", idx, err)
	}
	l.ln = ln
	go l.run()
	return l, nil
}

func (l *leaf) addr() string { return l.ln.Addr() }

// run writes every set once per grid tick until stopped. A tick missed
// because the previous pass overran is skipped, and the next pass then
// rewrites every column so the sets stay equal to the value function.
func (l *leaf) run() {
	defer close(l.done)
	iv := l.interval.Nanoseconds()
	last := l.lastTick()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		next := (time.Now().UnixNano()/iv + 1) * iv
		timer.Reset(time.Until(time.Unix(0, next)))
		select {
		case <-l.stop:
			return
		case <-timer.C:
		}
		t := uint64(next / iv)
		l.write(t, t != last+1)
		last = t
	}
}

func (l *leaf) lastTick() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ticks[len(l.ticks)-1]
}

// write stores tick t into every set: tick, written_at_ns, and the value
// columns that change at t (all of them when all is set).
func (l *leaf) write(t uint64, all bool) {
	ts := tickTime(t, l.interval)
	pass := l.tr.begin("leaf.sample_pass", -1, t)
	l.curT, l.curAll = t, all
	for i, set := range l.sets {
		l.curS = l.base + i
		set.BeginTransaction()
		l.curNow = uint64(time.Now().UnixNano())
		h := l.tr.begin("metric.set_values", pass, t)
		set.SetValues(l.fillFn)
		l.tr.end(h)
		set.EndTransaction(ts)
	}
	l.tr.end(pass)
	l.mu.Lock()
	l.ticks = append(l.ticks, t)
	l.mu.Unlock()
	l.samples.Add(int64(len(l.sets)))
}

func (l *leaf) fill(b *metric.Batch) {
	s, t := l.curS, l.curT
	b.SetU64(colTick, t)
	b.SetU64(colWritten, l.curNow)
	if l.curAll {
		b.SetU64(colOne, 1)
		for j := 0; j < l.nValues; j++ {
			b.SetU64(nFixed+j, l.vf.value(s, j, t))
		}
		return
	}
	k := uint64(len(l.cols[s-l.base]))
	for _, j := range l.cols[s-l.base][t%k] {
		b.SetU64(nFixed+j, l.vf.value(s, j, t))
	}
}

// ticksIn returns the ticks this leaf wrote within [from, to).
func (l *leaf) ticksIn(from, to uint64) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []uint64
	for _, t := range l.ticks {
		if t >= from && t < to {
			out = append(out, t)
		}
	}
	return out
}

// close stops the sampler goroutine and the listener.
func (l *leaf) close() {
	close(l.stop)
	<-l.done
	l.ln.Close()
}
