package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/ldmsd"
	"goldms/internal/metric"
	"goldms/internal/store"
)

// benchStorePlugin is the storage plugin the top tier's policies use: it
// checks every row on arrival, then hands the batch to store_csv.
const benchStorePlugin = "bench_csv"

// storeSinks maps a policy's container path to the run state its rows are
// checked against. Each pipeline writes to fresh paths.
var storeSinks sync.Map // string -> *storeSink

func init() { store.Register(benchStorePlugin, newBenchStore) }

// storeSink is one pipeline's view of its storage layer.
type storeSink struct {
	chk *checker
	tr  *tracer

	mu       sync.Mutex
	policies map[string]*ldmsd.StoragePolicy // by schema

	batches, rows atomic.Int64
	// Traced only:
	queueMax atomic.Int64
}

func (k *storeSink) policy(schema string) *ldmsd.StoragePolicy {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.policies[schema]
}

type benchStore struct {
	inner  store.Store
	sink   *storeSink
	schema string
	cols   colMap
	op     int // index into foldOps, -1 for leaf rows
}

func newBenchStore(cfg store.Config) (store.Store, error) {
	v, ok := storeSinks.Load(cfg.Path)
	if !ok {
		return nil, fmt.Errorf("%s: no benchmark sink for %s", benchStorePlugin, cfg.Path)
	}
	inner, err := store.New("store_csv", cfg)
	if err != nil {
		return nil, err
	}
	b := &benchStore{inner: inner, sink: v.(*storeSink), schema: cfg.Schema, cols: newColMap(cfg.Names), op: -1}
	for i, op := range foldOps {
		if strings.HasSuffix(cfg.Schema, "_"+op) {
			b.op = i
		}
	}
	return b, nil
}

func (b *benchStore) Name() string { return benchStorePlugin }

func (b *benchStore) Store(row metric.Row) error {
	return b.StoreBatch([]metric.Row{row})
}

// StoreBatch checks the rows, timing the check and the store_csv write as
// nested spans, and while tracing records the policy's queue depth.
func (b *benchStore) StoreBatch(rows []metric.Row) error {
	arr := time.Now()
	k := b.sink
	outer := k.tr.begin("bench.store_wrapper", -1, uint64(len(rows)))
	if b.op >= 0 {
		k.chk.foldRows(rows, b.op, arr)
	} else {
		k.chk.rawRows(rows, b.cols, arr)
	}
	h := k.tr.begin("store.batch", outer, uint64(len(rows)))
	err := store.Batch(b.inner, rows)
	k.tr.end(h)
	k.tr.end(outer)
	k.batches.Add(1)
	k.rows.Add(int64(len(rows)))
	if k.tr.on() {
		if sp := k.policy(b.schema); sp != nil {
			depth := int64(len(rows) + sp.Counters().QueueDepth)
			for {
				cur := k.queueMax.Load()
				if depth <= cur || k.queueMax.CompareAndSwap(cur, depth) {
					break
				}
			}
		}
	}
	return err
}

func (b *benchStore) Flush() error {
	h := b.sink.tr.begin("store.flush", -1, 0)
	err := b.inner.Flush()
	b.sink.tr.end(h)
	return err
}

func (b *benchStore) Close() error        { return b.inner.Close() }
func (b *benchStore) BytesWritten() int64 { return b.inner.BytesWritten() }
