package main

import (
	"fmt"
	"time"
)

// Load shape shared by every workload: two leaf producers of 512 sets each.
const (
	nLeaves     = 2
	setsPerLeaf = 512
	nSets       = nLeaves * setsPerLeaf
)

// workload is one traffic shape through the reference pipeline.
type workload struct {
	name        string
	nValues     int           // value columns per leaf set
	longNames   bool          // realistic long metric names
	changeEvery uint64        // a value column changes every changeEvery ticks
	interval    time.Duration // leaf sample grid and updater interval
	midOffset   time.Duration // mid updater offset into each grid interval
	topOffset   time.Duration // top updater offset into each grid interval
	reduce      bool          // mid folds min,max,avg,sum and exports only the folds
	storeCols   []string      // stored columns (nil: every column)
	storeQueue  int           // top storage-policy queue, in rows
	queryRate   int           // open-loop gateway requests per second (0: none); an assumption, see NOTES.md
	churnEvery  time.Duration // prdcr_stop/prdcr_start cycle period (0: none)
	checkCols   int           // value columns checked per folded row
	// setups is how many times a run builds the pipeline from nothing;
	// setup_s is their median. A set-up takes a whole number of pull
	// intervals, so a workload whose set-up sometimes needs one interval
	// more builds more often.
	setups int
}

var workloads = []workload{
	{
		name:        "fanin-sparse-reduce",
		nValues:     61,
		changeEvery: 10,
		interval:    200 * time.Millisecond,
		midOffset:   20 * time.Millisecond,
		topOffset:   170 * time.Millisecond,
		reduce:      true,
		storeQueue:  64,
		checkCols:   4,
		setups:      5,
	},
	{
		name:        "store-dense-query",
		nValues:     61,
		changeEvery: 1,
		interval:    time.Second,
		midOffset:   100 * time.Millisecond,
		topOffset:   450 * time.Millisecond,
		storeQueue:  2 * nSets,
		queryRate:   50,
		setups:      3,
	},
	{
		name:        "reconnect-churn",
		nValues:     197,
		longNames:   true,
		changeEvery: 10,
		interval:    time.Second,
		midOffset:   100 * time.Millisecond,
		topOffset:   600 * time.Millisecond,
		storeCols:   []string{"tick", "written_at_ns", "one", valueName(0, true), valueName(1, true), valueName(196, true)},
		storeQueue:  2 * nSets,
		churnEvery:  5 * time.Second,
		setups:      3,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) schemaName() string { return fmt.Sprintf("bench%d", nFixed+w.nValues) }

// storedSchemas are the schemas the top tier stores: the leaf schema, or
// one folded schema per reduce op.
func (w workload) storedSchemas() []string {
	if !w.reduce {
		return []string{w.schemaName()}
	}
	var out []string
	for _, op := range foldOps {
		out = append(out, w.schemaName()+"_"+op)
	}
	return out
}

var foldOps = []string{"min", "max", "avg", "sum"}

func (w workload) values(seed int64) valueFn {
	return valueFn{seed: uint64(seed), changeEvery: w.changeEvery}
}
