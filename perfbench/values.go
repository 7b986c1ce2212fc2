package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"goldms/internal/metric"
)

// Every leaf set carries three fixed metrics ahead of its value columns.
const (
	colTick    = 0 // grid tick of the sample
	colWritten = 1 // benchmark clock (unix ns) when the sample was written
	colOne     = 2 // constant 1, so a fold's sum(one) counts its members
	nFixed     = 3
)

// valueMask keeps value columns below 2^32, so a sum over every set stays
// exact in a float64 and in the JSON the gateway serves.
const valueMask = 1<<32 - 1

// mix is the splitmix64 finalizer: a cheap, well-spread 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash4(seed, a, b, c uint64) uint64 {
	return mix(mix(mix(seed^a)^b) ^ c)
}

// valueFn is the seeded function every stored value is checked against.
// Column j of set s at tick t changes when (t+phase(s,j)) % changeEvery
// == 0, so a fraction 1/changeEvery of the columns changes per sample
// (changeEvery 1 changes every column every sample). Its value depends only
// on (s, j, epoch), so it can be recomputed in O(1) from any (s, tick).
type valueFn struct {
	seed        uint64
	changeEvery uint64
}

func (f valueFn) phase(s, j int) uint64 {
	if f.changeEvery <= 1 {
		return 0
	}
	return hash4(f.seed, uint64(s), uint64(j), 0x5ea5) % f.changeEvery
}

// value returns column j of set s at tick t.
func (f valueFn) value(s, j int, t uint64) uint64 {
	epoch := t
	if f.changeEvery > 1 {
		epoch = (t + f.phase(s, j)) / f.changeEvery
	}
	return hash4(f.seed, uint64(s), uint64(j), epoch) & valueMask
}

// changedCols lists, per set and per tick residue, the value columns that
// change at a tick t with t % changeEvery == residue, so a sparse sample
// touches only those columns.
func (f valueFn) changedCols(s, nValues int) [][]int {
	k := int(max(f.changeEvery, 1))
	byRes := make([][]int, k)
	for j := 0; j < nValues; j++ {
		p := int(f.phase(s, j))
		res := (k - p) % k
		byRes[res] = append(byRes[res], j)
	}
	return byRes
}

// tickOf converts a grid time to its tick number.
func tickOf(t time.Time, interval time.Duration) uint64 {
	return uint64(t.UnixNano() / int64(interval))
}

// tickTime is the grid time of tick t: the sample timestamp leaves record.
func tickTime(t uint64, interval time.Duration) time.Time {
	return time.Unix(0, int64(t)*int64(interval))
}

// newSchema builds the leaf schema: the fixed metrics, then nValues u64
// value columns. longNames selects realistic long metric names (the wide
// schema of the reconnect workload) over short v00-style ones.
func newSchema(name string, nValues int, longNames bool) *metric.Schema {
	sch := metric.NewSchema(name)
	sch.MustAddMetric("tick", metric.TypeU64)
	sch.MustAddMetric("written_at_ns", metric.TypeU64)
	sch.MustAddMetric("one", metric.TypeU64)
	for j := 0; j < nValues; j++ {
		sch.MustAddMetric(valueName(j, longNames), metric.TypeU64)
	}
	return sch
}

var (
	nameSubsystems = []string{"node_memory", "node_cpu_seconds", "node_network_transmit", "node_disk_io_time", "lustre_client_llite", "infiniband_port_counters", "node_vmstat", "aries_nic_traffic"}
	nameCounters   = []string{"active_anon_bytes", "context_switches_total", "packets_dropped_total", "weighted_seconds_total", "read_bytes_total", "xmit_wait_ticks", "pgmajfault_total", "flit_stall_cycles"}
)

// valueName names value column j.
func valueName(j int, long bool) string {
	if !long {
		return fmt.Sprintf("v%02d", j)
	}
	sub := nameSubsystems[j%len(nameSubsystems)]
	ctr := nameCounters[(j/len(nameSubsystems))%len(nameCounters)]
	return fmt.Sprintf("%s_%s_lane%03d", sub, ctr, j)
}

// valueIndex recovers j from a value column's name.
func valueIndex(name string) (int, bool) {
	var digits string
	if strings.HasPrefix(name, "v") {
		digits = name[1:]
	} else if i := strings.LastIndex(name, "_lane"); i >= 0 {
		digits = name[i+len("_lane"):]
	} else {
		return 0, false
	}
	j, err := strconv.Atoi(digits)
	return j, err == nil
}

// setName names leaf set s; setIndex parses it back, also out of the
// <producer>/<name> form the mid tier re-exports it under.
func setName(s int) string { return fmt.Sprintf("nid%05d", s) }

func setIndex(instance string) (int, bool) {
	i := strings.LastIndex(instance, "nid")
	if i < 0 {
		return 0, false
	}
	s, err := strconv.Atoi(instance[i+3:])
	return s, err == nil
}
