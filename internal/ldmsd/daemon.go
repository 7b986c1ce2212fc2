// Package ldmsd implements the LDMS daemon engine: the single multi-
// threaded daemon that "is run in either sampler or aggregator mode and
// supports the store functionality when run in aggregator mode" (paper
// §IV-B). Differentiation is purely configuration:
//
//   - Sampler policies run sampling plugins on user-defined intervals
//     (synchronous or asynchronous), overwriting metric sets in place.
//   - Producers are connections to other ldmsds (samplers or aggregators)
//     from which metric sets are pulled; standby producers support
//     failover.
//   - Updaters pull the data chunks of looked-up sets on their own
//     schedule, discarding stale (unchanged DGN) or torn (inconsistent)
//     samples.
//   - Storage policies hand every fresh consistent sample to a store
//     plugin (CSV, flat file, SOS).
//
// The engine runs identically against the real clock (production daemons)
// or a virtual clock (whole-day experiments in seconds).
package ldmsd

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/metric"
	"goldms/internal/mmgr"
	"goldms/internal/obs"
	"goldms/internal/procfs"
	"goldms/internal/query"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// Options configure a Daemon.
type Options struct {
	// Name identifies the daemon (conventionally the hostname).
	Name string
	// Scheduler, if set, is used for all timed work (a shared virtual
	// scheduler in simulations). If nil a real-clock scheduler is created.
	Scheduler *sched.Scheduler
	// Workers sizes the worker pool of a real-clock scheduler.
	Workers int
	// ConnWorkers sizes the connection-setup pool (paper: a separate pool
	// so hung connection attempts cannot starve collector threads).
	ConnWorkers int
	// UpdateWorkers sizes the update pull pool, on which updaters fan out
	// per-producer pulls within a pass (real-clock mode only; virtual-time
	// daemons pull sequentially for determinism). Defaults to Workers.
	UpdateWorkers int
	// StoreWorkers sizes the dedicated store pool that drains storage-
	// policy queues and runs periodic flushes (paper §IV: store plugins
	// run on a dedicated flush pool so storage latency never back-
	// pressures collection). Real-clock mode only; virtual-time daemons
	// store synchronously for determinism. Defaults to 2.
	StoreWorkers int
	// Memory is the metric-set memory budget in bytes (the -m flag).
	Memory int
	// FS is the node's /proc//sys source for sampling plugins.
	FS procfs.FS
	// CompID is the default component ID for sampler sets.
	CompID uint64
	// Transports lists the transport factories available to this daemon.
	Transports []transport.Factory
	// Logger receives the daemon's structured logs (and the drained event
	// journal). Nil discards, so libraries and benchmarks pay nothing.
	Logger *slog.Logger
	// JournalSize is the event-journal ring capacity (default
	// obs.DefaultJournalSize).
	JournalSize int
}

// Daemon is one ldmsd instance.
type Daemon struct {
	name   string
	sch    *sched.Scheduler
	ownSch bool
	conn   *sched.Pool
	upd    *sched.Pool // update pull fan-out; nil under a virtual clock
	str    *sched.Pool // store queue drain + flush; nil under a virtual clock
	arena  *mmgr.Arena
	fs     procfs.FS
	compID uint64

	reg        *metric.Registry
	srv        *transport.Server
	transports map[string]transport.Factory
	listeners  []transport.Listener

	// Self-observability: structured logger, the operational event
	// journal (drained to log), and the per-hop sample-age histograms.
	// All are always non-nil; with no logger configured, log records die
	// at the Enabled check and the histograms cost one atomic increment
	// per hop.
	log     *slog.Logger
	journal *obs.Journal
	lat     obs.Pipeline
	trace   *tracePlane

	mu       sync.Mutex
	samplers map[string]*SamplerPolicy
	prdcrs   map[string]*Producer
	updtrs   map[string]*Updater
	strgps   map[string]*StoragePolicy
	pending  map[string]*pendingPlugin // loaded-but-not-started plugins
	advs     []*Advertiser
	gw       *gatewayState
	stopped  bool

	// window is the gateway's recent-window cache; nil while no gateway
	// runs. An atomic pointer keeps the store-path tap to one load.
	window atomic.Pointer[query.Window]

	// strgpList is the lock-free snapshot of storage policies the pull
	// path fans fresh samples out to; rebuilt when a policy is added.
	strgpList atomic.Pointer[[]*StoragePolicy]
}

// DefaultMemory is the default metric-set memory budget. The paper reports
// "less than two megabytes of memory per node for samplers to run in
// typical configurations".
const DefaultMemory = 2 << 20

// New creates a daemon.
func New(opts Options) (*Daemon, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("ldmsd: daemon needs a name")
	}
	mem := opts.Memory
	if mem <= 0 {
		mem = DefaultMemory
	}
	arena, err := mmgr.New(mem)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		name:       opts.Name,
		arena:      arena,
		fs:         opts.FS,
		compID:     opts.CompID,
		reg:        metric.NewRegistry(),
		transports: make(map[string]transport.Factory),
		samplers:   make(map[string]*SamplerPolicy),
		prdcrs:     make(map[string]*Producer),
		updtrs:     make(map[string]*Updater),
		strgps:     make(map[string]*StoragePolicy),
	}
	d.srv = transport.NewServer(d.reg)
	d.trace = newTracePlane(d)
	d.srv.Trace = d.trace.appendWire
	w := opts.Workers
	if w <= 0 {
		w = 4
	}
	if opts.Scheduler != nil {
		d.sch = opts.Scheduler
	} else {
		d.sch = sched.NewReal(w)
		d.ownSch = true
		cw := opts.ConnWorkers
		if cw <= 0 {
			cw = 2
		}
		d.conn = sched.NewPool(cw, 4*cw+8)
	}
	if !d.sch.Virtual() {
		uw := opts.UpdateWorkers
		if uw <= 0 {
			uw = w
		}
		d.upd = sched.NewPool(uw, 4*uw+8)
		sw := opts.StoreWorkers
		if sw <= 0 {
			sw = 2
		}
		d.str = sched.NewPool(sw, 4*sw+8)
	}
	for _, f := range opts.Transports {
		d.transports[f.Name()] = f
	}
	if d.fs == nil {
		d.fs = procfs.OSFS{}
	}
	logger := opts.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	d.log = logger.With(slog.String("daemon", d.name))
	// Journal timestamps come from the scheduler clock, so virtual-time
	// daemons journal deterministic simulated times.
	d.journal = obs.NewJournal(opts.JournalSize, d.sch.Now, d.log)
	d.log.Info("daemon started",
		slog.Int("workers", w),
		slog.Int("memory_bytes", mem),
		slog.Bool("virtual_clock", d.sch.Virtual()))
	return d, nil
}

// Name returns the daemon's name.
func (d *Daemon) Name() string { return d.name }

// TierRole derives the daemon's position in a tiered aggregation topology
// from its configuration: "leaf" with no producers (samplers and daemons
// that only serve), "mid" when it both pulls from producers and serves a
// transport listener for the tier above, "top" when it pulls but serves
// nothing upstream.
func (d *Daemon) TierRole() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case len(d.prdcrs) == 0:
		return "leaf"
	case len(d.listeners) > 0:
		return "mid"
	default:
		return "top"
	}
}

// mirroredSetCount sums, across every updater, the sets currently
// mirrored from the named producer.
func (d *Daemon) mirroredSetCount(name string) int {
	d.mu.Lock()
	updtrs := mapValues(d.updtrs)
	d.mu.Unlock()
	n := 0
	for _, u := range updtrs {
		n += u.MirroredSets(name)
	}
	return n
}

// Registry returns the daemon's local set registry (its own sampled sets
// plus mirrors of aggregated sets, which daisy-chained aggregators pull in
// turn).
func (d *Daemon) Registry() *metric.Registry { return d.reg }

// Arena returns the metric-set memory arena, for footprint accounting.
func (d *Daemon) Arena() *mmgr.Arena { return d.arena }

// Scheduler returns the daemon's scheduler.
func (d *Daemon) Scheduler() *sched.Scheduler { return d.sch }

// ServerStats returns transport serving counters (pulls served to peers).
func (d *Daemon) ServerStats() transport.ServerStats { return d.srv.Stats() }

// Journal returns the daemon's operational event journal.
func (d *Daemon) Journal() *obs.Journal { return d.journal }

// Latency returns the daemon's per-hop sample-age histograms.
func (d *Daemon) Latency() *obs.Pipeline { return &d.lat }

// Logger returns the daemon's structured logger.
func (d *Daemon) Logger() *slog.Logger { return d.log }

// transportByName resolves a configured transport. The map is filled by
// New and never written afterward, so it is read without a lock.
func (d *Daemon) transportByName(name string) (transport.Factory, error) {
	f, ok := d.transports[name]
	if !ok {
		return nil, fmt.Errorf("ldmsd %s: transport %q not configured", d.name, name)
	}
	return f, nil
}

// Listen exposes the daemon's registry on the named transport and address,
// as "ldmsd is also configured to listen for incoming connection requests".
func (d *Daemon) Listen(transportName, addr string) (string, error) {
	f, err := d.transportByName(transportName)
	if err != nil {
		return "", err
	}
	ln, err := f.Listen(addr, d.srv)
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	d.listeners = append(d.listeners, ln)
	d.mu.Unlock()
	d.log.Info("listening", slog.String("transport", transportName), slog.String("addr", ln.Addr()))
	return ln.Addr(), nil
}

// submitConn runs connection work on the connection pool in real-time mode
// or inline under a virtual scheduler.
func (d *Daemon) submitConn(f func()) {
	if d.conn != nil && d.conn.Submit(f) {
		return
	}
	f()
}

// updatePool returns the update pull fan-out pool, or nil when the daemon
// runs under a virtual clock (pulls then stay sequential and
// deterministic).
func (d *Daemon) updatePool() *sched.Pool { return d.upd }

// storePool returns the dedicated store drain/flush pool, or nil when the
// daemon runs under a virtual clock (storage policies then drain inline
// so simulated experiments stay synchronous and deterministic).
func (d *Daemon) storePool() *sched.Pool { return d.str }

// Stop halts all policies, closes listeners and producer connections, and
// (if owned) stops the scheduler.
func (d *Daemon) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	d.journal.Append(obs.SevInfo, obs.CompDaemon, "", 0, "daemon stopping")
	samplers := mapValues(d.samplers)
	prdcrs := mapValues(d.prdcrs)
	updtrs := mapValues(d.updtrs)
	strgps := mapValues(d.strgps)
	listeners := d.listeners
	advs := d.advs
	gw := d.gw
	d.gw = nil
	d.mu.Unlock()

	d.closeGateway(gw)
	for _, a := range advs {
		a.Stop()
	}

	for _, u := range updtrs {
		u.Stop()
	}
	for _, s := range samplers {
		s.Stop()
	}
	for _, p := range prdcrs {
		p.Stop()
	}
	if d.ownSch {
		d.sch.Stop()
	}
	if d.upd != nil {
		d.upd.Stop()
	}
	if d.conn != nil {
		d.conn.Stop()
	}
	// The store pool stops after the pull paths are quiet so in-flight
	// drain jobs complete; Close then drains any remainder inline and
	// flushes the plugins.
	if d.str != nil {
		d.str.Stop()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	for _, sp := range strgps {
		sp.Close()
	}
}

// mapValues returns the values of a map in sorted key order.
func mapValues[V any](m map[string]V) []V {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]V, 0, len(m))
	for _, k := range keys {
		vals = append(vals, m[k])
	}
	return vals
}

// Stats aggregates daemon activity for experiments and the control
// interface.
type Stats struct {
	Samples             int64 // sampler plugin invocations
	SampleErrors        int64
	SampleTime          time.Duration // cumulative plugin execution time
	Lookups             int64
	Updates             int64 // data pulls that completed
	UpdatesFresh        int64 // pulls with new consistent data
	UpdatesStale        int64 // pulls skipped: DGN unchanged
	UpdatesInconsistent int64
	UpdateErrors        int64
	UpdatesSkippedBusy  int64 // passes skipped because the previous one was in flight
	ReducedPublishes    int64 // reduced-set updates published by in-flight reduction
	StoredRows          int64
	DroppedRows         int64 // rows lost to store-queue overflow or failed policies
}

// Stats sums activity over all policies.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	var st Stats
	for _, s := range d.samplers {
		st.Samples += s.samples.Load()
		st.SampleErrors += s.errors.Load()
		st.SampleTime += time.Duration(s.sampleNanos.Load())
	}
	for _, u := range d.updtrs {
		st.Lookups += u.lookups.Load()
		st.Updates += u.updates.Load()
		st.UpdatesFresh += u.fresh.Load()
		st.UpdatesStale += u.stale.Load()
		st.UpdatesInconsistent += u.inconsistent.Load()
		st.UpdateErrors += u.errors.Load()
		st.UpdatesSkippedBusy += u.skippedBusy.Load()
		if _, _, rst, enabled := u.ReduceStatus(); enabled {
			st.ReducedPublishes += int64(rst.Published)
		}
	}
	for _, sp := range d.strgps {
		st.StoredRows += sp.rows.Load()
		st.DroppedRows += sp.dropped.Load()
	}
	return st
}
