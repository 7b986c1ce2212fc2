package ldmsd

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
	"goldms/internal/sched"
	"goldms/internal/tier"
	"goldms/internal/transport"
)

// Updater pulls metric-set data from a group of producers on its own
// schedule. Distinct metric sets can be collected at different frequencies
// by defining multiple updaters with different match filters (which should
// be disjoint). Unlike samplers, an updater's schedule cannot be altered
// once started without restarting it (paper §IV-A).
//
// The updater owns all per-set pull state. Only one update pass runs at a
// time; a firing that arrives while the previous pass is still in flight is
// skipped and the sets are retried at the next interval, matching the
// paper's "bypasses and later retries non-reporting hosts".
//
// Within a pass, producers are pulled concurrently on the daemon's update
// pool (real-clock mode only; virtual-time runs stay sequential so
// simulated experiments remain exactly ordered), and each producer's due
// sets are pipelined in transport-level batches. Per-producer pull state
// stays single-owner: one goroutine per producer per pass, with the state
// map itself guarded separately.
type Updater struct {
	d        *Daemon
	name     string
	interval time.Duration
	offset   time.Duration
	synced   bool
	timeout  time.Duration

	mu          sync.Mutex
	producers   []string
	matchFn     func(instance string) bool
	task        *sched.Task
	started     bool
	concurrency int // max producers pulled in parallel; 0 = pool-bound, 1 = sequential
	batch       int // update requests pipelined per transport batch

	busy atomic.Bool

	// reducer, when non-nil, folds this updater's mirrors into synthetic
	// reduced sets each pass (tiered aggregation's in-flight reduction).
	// exportRaw controls whether raw mirrors still register in the daemon
	// directory: false means upstream tiers see only the reduced sets.
	// Both are fixed before Start and never mutated while running.
	reducer   *tier.Reducer
	exportRaw bool

	// smu guards the state map's structure. Each value is owned by the
	// single goroutine pulling that producer during a pass.
	smu   sync.Mutex
	state map[string]*updProducerState

	// hmu guards health: per-producer pull health for updtr_status and the
	// query gateway's /healthz (paper §IV-B's manual-failover model leaves
	// failure detection to external watchdogs, which poll exactly this).
	hmu    sync.Mutex
	health map[string]*prdcrPullHealth

	lookups      atomic.Int64
	updates      atomic.Int64
	fresh        atomic.Int64
	stale        atomic.Int64
	inconsistent atomic.Int64
	errors       atomic.Int64
	skippedBusy  atomic.Int64

	passes        atomic.Int64
	inflight      atomic.Int64 // producer pulls currently in flight
	lastPassNanos atomic.Int64 // scheduler-clock duration of the last completed pass (0 under a virtual clock)
}

// defaultUpdateBatch is how many update requests an updater pipelines per
// transport batch unless configured otherwise.
const defaultUpdateBatch = 32

// updProducerState is the updater's pull state for one producer connection
// epoch.
type updProducerState struct {
	epoch uint64
	sets  map[string]*updSet
	// Directory-generation tracking: the remote registry's generation as of
	// the last full Dir fetch. When the transport supports the DirGen poll,
	// each pass re-fetches the directory only when this moved, so set joins
	// and leaves propagate one pull interval per hop at O(1) steady cost.
	dirGen  uint64
	haveGen bool
	// Scratch reused across passes by this producer's pull goroutine.
	due []*updSet
	ops []transport.UpdateOp
}

// prdcrPullHealth is one producer's pull health as seen by this updater.
type prdcrPullHealth struct {
	lastSuccess  time.Time // scheduler time of the last clean pass
	consecErrors int64     // consecutive failed pulls since then
}

// ProducerPullHealth is the exported pull-health snapshot for one producer
// in this updater's group.
type ProducerPullHealth struct {
	Producer     string
	LastSuccess  time.Time // zero until the first clean pass
	ConsecErrors int64
}

// updSet is the pull state for one remote metric set.
type updSet struct {
	name    string // instance name in the remote directory
	regName string // local re-export name: <producer>/<name> for bare names
	remote  transport.RemoteSet
	mirror  *metric.Set
	buf     []byte
	lastDGN uint64
	haveDGN bool
	inReg   bool
	// Delta-update ack state: bufValid means buf holds a byte-accurate copy
	// of the remote data chunk as of generation bufDGN, so the next pull may
	// ask the server for just the changes since then. Cleared on any pull
	// error and on every re-lookup (reconnects, metadata changes), which
	// transparently degrades the next pull to a full chunk.
	bufDGN   uint64
	bufValid bool
	// trace is the producer's hop-chain block from the last pull (recycled
	// capacity; length 0 when the server has no chain, and on errors).
	trace []byte
}

// exportName is the paper's <producer>/<set> re-export convention: a bare
// remote instance name is qualified with the producer it came from, so an
// upstream tier's directory shows each set's origin. Names already
// qualified by a lower tier (they contain "/") pass through unchanged —
// the origin producer survives every hop.
func exportName(producer, set string) string {
	if strings.Contains(set, "/") {
		return set
	}
	return producer + "/" + set
}

// AddUpdater registers an update policy.
func (d *Daemon) AddUpdater(name string, interval, offset time.Duration, synchronous bool) (*Updater, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("ldmsd %s: updater %q: interval must be positive", d.name, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.updtrs[name]; dup {
		return nil, fmt.Errorf("ldmsd %s: updater %q already exists", d.name, name)
	}
	u := &Updater{
		d:         d,
		name:      name,
		interval:  interval,
		offset:    offset,
		synced:    synchronous,
		timeout:   interval,
		batch:     defaultUpdateBatch,
		exportRaw: true,
		state:     make(map[string]*updProducerState),
		health:    make(map[string]*prdcrPullHealth),
	}
	d.updtrs[name] = u
	return u, nil
}

// Updater returns the named updater, or nil.
func (d *Daemon) Updater(name string) *Updater {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.updtrs[name]
}

// AddProducer attaches a producer (by name) to the updater's pull group.
func (u *Updater) AddProducer(prdcrName string) error {
	if u.d.Producer(prdcrName) == nil {
		return fmt.Errorf("ldmsd %s: updater %s: unknown producer %q", u.d.name, u.name, prdcrName)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.producers = append(u.producers, prdcrName)
	return nil
}

// RemoveProducer detaches a producer from the pull group. Its pull state
// (mirrors, registry entries, arena memory) is released at the end of the
// next update pass.
func (u *Updater) RemoveProducer(prdcrName string) {
	u.mu.Lock()
	for i, n := range u.producers {
		if n == prdcrName {
			u.producers = append(u.producers[:i], u.producers[i+1:]...)
			break
		}
	}
	u.mu.Unlock()
}

// SetMatch restricts the updater to set instances for which match returns
// true (nil matches everything).
func (u *Updater) SetMatch(match func(instance string) bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.matchFn = match
}

// SetConcurrency caps how many producers this updater pulls in parallel
// within one pass: 1 forces sequential pulls, 0 (the default) leaves the
// daemon's update pool as the only bound. Virtual-time daemons always pull
// sequentially regardless.
func (u *Updater) SetConcurrency(n int) {
	u.mu.Lock()
	u.concurrency = n
	u.mu.Unlock()
}

// SetBatch sets how many update requests the updater pipelines per
// transport batch (minimum 1, meaning one blocking round trip per set).
func (u *Updater) SetBatch(n int) {
	if n < 1 {
		n = 1
	}
	u.mu.Lock()
	u.batch = n
	u.mu.Unlock()
}

// SetReduce configures in-flight reduction: each pass, this updater's
// mirrors fold per schema into reduced sets (<daemon>/<schema>_<op>) that
// publish through the daemon directory, storage policies, and query window
// like any local set. exportRaw false additionally hides the raw mirrors
// from the directory, so upstream tiers pull only the aggregates; the local
// window and stores still see full-resolution raw samples. Reduction is
// fixed while the updater runs.
func (u *Updater) SetReduce(ops []tier.Op, exportRaw bool) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.started {
		return fmt.Errorf("ldmsd %s: updater %s: reduction cannot be altered while started", u.d.name, u.name)
	}
	if len(ops) == 0 {
		u.reducer = nil
		u.exportRaw = true
		return nil
	}
	u.reducer = tier.New(tier.Config{
		Daemon:  u.d.name,
		Ops:     ops,
		SetOpts: []metric.Option{metric.WithArena(u.d.arena)},
	})
	u.exportRaw = exportRaw
	return nil
}

// ReduceStatus reports the updater's reduction configuration and counters.
// enabled is false when no reduction is configured.
func (u *Updater) ReduceStatus() (ops string, exportRaw bool, st tier.Stats, enabled bool) {
	u.mu.Lock()
	r, raw := u.reducer, u.exportRaw
	u.mu.Unlock()
	if r == nil {
		return "", true, tier.Stats{}, false
	}
	return tier.OpsString(r.Ops()), raw, r.Stats(), true
}

// MirroredSets counts the producer's sets this updater currently mirrors
// locally (lookup completed, mirror allocated).
func (u *Updater) MirroredSets(prdcrName string) int {
	u.smu.Lock()
	defer u.smu.Unlock()
	ps := u.state[prdcrName]
	if ps == nil {
		return 0
	}
	n := 0
	for _, us := range ps.sets {
		if us.mirror != nil {
			n++
		}
	}
	return n
}

// Start arms the update schedule. The schedule is fixed once started.
func (u *Updater) Start() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.started {
		return fmt.Errorf("ldmsd %s: updater %s already started; aggregation schedules cannot be altered once set", u.d.name, u.name)
	}
	u.started = true
	u.task = u.d.sch.Every(u.interval, u.offset, u.synced, u.run)
	return nil
}

// Stop cancels the schedule. A stopped updater can be restarted.
func (u *Updater) Stop() {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.task != nil {
		u.task.Cancel()
		u.task = nil
	}
	u.started = false
}

// run is one scheduled update pass over all matched producers.
func (u *Updater) run(now time.Time) {
	if !u.busy.CompareAndSwap(false, true) {
		u.skippedBusy.Add(1)
		u.d.journal.Append(obs.SevWarn, obs.CompUpdater, u.name, 0,
			"update pass skipped: previous pass still in flight")
		return
	}
	defer u.busy.Store(false)
	start := u.d.sch.Now()

	u.mu.Lock()
	prdcrs := append([]string(nil), u.producers...)
	match := u.matchFn
	conc := u.concurrency
	u.mu.Unlock()

	pool := u.d.updatePool()
	if pool == nil || conc == 1 || len(prdcrs) < 2 {
		for _, name := range prdcrs {
			u.pullProducer(name, match, now)
		}
	} else {
		if conc <= 0 || conc > len(prdcrs) {
			conc = len(prdcrs)
		}
		sem := make(chan struct{}, conc)
		var wg sync.WaitGroup
		for _, name := range prdcrs {
			name := name
			sem <- struct{}{}
			wg.Add(1)
			job := func() {
				defer func() { <-sem; wg.Done() }()
				u.pullProducer(name, match, now)
			}
			if !pool.Submit(job) {
				// Pool stopped (daemon shutting down): finish inline.
				job()
			}
		}
		wg.Wait()
	}

	u.prune(prdcrs)
	if u.reducer != nil {
		// Fold after every producer's pulls landed, so each reduced set
		// reflects one coherent pass over the group. The reduce hop records
		// each output's age: newest contributing member sample → publish.
		nowT := u.d.sch.Now()
		for _, f := range u.reducer.Fold() {
			u.d.lat.Reduce.Record(nowT.Sub(f.Time))
			// The folded set inherits its newest member's hop chain, with
			// the reduce stage stamped at publish time.
			u.d.trace.reduced(f.Set.Name(), f.Newest, f.Time, nowT)
			u.d.storeSet(f.Set)
		}
	}
	u.passes.Add(1)
	u.lastPassNanos.Store(u.d.sch.Now().Sub(start).Nanoseconds())
}

// pullProducer runs one producer's share of an update pass: directory
// refresh if needed, lookups for new sets, then pipelined data pulls.
func (u *Updater) pullProducer(name string, match func(string) bool, now time.Time) {
	u.inflight.Add(1)
	defer u.inflight.Add(-1)

	p := u.d.Producer(name)
	if p == nil {
		return
	}
	conn, names, epoch, ok := p.snapshot()
	if !ok {
		return
	}
	if len(names) == 0 {
		// The target had no sets when we connected (e.g. an aggregator
		// whose own lookups had not completed). Refresh the directory.
		ctx, cancel := u.ctx()
		fresh, err := conn.Dir(ctx)
		cancel()
		if err != nil {
			p.disconnected(epoch)
			u.recordHealth(name, false)
			return
		}
		names = fresh
		p.updateDir(epoch, fresh)
	}

	ps := u.producerState(name, epoch, names)
	if fresh, changed, ok := u.refreshDir(conn, p, ps, epoch); !ok {
		u.recordHealth(name, false)
		return
	} else if changed {
		names = fresh
	}
	failed := false
	looked := 0
	due := ps.due[:0]
	for _, sn := range names {
		us := ps.sets[sn]
		if us == nil {
			us = &updSet{name: sn, regName: exportName(name, sn)}
			ps.sets[sn] = us
		}
		if match != nil && !match(sn) {
			continue
		}
		if us.remote == nil {
			if !u.lookupSet(conn, us) {
				failed = true
				break
			}
			if us.remote != nil {
				looked++
			}
			// Data update happens on the next pass (paper Fig. 2 flow).
			continue
		}
		due = append(due, us)
	}
	ps.due = due
	if looked > 0 {
		// One aggregate event per producer pass: per-set events would flush
		// the whole journal ring on a large initial directory.
		u.d.journal.Appendf(obs.SevInfo, obs.CompUpdater, name, epoch,
			"%s looked up %d sets", u.name, looked)
	}

	batch := u.batchSize()
	for lo := 0; lo < len(due) && !failed; lo += batch {
		hi := min(lo+batch, len(due))
		ops := ps.ops[:0]
		for _, us := range due[lo:hi] {
			// Carrying the acknowledged DGN lets a delta-capable transport
			// ship only the metrics that changed since the chunk already in
			// buf; transports (or peers) without the capability ignore it.
			ops = append(ops, transport.UpdateOp{
				Set: us.remote, Dst: us.buf,
				AckDGN: us.bufDGN, HaveAck: us.bufValid,
				Trace: us.trace[:0],
			})
		}
		ps.ops = ops
		ctx, cancel := u.ctx()
		transport.UpdateAll(ctx, conn, ops)
		cancel()
		for i, us := range due[lo:hi] {
			us.trace = ops[i].Trace
			if !u.finishUpdate(us, ops[i].N, ops[i].Err) {
				failed = true
				break
			}
		}
	}
	if failed {
		p.disconnected(epoch)
	}
	u.recordHealth(name, !failed)
}

// refreshDir re-fetches the producer's directory when its registry
// generation moved (or has never been observed). It reports the fresh name
// list when a refresh ran, whether names changed, and ok=false on a
// connection-level failure. Transports without DirGen support keep the
// connect-time directory, as before.
func (u *Updater) refreshDir(conn transport.Conn, p *Producer, ps *updProducerState, epoch uint64) (names []string, changed, ok bool) {
	ctx, cancel := u.ctx()
	gen, supported, err := transport.DirGenOf(ctx, conn)
	cancel()
	if err != nil {
		p.disconnected(epoch)
		return nil, false, false
	}
	if !supported || (ps.haveGen && gen == ps.dirGen) {
		return nil, false, true
	}
	// Generation read precedes the Dir fetch: a membership change landing
	// between the two is already in the fetched directory and triggers one
	// redundant (harmless) refresh next pass.
	ctx, cancel = u.ctx()
	fresh, err := conn.Dir(ctx)
	cancel()
	if err != nil {
		p.disconnected(epoch)
		return nil, false, false
	}
	p.updateDir(epoch, fresh)
	u.syncSets(ps, fresh)
	ps.dirGen, ps.haveGen = gen, true
	return fresh, true, true
}

// syncSets releases pull state for sets that vanished from the refreshed
// directory (the leave half of join/leave propagation; joins are picked up
// by the pull loop creating state for unseen names).
func (u *Updater) syncSets(ps *updProducerState, names []string) {
	if len(ps.sets) == 0 {
		return
	}
	seen := make(map[string]struct{}, len(names))
	for _, sn := range names {
		seen[sn] = struct{}{}
	}
	for sn, us := range ps.sets {
		if _, ok := seen[sn]; !ok {
			u.releaseSet(us)
			delete(ps.sets, sn)
		}
	}
}

// recordHealth updates one producer's pull-health record at the end of its
// share of a pass: a clean pull stamps the scheduler time and clears the
// error streak, a failed one extends the streak.
func (u *Updater) recordHealth(name string, ok bool) {
	u.hmu.Lock()
	h := u.health[name]
	if h == nil {
		h = &prdcrPullHealth{}
		u.health[name] = h
	}
	if ok {
		h.lastSuccess = u.d.sch.Now()
		h.consecErrors = 0
	} else {
		h.consecErrors++
	}
	u.hmu.Unlock()
}

// PullHealth snapshots per-producer pull health, sorted by producer name.
// Producers that have never completed a pull (e.g. still connecting) carry
// a zero LastSuccess.
func (u *Updater) PullHealth() []ProducerPullHealth {
	u.mu.Lock()
	prdcrs := append([]string(nil), u.producers...)
	u.mu.Unlock()
	sort.Strings(prdcrs)
	out := make([]ProducerPullHealth, 0, len(prdcrs))
	u.hmu.Lock()
	for _, name := range prdcrs {
		ph := ProducerPullHealth{Producer: name}
		if h := u.health[name]; h != nil {
			ph.LastSuccess = h.lastSuccess
			ph.ConsecErrors = h.consecErrors
		}
		out = append(out, ph)
	}
	u.hmu.Unlock()
	return out
}

// Interval returns the updater's pull interval.
func (u *Updater) Interval() time.Duration { return u.interval }

// producerState returns the pull state for one producer connection epoch,
// building a fresh one (reusing mirrors where possible) when the epoch
// advanced. Sets that existed under the old epoch but vanished from the
// directory are released.
func (u *Updater) producerState(name string, epoch uint64, names []string) *updProducerState {
	u.smu.Lock()
	ps := u.state[name]
	if ps != nil && ps.epoch == epoch {
		u.smu.Unlock()
		return ps
	}
	// New connection epoch: connection-scoped lookup handles are void.
	// Mirrors are reused on re-lookup when metadata matches.
	old := ps
	ps = &updProducerState{epoch: epoch, sets: make(map[string]*updSet)}
	for _, sn := range names {
		us := &updSet{name: sn, regName: exportName(name, sn)}
		if old != nil {
			if prev, okp := old.sets[sn]; okp {
				us.mirror = prev.mirror
				us.buf = prev.buf
				us.inReg = prev.inReg
				// bufValid is deliberately NOT carried across epochs: the
				// peer may have restarted with rebuilt generation counters,
				// so the first pull after a reconnect is always a full chunk.
				delete(old.sets, sn)
			}
		}
		ps.sets[sn] = us
	}
	u.state[name] = ps
	u.smu.Unlock()
	if old != nil {
		// Whatever was not carried over is gone from the directory.
		for _, prev := range old.sets {
			u.releaseSet(prev)
		}
	}
	return ps
}

// prune drops pull state for producers that left the updater's group or
// were removed from the daemon, releasing their mirrors, registry entries,
// and arena memory. It runs at the end of each pass, after every producer
// goroutine has finished.
func (u *Updater) prune(current []string) {
	live := make(map[string]bool, len(current))
	for _, n := range current {
		if u.d.Producer(n) != nil {
			live[n] = true
		}
	}
	u.smu.Lock()
	var victims []*updProducerState
	for name, ps := range u.state {
		if !live[name] {
			victims = append(victims, ps)
			delete(u.state, name)
		}
	}
	u.smu.Unlock()
	for _, ps := range victims {
		for _, us := range ps.sets {
			u.releaseSet(us)
		}
	}
	u.hmu.Lock()
	for name := range u.health {
		if !live[name] {
			delete(u.health, name)
		}
	}
	u.hmu.Unlock()
}

// releaseSet drops one set's mirror: out of the reducer's fold group, out
// of the daemon registry, its arena chunks freed.
func (u *Updater) releaseSet(us *updSet) {
	if us.mirror != nil {
		if u.reducer != nil {
			u.retireReduced(u.reducer.RemoveMember(us.regName))
		}
		if us.inReg {
			u.d.reg.Remove(us.regName)
			us.inReg = false
		}
		u.d.trace.drop(us.regName)
		us.mirror.Delete()
		us.mirror = nil
	}
	us.remote = nil
	us.buf = nil
	us.trace = nil
}

// retireReduced deregisters and releases reduced sets whose last member
// left (the tail half of a schema's group disappearing from this tier).
func (u *Updater) retireReduced(sets []*metric.Set) {
	for _, rs := range sets {
		u.d.reg.Remove(rs.Name())
		u.d.trace.drop(rs.Name())
		rs.Delete()
	}
}

// batchSize returns the configured pipeline batch size (>= 1).
func (u *Updater) batchSize() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.batch < 1 {
		return 1
	}
	return u.batch
}

// ctx returns the deadline context for one transport operation (or one
// pipelined batch of them).
func (u *Updater) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), u.timeout)
}

// lookupSet performs the one-time metadata fetch and mirror creation for a
// set. It reports false on a connection-level failure.
func (u *Updater) lookupSet(conn transport.Conn, us *updSet) bool {
	ctx, cancel := u.ctx()
	defer cancel()
	remote, err := conn.Lookup(ctx, us.name)
	if err != nil {
		u.errors.Add(1)
		if err == transport.ErrNoSuchSet {
			return true // set went away; not a connection failure
		}
		return false
	}
	u.lookups.Add(1)

	// Reuse the existing mirror when the metadata generation still
	// matches; otherwise build a fresh one.
	if us.mirror == nil || us.mirror.MGN() != remote.Meta().MGN {
		if us.mirror != nil {
			if u.reducer != nil {
				u.retireReduced(u.reducer.RemoveMember(us.regName))
			}
			if us.inReg {
				u.d.reg.Remove(us.regName)
				us.inReg = false
			}
			us.mirror.Delete()
		}
		// The mirror takes the local re-export name: the remote MGN/DGN
		// still propagate verbatim through LoadData, so staleness and
		// torn-read detection survive the hop under the qualified name.
		mirror, err := remote.Meta().NewMirrorNamed(us.regName, metric.WithArena(u.d.arena))
		if err != nil {
			// Arena exhaustion or malformed metadata: count and retry on a
			// later pass.
			us.mirror = nil
			u.errors.Add(1)
			return true
		}
		us.mirror = mirror
		us.buf = make([]byte, remote.Meta().DataSize)
		us.haveDGN = false
		if u.reducer != nil {
			created, rerr := u.reducer.AddMember(us.regName, mirror)
			if rerr != nil {
				u.d.journal.Appendf(obs.SevWarn, obs.CompUpdater, us.regName, 0,
					"%s: set excluded from reduction: %v", u.name, rerr)
			}
			for _, rs := range created {
				if err := u.d.reg.Add(rs); err != nil {
					u.d.journal.Appendf(obs.SevWarn, obs.CompUpdater, rs.Name(), 0,
						"%s: reduced set not exported: %v", u.name, err)
				}
			}
		}
	}
	us.remote = remote
	// A fresh lookup means the connection or the set changed under us (new
	// epoch, recreated set, metadata bump). Whatever buf held is no longer a
	// trusted delta base; the first pull on the new handle moves the full
	// chunk and re-arms delta from there.
	us.bufValid = false
	// Registration retries on every lookup (not just mirror creation): a
	// name squatted by another producer's mirror — e.g. the failed half of
	// a failover pair — may have been released since.
	if u.exportRaw && !us.inReg && us.mirror != nil {
		if err := u.d.reg.Add(us.mirror); err == nil {
			us.inReg = true
		}
	}
	return true
}

// finishUpdate applies one completed data pull: fresh consistent data goes
// to storage, stale or torn samples are counted and skipped. It reports
// false on a connection-level failure. This is the pull inner loop, run
// once per set per pass.
//
//ldms:hotpath
func (u *Updater) finishUpdate(us *updSet, n int, err error) bool {
	if err != nil {
		us.bufValid = false
		u.errors.Add(1)
		return false
	}
	u.updates.Add(1)
	if err := us.mirror.LoadData(us.buf[:n]); err != nil {
		// Metadata generation changed: schedule a fresh lookup. The chunk in
		// buf belongs to the new layout, so it is not a usable delta base.
		us.remote = nil
		us.bufValid = false
		u.errors.Add(1)
		return true
	}
	dgn := us.mirror.DGN()
	// buf now holds a truthful remote snapshot at dgn — even a torn or stale
	// one is a byte-accurate base for the next delta request.
	us.bufDGN, us.bufValid = dgn, true
	// "Collection of a metric set whose data has not been updated or is
	// incomplete does not result in a write to storage."
	if !us.mirror.Consistent() {
		u.inconsistent.Add(1)
		return true
	}
	if us.haveDGN && dgn == us.lastDGN {
		u.stale.Add(1)
		return true
	}
	us.lastDGN = dgn
	us.haveDGN = true
	u.fresh.Add(1)
	// Pull-hop latency: sample age (transaction-end stamp in the raw pull
	// buffer vs scheduler now) at the moment the mirror went consistent.
	// DataTimestamp reads the header straight off the single-owner buffer,
	// so the hot path stays one timestamp read + one atomic increment.
	if ts := metric.DataTimestamp(us.buf); !ts.IsZero() {
		now := u.d.sch.Now()
		u.d.lat.Pull.Record(now.Sub(ts))
		// Install the sample's hop chain: the producer's trace block (empty
		// when its server has no trace hook) plus this daemon's pull stamp.
		u.d.trace.pulled(us.regName, us.trace, ts, now)
	}
	// Mark the member fresh so the end-of-pass fold re-reduces its group:
	// one map lookup and a flag, nothing allocated.
	if u.reducer != nil {
		u.reducer.Observe(us.regName)
	}
	// Fan the sample out to the recent window and storage policies. This
	// is a bounded-queue enqueue, never a store write: a slow or syncing
	// backend cannot inflate pull-pass latency (the store pool drains the
	// queues asynchronously).
	u.d.storeSet(us.mirror)
	return true
}
