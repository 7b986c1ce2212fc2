package ldmsd

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/obs"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// ProducerState tracks a producer's connection lifecycle.
type ProducerState int

// Producer states.
const (
	ProducerStopped ProducerState = iota
	ProducerDisconnected
	ProducerConnecting
	ProducerConnected
)

// String renders the state for the control interface.
func (s ProducerState) String() string {
	switch s {
	case ProducerStopped:
		return "STOPPED"
	case ProducerDisconnected:
		return "DISCONNECTED"
	case ProducerConnecting:
		return "CONNECTING"
	case ProducerConnected:
		return "CONNECTED"
	default:
		return "UNKNOWN"
	}
}

// Producer is a connection to a collection target (a sampler ldmsd or
// another aggregator). Standby producers hold connections and state for
// sets whose primary aggregator is elsewhere; they are only pulled after
// Activate (paper §IV-B: there is no internal mechanism to detect a primary
// going down — activation is manual or by an external watchdog).
//
// A producer owns only the connection; per-set pull state (lookup handles,
// mirrors, generation tracking) belongs to the updaters pulling from it,
// keyed by the connection epoch so reconnections invalidate stale handles.
type Producer struct {
	d         *Daemon
	name      string
	host      string
	xprt      transport.Factory // nil for passive producers
	reconnect time.Duration
	standby   bool

	// passive producers receive their connection from the remote side
	// (the sampler advertises in); they never dial.
	passive bool

	mu       sync.Mutex
	state    ProducerState
	conn     transport.Conn
	epoch    uint64 // bumped on every successful connect
	setNames []string
	started  bool
	active   bool // standby producers: true once activated
	retry    *sched.Task
	// closedStats accumulates transfer counters from connections that have
	// been torn down, so totals survive reconnect cycles.
	closedStats transport.ConnStats

	connects    atomic.Int64 // successful connection establishments
	disconnects atomic.Int64 // teardowns after an established connection
	connErrors  atomic.Int64 // failed connection attempts
}

// AddProducer registers a collection target. reconnect is the retry
// interval for failed connections.
func (d *Daemon) AddProducer(name, transportName, host string, reconnect time.Duration, standby bool) (*Producer, error) {
	f, err := d.transportByName(transportName)
	if err != nil {
		return nil, err
	}
	if reconnect <= 0 {
		reconnect = time.Second
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.prdcrs[name]; dup {
		return nil, fmt.Errorf("ldmsd %s: producer %q already exists", d.name, name)
	}
	p := &Producer{
		d:         d,
		name:      name,
		host:      host,
		xprt:      f,
		reconnect: reconnect,
		standby:   standby,
		active:    !standby,
	}
	d.prdcrs[name] = p
	return p, nil
}

// Producer returns the named producer, or nil.
func (d *Daemon) Producer(name string) *Producer {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.prdcrs[name]
}

// Name returns the producer name.
func (p *Producer) Name() string { return p.name }

// State returns the current connection state.
func (p *Producer) State() ProducerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Standby reports whether this is a failover (standby) producer.
func (p *Producer) Standby() bool { return p.standby }

// Active reports whether updaters should pull from this producer.
func (p *Producer) Active() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Activate enables pulling from a standby producer, the failover action an
// external watchdog performs when a primary aggregator dies.
func (p *Producer) Activate() {
	p.mu.Lock()
	was := p.active
	p.active = true
	standby := p.standby
	p.mu.Unlock()
	if standby && !was {
		p.d.journal.Append(obs.SevWarn, obs.CompProducer, p.name, 0, "standby activated")
	}
}

// Deactivate returns a standby producer to passive mode.
func (p *Producer) Deactivate() {
	if !p.standby {
		return
	}
	p.mu.Lock()
	was := p.active
	p.active = false
	p.mu.Unlock()
	if was {
		p.d.journal.Append(obs.SevInfo, obs.CompProducer, p.name, 0, "standby deactivated")
	}
}

// Host returns the producer's target address ("" for passive producers).
func (p *Producer) Host() string { return p.host }

// TransportName returns the producer's transport type, or "peer" for
// passive producers whose connection arrives from the remote side.
func (p *Producer) TransportName() string {
	if p.xprt == nil {
		return "peer"
	}
	return p.xprt.Name()
}

// ProducerCounters is a snapshot of a producer's lifecycle and transfer
// counters for prdcr_status and the query gateway.
type ProducerCounters struct {
	Connects     int64 // successful connection establishments
	Disconnects  int64 // teardowns after an established connection
	ConnectFails int64 // failed connection attempts
	Transport    transport.ConnStats
}

// Counters snapshots the producer's lifecycle counters and transfer totals
// (live connection plus all closed epochs).
func (p *Producer) Counters() ProducerCounters {
	c := ProducerCounters{
		Connects:     p.connects.Load(),
		Disconnects:  p.disconnects.Load(),
		ConnectFails: p.connErrors.Load(),
	}
	p.mu.Lock()
	c.Transport = p.closedStats
	if p.conn != nil {
		if live, ok := transport.StatsOf(p.conn); ok {
			c.Transport.Add(live)
		}
	}
	p.mu.Unlock()
	return c
}

// retireConn folds a dying connection's transfer counters into the
// producer's running total. Caller holds p.mu.
func (p *Producer) retireConn(conn transport.Conn) {
	if conn == nil {
		return
	}
	if st, ok := transport.StatsOf(conn); ok {
		p.closedStats.Add(st)
	}
}

// Start begins connecting (and reconnecting) to the target.
func (p *Producer) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.state = ProducerDisconnected
	passive := p.passive
	p.mu.Unlock()
	if !passive {
		p.scheduleConnect(0)
	}
}

// Stop disconnects and stops reconnecting.
func (p *Producer) Stop() {
	p.mu.Lock()
	wasStarted := p.started
	p.started = false
	p.state = ProducerStopped
	if p.retry != nil {
		p.retry.Cancel()
		p.retry = nil
	}
	conn := p.conn
	epoch := p.epoch
	p.conn = nil
	p.retireConn(conn)
	p.mu.Unlock()
	if conn != nil {
		p.disconnects.Add(1)
		conn.Close()
	}
	if wasStarted {
		p.d.journal.Append(obs.SevInfo, obs.CompProducer, p.name, epoch, "stopped")
	}
}

// scheduleConnect arms a connection attempt after delay.
func (p *Producer) scheduleConnect(delay time.Duration) {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return
	}
	p.state = ProducerConnecting
	p.retry = p.d.sch.After(delay, func(time.Time) {
		p.d.submitConn(p.connectAttempt)
	})
	p.mu.Unlock()
}

// connectAttempt dials the target and performs the initial dir. It runs on
// the connection pool so hung attempts cannot starve update workers.
func (p *Producer) connectAttempt() {
	p.mu.Lock()
	if !p.started || p.conn != nil {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()

	conn, err := p.xprt.Dial(p.host)
	if err != nil {
		p.connectionFailed()
		return
	}
	names, err := conn.Dir(context.Background())
	if err != nil {
		conn.Close()
		p.connectionFailed()
		return
	}
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.conn = conn
	p.state = ProducerConnected
	p.epoch++
	epoch := p.epoch
	p.setNames = names
	p.mu.Unlock()
	p.connects.Add(1)
	msg := "connected"
	if epoch > 1 {
		msg = "reconnected"
	}
	p.d.journal.Append(obs.SevInfo, obs.CompProducer, p.name, epoch, msg)
}

// connectionFailed records a failure and schedules a retry. Failed attempts
// go to the debug log only: retry loops against a dead target would flood
// the journal, whose ring is reserved for state transitions.
func (p *Producer) connectionFailed() {
	p.connErrors.Add(1)
	p.mu.Lock()
	started := p.started
	p.state = ProducerDisconnected
	p.mu.Unlock()
	p.d.log.Debug("producer connect failed",
		slog.String("producer", p.name),
		slog.String("host", p.host),
		slog.Int64("attempts", p.connErrors.Load()))
	if started {
		p.scheduleConnect(p.reconnect)
	}
}

// disconnected tears down after an I/O error and schedules reconnection.
// Updaters detect the epoch change and drop their connection-scoped set
// handles; mirrors keep serving the last good data downstream until fresh
// lookups replace them.
func (p *Producer) disconnected(epoch uint64) {
	p.mu.Lock()
	if p.epoch != epoch || p.conn == nil {
		// Another updater already handled this failure.
		p.mu.Unlock()
		return
	}
	conn := p.conn
	p.conn = nil
	p.retireConn(conn)
	started := p.started
	p.state = ProducerDisconnected
	passive := p.passive
	p.mu.Unlock()
	if conn != nil {
		p.disconnects.Add(1)
		conn.Close()
	}
	p.d.journal.Append(obs.SevWarn, obs.CompProducer, p.name, epoch, "disconnected")
	// Passive producers wait for the sampler to advertise back in rather
	// than dialing out.
	if started && !passive {
		p.scheduleConnect(p.reconnect)
	}
}

// updateDir replaces the discovered set list if the connection epoch still
// matches (an updater refreshing an initially empty directory).
func (p *Producer) updateDir(epoch uint64, names []string) {
	p.mu.Lock()
	if p.epoch == epoch {
		p.setNames = names
	}
	p.mu.Unlock()
}

// snapshot returns the connection, discovered set names and epoch for an
// updater pass. ok is false when the producer should not be pulled.
func (p *Producer) snapshot() (transport.Conn, []string, uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != ProducerConnected || !p.active || p.conn == nil {
		return nil, nil, 0, false
	}
	return p.conn, p.setNames, p.epoch, true
}

// SetNames lists the set instances discovered on the target.
func (p *Producer) SetNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.setNames...)
}
