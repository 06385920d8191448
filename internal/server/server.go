// Package server implements predmatchd, the network rule-service
// daemon: a TCP server that owns a storage.DB, a forward-chaining rule
// engine and a shard.ShardedMatcher, and speaks the newline-delimited
// JSON protocol of internal/wire (see docs/PROTOCOL.md).
//
// The paper's predicate index exists to serve a database rule system —
// external clients register predicates and rules and are told when
// tuples match. This package is that serving layer:
//
//   - Mutations (insert/update/delete) and DDL (declare, rule, addpred)
//     are serialized through one server mutex, because the engine's
//     cascade execution is single-threaded by design.
//   - match/matchbatch requests bypass the mutex entirely and stab the
//     sharded matcher's lock-free snapshots, so read traffic scales
//     across connections regardless of write load.
//   - Subscriptions stream rule firings (via the engine's OnFire hook)
//     and predicate matches to clients. Every connection has a bounded
//     notification queue with a drop-newest overflow policy: a slow
//     consumer loses notifications (counted, and visible to the client
//     as sequence-number gaps) but can never block the match path.
//
// Robustness contract: per-frame write deadlines, an idle read timeout
// for unsubscribed connections, a connection limit that rejects rather
// than queues, and context-driven graceful shutdown that drains
// in-flight requests and queued notifications.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predmatch/internal/core"
	"predmatch/internal/engine"
	"predmatch/internal/ibs"
	"predmatch/internal/obs"
	"predmatch/internal/pred"
	"predmatch/internal/shard"
	"predmatch/internal/storage"
	"predmatch/internal/trace"
	"predmatch/internal/tuple"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// DirectPredBase is the first predicate ID handed to addpred requests.
// The engine allocates rule-predicate IDs counting up from 1; direct
// client predicates live in their own high range so the two allocators
// never collide.
const DirectPredBase pred.ID = 1 << 40

// Config tunes a Server. The zero value picks the documented defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe (default :7341).
	Addr string
	// MaxConns bounds concurrent client connections; further dials are
	// rejected with an error frame (default 128).
	MaxConns int
	// QueueLen is the per-connection notification queue capacity; when
	// full, new notifications for that connection are dropped and
	// counted (default 1024).
	QueueLen int
	// WriteTimeout bounds writing one frame to a client; a missed
	// deadline tears the connection down (default 10s).
	WriteTimeout time.Duration
	// IdleTimeout closes connections with no active subscription that
	// send no request for this long (default 0 = never).
	IdleTimeout time.Duration
	// Logf receives connection-level diagnostics (default: discard).
	Logf func(format string, args ...any)
	// Registry receives the daemon's metrics and turns on hot-path
	// instrumentation down through the matcher and the IBS-trees
	// (default nil = fully uninstrumented; see internal/obs).
	Registry *obs.Registry
	// Logger receives structured lifecycle events: connection
	// accept/reject/close, slow requests, shutdown phases (default:
	// discard).
	Logger *slog.Logger
	// SlowRequest logs any request slower than this threshold at Warn
	// level via Logger (default 0 = disabled).
	SlowRequest time.Duration
	// DataDir enables durability: state-changing requests are written to
	// a write-ahead log in this directory before they are acked, and Open
	// recovers the directory's snapshot + log on start (default "" =
	// fully in-memory, the pre-durability behavior).
	DataDir string
	// Sync is the WAL fsync policy: always, interval or off (default
	// always). Ignored without DataDir.
	Sync wal.SyncPolicy
	// SyncEvery is the fsync period under the interval policy.
	SyncEvery time.Duration
	// WALSegmentBytes is the log segment rotation size (default 64 MiB).
	WALSegmentBytes int64
	// SnapshotEvery checkpoints the full state on this period (default
	// 0 = only on shutdown and on explicit backup requests).
	SnapshotEvery time.Duration
	// IndexOptions configures each relation shard's core.Index — e.g.
	// the core.WithIndexFactory set internal/strategy.CoreOptions
	// resolves for `predmatchd -index hint` (default nil = IBS-trees).
	IndexOptions []core.Option
	// MatcherName overrides the sharded matcher's reported name when
	// IndexOptions swap the attribute structure (default "" = keep
	// "sharded").
	MatcherName string
	// FollowerOf starts the server as a replication follower of the
	// leader at this address: mutations and DDL are rejected with a
	// redirect, and state arrives by applying the leader's WAL stream
	// (default "" = leader). Requires DataDir. The server only gates
	// requests by role; the stream itself is driven by an attached
	// internal/repl.Follower (see AttachFollower).
	FollowerOf string
	// MinSeqWait bounds how long a follower read carrying min_seq waits
	// for replication to catch up before failing with a leader redirect
	// (default 2s).
	MinSeqWait time.Duration
	// Tracer enables request-scoped tracing: requests carrying a trace
	// context (Request.Trace) and head-sampled requests are traced
	// through dispatch, matching, the firing cascade and the WAL, and
	// recorded in the tracer's flight recorder (default nil = tracing
	// off; a nil tracer's methods are no-ops, so the request path pays
	// only nil checks).
	Tracer *trace.Tracer
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = ":7341"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 128
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Logger == nil {
		// A handler whose level no record reaches: Enabled() fails before
		// any attribute is assembled, so the default logger costs nothing.
		c.Logger = slog.New(slog.NewTextHandler(io.Discard,
			&slog.HandlerOptions{Level: slog.Level(127)}))
	}
	if c.Sync == "" {
		c.Sync = wal.SyncAlways
	}
	if c.MinSeqWait <= 0 {
		c.MinSeqWait = 2 * time.Second
	}
}

// Server is one rule-service daemon instance. Construct with New, drive
// with ListenAndServe or Serve, stop with Shutdown or Close.
type Server struct {
	cfg   Config
	db    *storage.DB
	funcs *pred.Registry
	sm    *shard.ShardedMatcher
	eng   *engine.Engine

	// mu serializes mutations and DDL through the engine. The match
	// path never takes it.
	mu sync.Mutex
	// firings counts rule activations of the mutation currently being
	// executed under mu.
	firings int // guarded-by: mu
	// pending accumulates the storage events applied by the mutation
	// currently executing, captured by onEventWAL for its log record.
	pending []wal.Event // guarded-by: mu
	// directPreds tracks client-registered predicates in wire form, for
	// checkpoint snapshots.
	directPreds map[int64]*wire.Predicate // guarded-by: mu
	// nextPredID allocates direct (addpred) predicate IDs. Writers hold
	// mu; reads are lock-free.
	nextPredID atomic.Int64

	// wal is the durability log; nil without Config.DataDir. The handle
	// is set once before Serve and never changes; the Log is internally
	// synchronized.
	wal      *wal.Log
	recovery wal.RecoveryInfo
	// snapMu serializes checkpoints (the timer vs. backup requests).
	snapMu       sync.Mutex
	walOnce      sync.Once
	snapLoopDone chan struct{}

	// isFollower is the replication role: true while the server rejects
	// mutations and applies the leader's stream; Promote flips it off.
	isFollower atomic.Bool
	// applied is the follower's read frontier: the last replicated
	// sequence applied and locally durable. Leaders use the log end
	// instead (see appliedSeq).
	applied atomic.Uint64
	// appliedMu guards the appliedWait broadcast channel, which is
	// closed and replaced each time applied advances (min_seq waiters).
	appliedMu   sync.Mutex
	appliedWait chan struct{} // guarded-by: appliedMu
	// replMu guards the attached replication controller handles.
	replMu     sync.Mutex
	follower   FollowerInfo // guarded-by: replMu
	stopFollow func()       // guarded-by: replMu

	lnMu sync.Mutex
	ln   net.Listener // guarded-by: lnMu

	// done is closed exactly once by Close (via closeOnce) and is
	// otherwise only received from; wg tracks per-connection and
	// streamer goroutines so Close can wait them out.
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	connMu sync.Mutex
	conns  map[*conn]struct{} // guarded-by: connMu

	subMu sync.Mutex
	subs  map[*conn]*subscription // guarded-by: subMu

	// ledger is the daemon-wide notification account; each conn keeps
	// its own as well.
	ledger noteLedger

	// met holds the request-path metric handles; nil when cfg.Registry
	// is nil, which compiles the instrumentation down to nil checks.
	met *serverMetrics

	// prof accumulates the per-relation workload profile (stab latency,
	// selectivity, write rate, queried attributes) that feeds the stats
	// surface and /varz; always on — its cost is a few uncontended
	// atomic adds per operation. See internal/trace.Profiles.
	prof *trace.Profiles
}

// subscription is one connection's notification filter and counters,
// all guarded by Server.subMu.
type subscription struct {
	rules map[string]bool // nil = every rule
	preds bool            // also stream direct-predicate matches
	seq   uint64          // notifications generated for this subscription
	drops uint64          // notifications dropped by the overflow policy
}

// noteLedger accounts for notifications. Every notification offered to
// a connection is counted generated first. It then stays pending
// (queued, or being written) until it is delivered (written to the
// socket) or dropped (by the overflow policy, or because its connection
// closed before writing it). Only generated, delivered and dropped are
// stored; pending is their difference, read so it is never negative.
type noteLedger struct {
	generated, delivered, dropped atomic.Uint64
}

// read returns the ledger with generated = delivered + dropped + pending
// exactly. A notification is counted generated before it can be counted
// delivered or dropped, and generated is loaded last, so it covers
// every notification the two earlier loads counted.
func (l *noteLedger) read() (generated, delivered, dropped, pending uint64) {
	delivered = l.delivered.Load()
	dropped = l.dropped.Load()
	generated = l.generated.Load()
	return generated, delivered, dropped, generated - delivered - dropped
}

// New builds a daemon with an empty database, the built-in function
// registry and a sharded matcher. For a durable daemon (Config.DataDir
// set) use Open, which can report recovery errors; New panics on them.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v (use Open to handle recovery errors)", err))
	}
	return s
}

// newServer assembles the in-memory daemon; Open layers recovery and
// the WAL on top. cfg must already be filled.
func newServer(cfg Config) *Server {
	s := &Server{
		cfg:         cfg,
		db:          storage.NewDB(),
		funcs:       pred.NewRegistry(),
		done:        make(chan struct{}),
		conns:       make(map[*conn]struct{}),
		subs:        make(map[*conn]*subscription),
		directPreds: make(map[int64]*wire.Predicate),
		appliedWait: make(chan struct{}),
		prof:        trace.NewProfiles(),
	}
	s.nextPredID.Store(int64(DirectPredBase))
	if cfg.FollowerOf != "" {
		s.isFollower.Store(true)
	}
	// Workload profiling: count every applied storage event (trigger and
	// cascade) against its relation. Registered before the engine's
	// observer so a rule raise (which aborts the notify chain) cannot
	// hide an applied event from the profile.
	s.db.Observe(s.onEventProfile)
	if cfg.DataDir != "" {
		// The WAL capture observer must be registered before the engine's:
		// the notify chain aborts at the first observer error (a rule
		// raise), and the log must still see every event applied before
		// the abort.
		s.db.Observe(s.onEventWAL)
	}
	var smOpts []shard.Option
	var engOpts []engine.Option
	// All core options must land in ONE WithIndexOptions call (it
	// replaces rather than appends). cfg.IndexOptions come last so a
	// configured WithIndexFactory wins over the instrumentation's IBS
	// tree options.
	var idxOpts []core.Option
	if cfg.Registry != nil {
		// One ibs.Counters is shared by every tree of every copy-on-write
		// snapshot: the index factory bakes the Instrument option in, so
		// clones keep feeding the same counters.
		smOpts = append(smOpts, shard.WithMetrics(cfg.Registry))
		idxOpts = append(idxOpts, core.WithTreeOptions(
			ibs.Instrument(ibs.RegisterCounters(cfg.Registry))))
		engOpts = append(engOpts, engine.WithMetrics(cfg.Registry))
	}
	idxOpts = append(idxOpts, cfg.IndexOptions...)
	if len(idxOpts) > 0 {
		smOpts = append(smOpts, shard.WithIndexOptions(idxOpts...))
	}
	if cfg.MatcherName != "" {
		smOpts = append(smOpts, shard.WithName(cfg.MatcherName))
	}
	s.sm = shard.New(s.db.Catalog(), s.funcs, smOpts...)
	// Install the profile accumulator before any predicate registration
	// (recovery replay included): shards resolve their handle at creation.
	s.sm.SetProfiles(s.prof)
	s.eng = engine.New(s.db, s.funcs, s.sm, engOpts...)
	s.met = newServerMetrics(cfg.Registry, s)
	s.eng.OnFire(s.onFire)
	// Predicate-match streaming: a second observer (after the engine's)
	// re-stabs the index for events whenever some subscriber asked for
	// direct-predicate matches.
	s.db.Observe(s.onEventPreds)
	return s
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown/Close.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address once Serve is running (for tests
// listening on ":0"), or nil before that.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown or Close.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	defer ln.Close()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return ErrServerClosed
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn admits or rejects one accepted connection.
func (s *Server) startConn(nc net.Conn) {
	c := &conn{
		s:          s,
		nc:         nc,
		resp:       make(chan wire.Message, 16),
		notes:      make(chan wire.Message, s.cfg.QueueLen),
		readerDone: make(chan struct{}),
		writerGone: make(chan struct{}),
	}
	s.connMu.Lock()
	select {
	case <-s.done:
		s.connMu.Unlock()
		nc.Close()
		return
	default:
	}
	if len(s.conns) >= s.cfg.MaxConns {
		s.connMu.Unlock()
		s.cfg.Logf("server: rejecting %s: connection limit %d reached", nc.RemoteAddr(), s.cfg.MaxConns)
		s.cfg.Logger.Warn("connection rejected",
			"remote", nc.RemoteAddr().String(), "limit", s.cfg.MaxConns)
		if s.met != nil {
			s.met.rejected.Inc()
		}
		nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		json.NewEncoder(nc).Encode(wire.Message{
			Type: wire.TypeResponse, Error: "server at connection limit",
		})
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	n := len(s.conns)
	// Increment while still holding connMu: Shutdown closes done and then
	// takes connMu before starting wg.Wait, so a connection admitted here
	// is always counted before that Wait can observe a zero counter.
	s.wg.Add(2)
	s.connMu.Unlock()
	s.cfg.Logger.Debug("connection accepted",
		"remote", nc.RemoteAddr().String(), "conns", n)

	go c.readLoop()
	go c.writeLoop()
}

// removeConn drops a finished connection from the registries.
func (s *Server) removeConn(c *conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.subMu.Lock()
	delete(s.subs, c)
	s.subMu.Unlock()
	// No offer reaches c any more and its writer has exited: whatever it
	// still held unwritten is lost with the connection.
	_, delivered, _, lost := c.ledger.read()
	s.ledger.dropped.Add(lost)
	s.cfg.Logger.Debug("connection closed",
		"remote", c.nc.RemoteAddr().String(), "delivered", delivered, "lost", lost)
}

// Stopping reports whether Shutdown or Close has begun; the admin
// endpoint's health check flips to unhealthy on it.
func (s *Server) Stopping() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Shutdown stops accepting, unblocks idle readers, and waits for every
// connection to drain its in-flight request and queued responses. If
// ctx expires first, remaining connections are closed forcibly and the
// context error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		close(s.done)
	})
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()
	s.cfg.Logger.Info("shutdown: listener closed, draining connections")
	// Wake readers blocked waiting for the next request; readers in the
	// middle of a request finish it first.
	s.connMu.Lock()
	waking := len(s.conns)
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	if waking > 0 {
		s.cfg.Logger.Info("shutdown: waking idle readers", "conns", waking)
	}

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		s.cfg.Logger.Info("shutdown: drained")
		s.closeWAL()
		return nil
	case <-ctx.Done():
		s.connMu.Lock()
		forced := len(s.conns)
		for c := range s.conns {
			c.nc.Close()
		}
		s.connMu.Unlock()
		s.cfg.Logger.Warn("shutdown: drain deadline expired, closing connections",
			"conns", forced)
		<-drained
		s.closeWAL()
		return ctx.Err()
	}
}

// Close shuts the server down without a drain grace period.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// onFire is the engine hook: fan one rule activation out to every
// subscription whose filter accepts it. It runs inside the mutation
// (under s.mu) and must never block, so queue overflow drops.
//
//predmatchvet:holds mu
func (s *Server) onFire(ev engine.FiringEvent) {
	s.firings++
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for c, sub := range s.subs {
		if sub.rules != nil && !sub.rules[ev.Rule] {
			continue
		}
		sub.seq++
		s.offer(c, sub, wire.Message{
			Type:     wire.TypeNotify,
			Seq:      sub.seq,
			Rule:     ev.Rule,
			Relation: ev.Rel,
			EventOp:  ev.Op.String(),
			EventID:  int64(ev.TupleID),
			Tuple:    wire.FromTuple(ev.Tuple),
			Depth:    ev.Depth,
			Dropped:  sub.drops,
		})
	}
}

// onEventPreds streams direct-predicate matches: when any subscription
// asked for them, re-match the event's tuple and report the matching
// client-registered predicate IDs.
func (s *Server) onEventPreds(ev storage.Event) error {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	wanted := false
	for _, sub := range s.subs {
		if sub.preds {
			wanted = true
			break
		}
	}
	if !wanted {
		return nil
	}
	t := ev.New
	if ev.Op == storage.OpDelete {
		t = ev.Old
	}
	if t == nil {
		return nil
	}
	ids, err := s.sm.Match(ev.Rel, t, nil)
	if err != nil {
		return nil // matching problems surface on the engine path
	}
	var direct []int64
	for _, id := range ids {
		if id >= DirectPredBase {
			direct = append(direct, int64(id))
		}
	}
	if len(direct) == 0 {
		return nil
	}
	for c, sub := range s.subs {
		if !sub.preds {
			continue
		}
		sub.seq++
		s.offer(c, sub, wire.Message{
			Type:     wire.TypeNotify,
			Seq:      sub.seq,
			Relation: ev.Rel,
			EventOp:  ev.Op.String(),
			EventID:  int64(ev.ID),
			Tuple:    wire.FromTuple(t),
			Matches:  direct,
			Dropped:  sub.drops,
		})
	}
	return nil
}

// offer enqueues a notification without ever blocking: the overflow
// policy is drop-newest, counted per subscription and globally.
// Callers hold subMu.
func (s *Server) offer(c *conn, sub *subscription, m wire.Message) {
	// Count it generated before the enqueue: the writer may deliver it
	// the moment it is queued.
	s.ledger.generated.Add(1)
	c.ledger.generated.Add(1)
	select {
	case c.notes <- m:
	default:
		sub.drops++
		s.ledger.dropped.Add(1)
		c.ledger.dropped.Add(1)
	}
}

// conn is one client connection: a reader goroutine that decodes and
// executes requests, and a writer goroutine that owns the socket's
// write side, multiplexing responses (never dropped) with notifications
// (bounded queue).
type conn struct {
	s     *Server
	nc    net.Conn
	resp  chan wire.Message
	notes chan wire.Message
	// readerDone is closed when the reader stops issuing responses; the
	// writer then drains and closes the socket.
	readerDone chan struct{}
	// writerGone is closed when the writer exits (write error or
	// drain complete), unblocking a reader stuck on a full resp queue.
	writerGone chan struct{}
	// ledger accounts for the notifications offered to this
	// connection, for the per-connection stats breakdown.
	ledger noteLedger
	// replica marks a connection serving a replication stream; replSeq
	// is the last sequence shipped to it (stats surface).
	replica atomic.Bool
	replSeq atomic.Uint64
}

// subscribed reports whether the connection has an active subscription
// (which exempts it from the idle timeout).
func (c *conn) subscribed() bool {
	c.s.subMu.Lock()
	defer c.s.subMu.Unlock()
	_, ok := c.s.subs[c]
	return ok
}

func (c *conn) readLoop() {
	defer c.s.wg.Done()
	defer close(c.readerDone)
	sc := bufio.NewScanner(c.nc)
	sc.Buffer(make([]byte, 0, 4096), wire.MaxLineBytes)
	for {
		if idle := c.s.cfg.IdleTimeout; idle > 0 && !c.subscribed() {
			c.nc.SetReadDeadline(time.Now().Add(idle))
		} else {
			c.nc.SetReadDeadline(time.Time{})
		}
		// Check done only after arming the deadline: Shutdown closes done
		// before setting its wake-up deadline, so if the line above
		// overwrote that wake-up, done is already observably closed here
		// and we return instead of blocking in Scan forever.
		select {
		case <-c.s.done:
			return
		default:
		}
		if !sc.Scan() {
			// EOF, peer reset, idle timeout, shutdown wake-up, or an
			// over-long line: the connection is done either way.
			if err := sc.Err(); err != nil {
				c.s.cfg.Logf("server: %s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var req wire.Request
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		if err := dec.Decode(&req); err != nil {
			// Framing is broken; answer once and hang up.
			c.send(errMsg(0, fmt.Errorf("bad request frame: %w", err)))
			return
		}
		if !c.send(c.s.handle(c, &req)) {
			return
		}
	}
}

// send queues a response for the writer. It blocks when the response
// queue is full (backpressure on the request path) but aborts if the
// writer is gone.
func (c *conn) send(m wire.Message) bool {
	select {
	case c.resp <- m:
		return true
	case <-c.writerGone:
		return false
	}
}

func (c *conn) writeLoop() {
	defer c.s.wg.Done()
	defer c.s.removeConn(c)
	defer c.nc.Close()
	defer close(c.writerGone)
	enc := json.NewEncoder(c.nc)
	write := func(m wire.Message) bool {
		c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
		if err := enc.Encode(m); err != nil {
			// Write error or missed deadline: a partially written frame
			// cannot be recovered under line framing, so tear down.
			c.s.cfg.Logf("server: %s: write: %v", c.nc.RemoteAddr(), err)
			return false
		}
		if m.Type == wire.TypeNotify {
			c.s.ledger.delivered.Add(1)
			c.ledger.delivered.Add(1)
		}
		return true
	}
	for {
		// Responses take priority over notifications.
		select {
		case m := <-c.resp:
			if !write(m) {
				return
			}
			continue
		default:
		}
		select {
		case m := <-c.resp:
			if !write(m) {
				return
			}
		case m := <-c.notes:
			if !write(m) {
				return
			}
		case <-c.readerDone:
			// Drain: the reader issues no further responses, so flush
			// what is queued (responses first) and hang up.
			for {
				select {
				case m := <-c.resp:
					if !write(m) {
						return
					}
				default:
					for {
						select {
						case m := <-c.notes:
							if !write(m) {
								return
							}
						default:
							return
						}
					}
				}
			}
		}
	}
}

// errMsg builds an error response.
func errMsg(id uint64, err error) wire.Message {
	return wire.Message{Type: wire.TypeResponse, ID: id, Error: err.Error()}
}

func okMsg(id uint64) wire.Message {
	return wire.Message{Type: wire.TypeResponse, ID: id, OK: true}
}

// handle executes one request, builds its response, and records the
// request's latency, its trace (when sampled or carried in) and the
// slow-request log line. The uninstrumented fast path (no Registry, no
// SlowRequest, no Tracer) skips even the clock reads.
func (s *Server) handle(c *conn, req *wire.Request) wire.Message {
	tr := s.cfg.Tracer
	if s.met == nil && s.cfg.SlowRequest <= 0 && tr == nil {
		return s.dispatch(c, req, nil)
	}
	// Root span: a request carrying a trace context joins the client's
	// trace (the client decided to trace it); otherwise head sampling
	// decides, and the response carries the server-assigned id back.
	var sp *trace.Span
	if tr != nil {
		if req.Trace != nil {
			if id, ok := trace.ParseID(req.Trace.ID); ok {
				sp = tr.Join("server."+req.Op, id)
			}
		} else if tr.Sampled() {
			sp = tr.Start("server." + req.Op)
		}
		if sp != nil {
			if req.Relation != "" {
				sp.SetStr("rel", req.Relation)
			}
			sp.SetStr("remote", c.nc.RemoteAddr().String())
		}
	}
	t0 := time.Now()
	m := s.dispatch(c, req, sp)
	elapsed := time.Since(t0)
	var traceID string
	if sp != nil {
		if m.Error != "" {
			sp.SetStr("error", m.Error)
		}
		traceID = sp.TraceID()
		sp.End()
		m.Trace = &wire.TraceContext{ID: traceID}
	}
	if s.met != nil {
		if h := s.met.reqLat[req.Op]; h != nil {
			h.Observe(elapsed.Seconds())
		}
		if m.Error != "" {
			s.met.reqErrors.Inc()
		}
	}
	if sr := s.cfg.SlowRequest; sr > 0 && elapsed >= sr {
		if traceID == "" {
			// Not sampled: retain a synthesized root-only trace so the slow
			// request is still inspectable at /traces (sampled slow traces
			// land in the slow ring via the tracer itself).
			traceID = tr.RecordSlow("server."+req.Op, t0, elapsed,
				trace.Str("rel", req.Relation),
				trace.Str("remote", c.nc.RemoteAddr().String()))
		}
		s.cfg.Logger.Warn("slow request",
			"op", req.Op, "id", req.ID, "relation", req.Relation,
			"remote", c.nc.RemoteAddr().String(), "elapsed", elapsed,
			"trace_id", traceID)
	}
	return m
}

// Tracer returns the server's tracer (nil when tracing is off); the
// admin endpoint serves /traces from its flight recorder.
func (s *Server) Tracer() *trace.Tracer { return s.cfg.Tracer }

// Profiles returns the workload profile accumulator (never nil).
func (s *Server) Profiles() *trace.Profiles { return s.prof }

// traceCtx converts a request's span into the wire form a WAL record
// carries through the log and the replication stream (nil = untraced).
func traceCtx(sp *trace.Span) *wire.TraceContext {
	if sp == nil {
		return nil
	}
	return &wire.TraceContext{ID: sp.TraceID(), Span: sp.SpanID()}
}

// onEventProfile feeds the workload profile: one applied storage event
// (trigger or cascade) = one write against its relation. Never errors,
// so it can never abort the notify chain.
func (s *Server) onEventProfile(ev storage.Event) error {
	s.profileRel(ev.Rel).RecordWrite()
	return nil
}

// profileRel resolves a relation's profile accumulator, creating it
// with the catalog's attribute names on first sight (relations that
// never get a predicate still profile their write rate).
func (s *Server) profileRel(rel string) *trace.RelProfile {
	if rp := s.prof.Lookup(rel); rp != nil {
		return rp
	}
	var names []string
	if r, ok := s.db.Catalog().Get(rel); ok {
		for _, a := range r.Attrs() {
			names = append(names, a.Name)
		}
	}
	return s.prof.Rel(rel, names)
}

// dispatch routes one request to its handler. On a follower every
// state-changing op is rejected with a leader redirect before reaching
// its handler; reads, subscriptions, stats and backups serve locally.
// sp is the request's root span (nil when untraced); handlers that
// explain themselves attach child spans to it.
func (s *Server) dispatch(c *conn, req *wire.Request, sp *trace.Span) wire.Message {
	switch req.Op {
	case wire.OpDeclare, wire.OpIndex, wire.OpRule, wire.OpDropRule,
		wire.OpAddPred, wire.OpRemovePred,
		wire.OpInsert, wire.OpUpdate, wire.OpDelete:
		if s.isFollower.Load() {
			return s.notLeaderMsg(req.ID)
		}
	default:
	}
	switch req.Op {
	case wire.OpPing:
		return okMsg(req.ID)
	case wire.OpDeclare:
		return s.handleDeclare(req, sp)
	case wire.OpIndex:
		return s.handleIndex(req, sp)
	case wire.OpRule:
		return s.handleRule(req, sp)
	case wire.OpDropRule:
		return s.handleDropRule(req, sp)
	case wire.OpAddPred:
		return s.handleAddPred(req, sp)
	case wire.OpRemovePred:
		return s.handleRemovePred(req, sp)
	case wire.OpInsert, wire.OpUpdate, wire.OpDelete:
		return s.handleMutation(req, sp)
	case wire.OpMatch:
		return s.handleMatch(req, sp)
	case wire.OpMatchBatch:
		return s.handleMatchBatch(req)
	case wire.OpSubscribe:
		return s.handleSubscribe(c, req)
	case wire.OpUnsubscribe:
		return s.handleUnsubscribe(c, req)
	case wire.OpStats:
		return s.handleStats(req)
	case wire.OpBackup:
		return s.handleBackup(req)
	case wire.OpReplicate:
		return s.handleReplicate(c, req)
	case wire.OpPromote:
		return s.handlePromote(req)
	default:
		return errMsg(req.ID, fmt.Errorf("unknown op %q", req.Op))
	}
}

// Every DDL handler follows the log-before-ack shape: apply under mu,
// append the command record under mu (so log order equals apply order),
// release mu, then wait for durability — the group-commit window, in
// which other mutators append and share the fsync.
//
// Acks carry the record's WAL sequence (WalSeq, 0 when not durable) as
// a read-your-writes token: a client hands it to any replica as
// Request.MinSeq and the replica serves the read only once its applied
// state covers it.

func (s *Server) handleDeclare(req *wire.Request, sp *trace.Span) wire.Message {
	s.mu.Lock()
	if err := s.declareRelation(req.Relation, req.Attrs); err != nil {
		s.mu.Unlock()
		return errMsg(req.ID, err)
	}
	seq, werr := s.logCommand(&wal.Record{
		Kind: wal.KindDeclare, Relation: req.Relation, Attrs: req.Attrs,
	}, sp)
	s.mu.Unlock()
	if err := s.commit(seq, werr, sp); err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.WalSeq = seq
	return m
}

func (s *Server) handleIndex(req *wire.Request, sp *trace.Span) wire.Message {
	s.mu.Lock()
	tab, ok := s.db.Table(req.Relation)
	if !ok {
		s.mu.Unlock()
		return errMsg(req.ID, fmt.Errorf("unknown relation %q", req.Relation))
	}
	if err := tab.CreateIndex(req.Attr); err != nil {
		s.mu.Unlock()
		return errMsg(req.ID, err)
	}
	seq, werr := s.logCommand(&wal.Record{
		Kind: wal.KindIndex, Relation: req.Relation, Attr: req.Attr,
	}, sp)
	s.mu.Unlock()
	if err := s.commit(seq, werr, sp); err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.WalSeq = seq
	return m
}

func (s *Server) handleRule(req *wire.Request, sp *trace.Span) wire.Message {
	s.mu.Lock()
	r, err := s.eng.DefineRule(req.Source)
	if err != nil {
		s.mu.Unlock()
		return errMsg(req.ID, err)
	}
	seq, werr := s.logCommand(&wal.Record{Kind: wal.KindRule, Source: req.Source}, sp)
	s.mu.Unlock()
	if err := s.commit(seq, werr, sp); err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.Name = r.Name
	m.WalSeq = seq
	return m
}

func (s *Server) handleDropRule(req *wire.Request, sp *trace.Span) wire.Message {
	s.mu.Lock()
	if err := s.eng.DropRule(req.Name); err != nil {
		s.mu.Unlock()
		return errMsg(req.ID, err)
	}
	seq, werr := s.logCommand(&wal.Record{Kind: wal.KindDropRule, Name: req.Name}, sp)
	s.mu.Unlock()
	if err := s.commit(seq, werr, sp); err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.WalSeq = seq
	return m
}

// handleAddPred registers a client predicate. It takes the mutation
// mutex (although the sharded matcher tolerates concurrent
// registration) so that ID allocation, the snapshot registry, and the
// WAL record are one atomic step with respect to checkpoints — a
// snapshot can never capture a predicate whose log record lies after
// the snapshot's sequence.
func (s *Server) handleAddPred(req *wire.Request, sp *trace.Span) wire.Message {
	if req.Pred == nil {
		return errMsg(req.ID, errors.New("addpred needs a pred"))
	}
	s.mu.Lock()
	id := pred.ID(s.nextPredID.Load())
	if err := s.addDirectPred(id, req.Pred); err != nil {
		s.mu.Unlock()
		return errMsg(req.ID, err)
	}
	seq, werr := s.logCommand(&wal.Record{
		Kind: wal.KindAddPred, PredID: int64(id), Pred: req.Pred,
	}, sp)
	s.mu.Unlock()
	if err := s.commit(seq, werr, sp); err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.PredID = int64(id)
	m.WalSeq = seq
	return m
}

func (s *Server) handleRemovePred(req *wire.Request, sp *trace.Span) wire.Message {
	id := pred.ID(req.PredID)
	if id < DirectPredBase {
		return errMsg(req.ID, fmt.Errorf("predicate %d is not client-registered", req.PredID))
	}
	s.mu.Lock()
	if err := s.sm.Remove(id); err != nil {
		s.mu.Unlock()
		return errMsg(req.ID, err)
	}
	delete(s.directPreds, req.PredID)
	seq, werr := s.logCommand(&wal.Record{Kind: wal.KindRemovePred, PredID: req.PredID}, sp)
	s.mu.Unlock()
	if err := s.commit(seq, werr, sp); err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.WalSeq = seq
	return m
}

// handleMutation applies insert/update/delete through the engine under
// the mutation mutex, reporting how many rules the change fired. Note
// the storage contract: when a rule action fails (e.g. raise), the
// triggering change itself stays applied and the error is reported.
//
// Durability: the events the request applied (captured by onEventWAL,
// including rule cascades) are appended as one atomic WAL record while
// mu is still held, and the response is not sent until the record is
// durable under the sync policy — log-before-ack. A mutation whose
// rule raised still applied events, so it is logged and committed even
// though the response carries the rule's error.
func (s *Server) handleMutation(req *wire.Request, sp *trace.Span) wire.Message {
	s.mu.Lock()
	s.pending = s.pending[:0]
	if sp != nil {
		// Hand the engine the root span for the duration of this mutation
		// so the firing cascade records engine.event / rule.fire children;
		// cleared before mu is released (the engine runs only under mu).
		s.eng.SetSpan(sp)
	}
	m := s.applyMutation(req)
	if sp != nil {
		s.eng.SetSpan(nil)
	}
	seq, werr := s.logPending(sp)
	s.mu.Unlock()
	if err := s.commit(seq, werr, sp); err != nil {
		// The in-memory state changed but cannot be made durable; the log
		// is poisoned and every further state change will fail the same
		// way. Surface the WAL error over the rule-level outcome.
		return errMsg(req.ID, fmt.Errorf("wal: %w", err))
	}
	m.WalSeq = seq
	return m
}

// applyMutation executes the storage change and rule cascade.
//
//predmatchvet:holds mu
func (s *Server) applyMutation(req *wire.Request) wire.Message {
	tab, ok := s.db.Table(req.Relation)
	if !ok {
		return errMsg(req.ID, fmt.Errorf("unknown relation %q", req.Relation))
	}
	s.firings = 0
	m := okMsg(req.ID)
	switch req.Op {
	case wire.OpInsert:
		t, err := wire.ToTuple(tab.Relation(), req.Tuple)
		if err != nil {
			return errMsg(req.ID, err)
		}
		id, err := tab.Insert(t)
		if err != nil {
			return errMsg(req.ID, err)
		}
		m.TupleID = int64(id)
	case wire.OpUpdate:
		t, err := wire.ToTuple(tab.Relation(), req.Tuple)
		if err != nil {
			return errMsg(req.ID, err)
		}
		if err := tab.Update(tuple.ID(req.TupleID), t); err != nil {
			return errMsg(req.ID, err)
		}
	case wire.OpDelete:
		if err := tab.Delete(tuple.ID(req.TupleID)); err != nil {
			return errMsg(req.ID, err)
		}
	default:
		// handle() only routes the three mutation ops here; a new op
		// reaching this switch is a dispatch bug, not a client error.
		return errMsg(req.ID, fmt.Errorf("op %q is not a mutation", req.Op))
	}
	m.Firings = s.firings
	return m
}

// handleMatch stabs the sharded matcher's lock-free snapshot; it never
// touches the mutation mutex. A min_seq token makes the read wait until
// the server's applied state covers that sequence (read-your-writes
// across replicas; see docs/REPLICATION.md).
func (s *Server) handleMatch(req *wire.Request, sp *trace.Span) wire.Message {
	if req.MinSeq > 0 {
		wsp := sp.Child("repl.wait")
		wsp.SetInt("min_seq", int64(req.MinSeq))
		err := s.waitMinSeq(req.MinSeq)
		wsp.End()
		if err != nil {
			return s.minSeqErr(req.ID, err)
		}
	}
	rel, ok := s.db.Catalog().Get(req.Relation)
	if !ok {
		return errMsg(req.ID, fmt.Errorf("unknown relation %q", req.Relation))
	}
	t, err := wire.ToTuple(rel, req.Tuple)
	if err != nil {
		return errMsg(req.ID, err)
	}
	ids, err := s.sm.MatchTraced(req.Relation, t, nil, sp)
	if err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.Matches = wire.FromIDs(ids)
	if m.Matches == nil {
		m.Matches = []int64{}
	}
	return m
}

func (s *Server) handleMatchBatch(req *wire.Request) wire.Message {
	if err := s.waitMinSeq(req.MinSeq); err != nil {
		return s.minSeqErr(req.ID, err)
	}
	rel, ok := s.db.Catalog().Get(req.Relation)
	if !ok {
		return errMsg(req.ID, fmt.Errorf("unknown relation %q", req.Relation))
	}
	tuples := make([]tuple.Tuple, len(req.Tuples))
	for i, raw := range req.Tuples {
		t, err := wire.ToTuple(rel, raw)
		if err != nil {
			return errMsg(req.ID, fmt.Errorf("tuple %d: %w", i, err))
		}
		tuples[i] = t
	}
	results, err := s.sm.MatchBatch(req.Relation, tuples)
	if err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.Batch = make([][]int64, len(results))
	for i, ids := range results {
		m.Batch[i] = wire.FromIDs(ids)
		if m.Batch[i] == nil {
			m.Batch[i] = []int64{}
		}
	}
	return m
}

func (s *Server) handleSubscribe(c *conn, req *wire.Request) wire.Message {
	sub := &subscription{preds: req.Preds}
	if len(req.Rules) > 0 {
		sub.rules = make(map[string]bool, len(req.Rules))
		for _, r := range req.Rules {
			sub.rules[r] = true
		}
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if _, dup := s.subs[c]; dup {
		return errMsg(req.ID, errors.New("already subscribed"))
	}
	s.subs[c] = sub
	return okMsg(req.ID)
}

// handleUnsubscribe stops the stream and reports the subscription's
// final counters: Seq is the total notifications generated, Dropped how
// many of those the overflow policy discarded. Notifications still in
// the queue may be delivered after this response.
func (s *Server) handleUnsubscribe(c *conn, req *wire.Request) wire.Message {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	m := okMsg(req.ID)
	if sub, ok := s.subs[c]; ok {
		m.Seq = sub.seq
		m.Dropped = sub.drops
		delete(s.subs, c)
	}
	return m
}

func (s *Server) handleStats(req *wire.Request) wire.Message {
	st := &wire.Stats{
		Rules:      s.eng.Rules(),
		Matcher:    s.sm.Name(),
		Predicates: s.sm.Len(),
	}
	st.Generated, st.Delivered, st.Dropped, st.Pending = s.ledger.read()
	if pf, ok := s.sm.PrefilterStats(); ok {
		st.Prefilter = &wire.PrefilterStat{Admitted: pf.Admitted, Skipped: pf.Skipped}
	}
	for _, rp := range s.prof.Snapshot() {
		ps := wire.ProfileStat{
			Rel: rp.Relation, Stabs: rp.Stabs, Skipped: rp.Skipped,
			Results: rp.Results, StabSecs: rp.StabSecs, Writes: rp.Writes,
		}
		for _, a := range rp.Attrs {
			ps.Attrs = append(ps.Attrs, wire.AttrProfile{Name: a.Name, Queried: a.Queried})
		}
		st.Profiles = append(st.Profiles, ps)
	}
	for _, sh := range s.sm.Stats() {
		st.Shards = append(st.Shards, wire.ShardStat{
			Rel: sh.Rel, Predicates: sh.Predicates, Version: sh.Version,
			Structure: sh.Structure,
		})
	}
	for _, ts := range s.sm.Trees() {
		st.Trees = append(st.Trees, wire.TreeStat{
			Rel: ts.Rel, Attr: ts.Attr, Intervals: ts.Intervals,
			Nodes: ts.Nodes, Markers: ts.Markers, Height: ts.Height,
		})
	}
	// Row counts and ID cursors move under the mutation mutex; read them
	// under it so the stats frame is a consistent cut.
	s.mu.Lock()
	for _, name := range s.db.Relations() {
		tab, _ := s.db.Table(name)
		st.Relations = append(st.Relations, wire.RelStat{
			Name: name, Rows: tab.Len(), NextID: int64(tab.NextID()),
		})
	}
	s.mu.Unlock()
	st.WAL = s.walStat()
	st.Repl = s.replStat()
	// Snapshot the connection set first, then read each connection's
	// subscription under subMu — the lock order every other path uses.
	s.connMu.Lock()
	st.Conns = len(s.conns)
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	s.subMu.Lock()
	st.Subs = len(s.subs)
	for _, c := range conns {
		cs := wire.ConnStat{
			Remote:   c.nc.RemoteAddr().String(),
			Queue:    len(c.notes),
			QueueCap: cap(c.notes),
			Replica:  c.replica.Load(),
			ReplSeq:  c.replSeq.Load(),
		}
		cs.Generated, cs.Delivered, cs.Dropped, cs.Pending = c.ledger.read()
		if sub, ok := s.subs[c]; ok {
			cs.Subscribed = true
			cs.LastSeq = sub.seq
			for r := range sub.rules {
				cs.Rules = append(cs.Rules, r)
			}
			sort.Strings(cs.Rules)
		}
		st.Connections = append(st.Connections, cs)
	}
	s.subMu.Unlock()
	sort.Slice(st.Connections, func(i, j int) bool {
		return st.Connections[i].Remote < st.Connections[j].Remote
	})
	m := okMsg(req.ID)
	m.Stats = st
	return m
}
