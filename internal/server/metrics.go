package server

import (
	"predmatch/internal/obs"
	"predmatch/internal/wire"
)

// ops is every request operation the protocol defines; per-op latency
// histogram handles are resolved once at startup so the request path
// never takes the vec's lookup lock.
var ops = []string{
	wire.OpPing, wire.OpDeclare, wire.OpIndex, wire.OpRule,
	wire.OpDropRule, wire.OpAddPred, wire.OpRemovePred,
	wire.OpInsert, wire.OpUpdate, wire.OpDelete,
	wire.OpMatch, wire.OpMatchBatch,
	wire.OpSubscribe, wire.OpUnsubscribe, wire.OpStats,
	wire.OpBackup, wire.OpReplicate, wire.OpPromote,
}

// serverMetrics holds the handles the request path updates. nil (no
// Registry configured) disables all of it; the notification counters
// stay plain atomics on Server either way and are exported here as
// scrape-time counter funcs.
type serverMetrics struct {
	reqLat    map[string]*obs.Histogram // per-op request latency
	reqErrors *obs.Counter
	rejected  *obs.Counter
	// Replication streaming volume (leader side; see docs/OBSERVABILITY.md).
	streamedRecords *obs.Counter
	streamedBytes   *obs.Counter
}

// newServerMetrics registers the daemon's metric families on reg.
// Derivable quantities — connection and subscription counts, queue
// depths, delivery counters — are sampled at scrape time from the
// server's own state, costing the hot paths nothing.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	if reg == nil {
		return nil
	}
	lat := reg.HistogramVec("predmatch_request_latency_seconds",
		"Request handling latency by operation (decode to response enqueue).",
		obs.DefBuckets, "op")
	m := &serverMetrics{
		reqLat: make(map[string]*obs.Histogram, len(ops)),
		reqErrors: reg.Counter("predmatch_request_errors_total",
			"Requests answered with an error frame."),
		rejected: reg.Counter("predmatch_conns_rejected_total",
			"Connections rejected by the MaxConns limit."),
	}
	for _, op := range ops {
		m.reqLat[op] = lat.With(op)
	}
	reg.GaugeFunc("predmatch_active_connections",
		"Open client connections.", func() float64 {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			return float64(len(s.conns))
		})
	reg.GaugeFunc("predmatch_subscriptions",
		"Connections with an active subscription.", func() float64 {
			s.subMu.Lock()
			defer s.subMu.Unlock()
			return float64(len(s.subs))
		})
	reg.GaugeFunc("predmatch_notify_queue_depth",
		"Notifications currently queued across all connections.", func() float64 {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			total := 0
			for c := range s.conns {
				total += len(c.notes)
			}
			return float64(total)
		})
	reg.CounterFunc("predmatch_notify_generated_total",
		"Notifications offered to subscribed connections.", s.ledger.generated.Load)
	reg.CounterFunc("predmatch_notify_delivered_total",
		"Notifications written to clients.", s.ledger.delivered.Load)
	reg.CounterFunc("predmatch_notify_dropped_total",
		"Notifications dropped by the overflow policy or lost with a closed connection.", s.ledger.dropped.Load)
	reg.GaugeFunc("predmatch_notify_pending",
		"Notifications generated but not yet delivered or dropped (queued or being written).", func() float64 {
			_, _, _, pending := s.ledger.read()
			return float64(pending)
		})
	m.streamedRecords = reg.Counter("predmatch_repl_streamed_records_total",
		"WAL records streamed to followers.")
	m.streamedBytes = reg.Counter("predmatch_repl_streamed_bytes_total",
		"Replication payload bytes streamed to followers (records and snapshots).")
	reg.GaugeFunc("predmatch_repl_followers",
		"Replication streams currently served.", func() float64 {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			n := 0
			for c := range s.conns {
				if c.replica.Load() {
					n++
				}
			}
			return float64(n)
		})
	// Workload profile (see internal/trace.Profiles): sampled at scrape
	// time from the always-on accumulator, costing the hot paths nothing
	// beyond the atomic adds they already pay.
	reg.GaugeSet("predmatch_workload_stabs_total",
		"Index probes run per relation (workload profile).",
		[]string{"rel"}, func(emit obs.Emit) {
			for _, rp := range s.prof.Snapshot() {
				emit(float64(rp.Stabs), rp.Relation)
			}
		})
	reg.GaugeSet("predmatch_workload_results_total",
		"Predicate matches returned per relation; divide by stabs for observed selectivity.",
		[]string{"rel"}, func(emit obs.Emit) {
			for _, rp := range s.prof.Snapshot() {
				emit(float64(rp.Results), rp.Relation)
			}
		})
	reg.GaugeSet("predmatch_workload_stab_seconds_total",
		"Cumulative stab latency per relation (workload profile).",
		[]string{"rel"}, func(emit obs.Emit) {
			for _, rp := range s.prof.Snapshot() {
				emit(rp.StabSecs, rp.Relation)
			}
		})
	reg.GaugeSet("predmatch_workload_writes_total",
		"Applied mutation events per relation (workload profile).",
		[]string{"rel"}, func(emit obs.Emit) {
			for _, rp := range s.prof.Snapshot() {
				emit(float64(rp.Writes), rp.Relation)
			}
		})
	reg.GaugeSet("predmatch_workload_attr_queried_total",
		"Stabs that consulted each attribute (interval clauses present).",
		[]string{"rel", "attr"}, func(emit obs.Emit) {
			for _, rp := range s.prof.Snapshot() {
				for _, a := range rp.Attrs {
					emit(float64(a.Queried), rp.Relation, a.Name)
				}
			}
		})
	return m
}
