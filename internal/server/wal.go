// Durability wiring: the server side of internal/wal. Open recovers a
// data directory before the daemon listens; every state-changing
// handler appends a log record before acking; a checkpointer
// serializes the whole engine state into snapshots, on a timer and on
// demand (the backup op).
//
// The logging strategy is split by operation class. DDL (declare,
// index, rule, droprule, addpred, rmpred) is command-logged and
// replayed back through the same code path that executed it. Mutations
// are event-logged: the record carries every storage change the
// request applied — the triggering insert/update/delete plus all
// rule-cascade changes — captured by a storage observer registered
// *before* the engine's (the notify chain aborts at the first observer
// error, e.g. a rule raise, and the triggering change stays applied;
// capture must therefore run first to see every applied event). Replay
// installs those events directly through storage.Apply, bypassing the
// engine, so rules do not re-fire and recovery reproduces exactly the
// state that was acked — including the effects of rules that were
// since dropped.
package server

import (
	"errors"
	"fmt"
	"time"

	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/storage"
	"predmatch/internal/trace"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// Open builds a daemon like New and, when cfg.DataDir is set, recovers
// the directory's durable state (snapshot + log replay) before
// returning; the server is ready to listen with its pre-crash catalog,
// relations, rules and direct predicates in place.
func Open(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.FollowerOf != "" && cfg.DataDir == "" {
		return nil, errors.New("server: FollowerOf requires DataDir (a follower persists the replicated log)")
	}
	s := newServer(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	opt := wal.Options{
		Dir:          cfg.DataDir,
		SegmentBytes: cfg.WALSegmentBytes,
		Sync:         cfg.Sync,
		SyncEvery:    cfg.SyncEvery,
		Registry:     cfg.Registry,
		Logger:       cfg.Logger,
	}
	l, info, err := wal.Recover(opt, wal.Handler{
		LoadSnapshot: s.loadSnapshot,
		Apply:        s.applyRecord,
	})
	if err != nil {
		return nil, err
	}
	s.wal = l
	s.recovery = info
	// A follower's resume cursor starts at whatever its local log holds.
	s.applied.Store(info.LastSeq)
	cfg.Logger.Info("recovered",
		"dir", cfg.DataDir, "snapshot_seq", info.SnapshotSeq,
		"records_replayed", info.RecordsReplayed,
		"truncated_bytes", info.TruncatedBytes, "last_seq", info.LastSeq)
	if cfg.SnapshotEvery > 0 {
		s.snapLoopDone = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotEvery)
	}
	return s, nil
}

// Recovery returns what recovery replayed (zero when the server has no
// data directory).
func (s *Server) Recovery() wal.RecoveryInfo { return s.recovery }

// onEventWAL is the capture observer: it records every applied storage
// event into the pending set that handleMutation logs as one atomic
// KindMutate record. Registered before the engine's observer so a rule
// raise (which aborts the notify chain but keeps the change applied)
// cannot hide an applied event from the log. Runs inside the mutation.
//
//predmatchvet:holds mu
func (s *Server) onEventWAL(ev storage.Event) error {
	we := wal.Event{Rel: ev.Rel, Op: ev.Op.String(), ID: int64(ev.ID)}
	if ev.New != nil {
		we.Tuple = wire.FromTuple(ev.New)
	}
	s.pending = append(s.pending, we)
	return nil
}

// logPending appends the captured events of the current mutation as one
// record. Returns seq 0 when there is nothing to log (no WAL, or the
// request failed before applying anything). A traced request stamps its
// trace context on the record (it rides the log into the replication
// stream) and records the append as a wal.append span.
//
//predmatchvet:holds mu
func (s *Server) logPending(sp *trace.Span) (uint64, error) {
	if s.wal == nil || len(s.pending) == 0 {
		return 0, nil
	}
	events := make([]wal.Event, len(s.pending))
	copy(events, s.pending)
	rec := &wal.Record{Kind: wal.KindMutate, Events: events, Trace: traceCtx(sp)}
	asp := sp.Child("wal.append")
	seq, err := s.wal.Append(rec)
	asp.SetInt("seq", int64(seq))
	asp.SetInt("events", int64(len(events)))
	asp.End()
	return seq, err
}

// logCommand appends one DDL command record. Returns seq 0 when the
// server has no WAL.
//
//predmatchvet:holds mu
func (s *Server) logCommand(rec *wal.Record, sp *trace.Span) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	rec.Trace = traceCtx(sp)
	asp := sp.Child("wal.append")
	seq, err := s.wal.Append(rec)
	asp.SetInt("seq", int64(seq))
	asp.End()
	return seq, err
}

// commit waits for seq to be durable under the configured sync policy.
// The caller must have released s.mu: this is the group-commit window —
// other mutators append (and share the fsync) while we wait. The
// wal.commit span therefore ends off the server mutex, which is why a
// trace's span list carries its own lock.
func (s *Server) commit(seq uint64, err error, sp *trace.Span) error {
	if err != nil {
		return err
	}
	if s.wal == nil || seq == 0 {
		return nil
	}
	csp := sp.Child("wal.commit")
	csp.SetInt("seq", int64(seq))
	cerr := s.wal.Commit(seq)
	csp.End()
	return cerr
}

// parseEventOp is the inverse of storage.Op.String for replay.
func parseEventOp(op string) (storage.Op, error) {
	switch op {
	case "insert":
		return storage.OpInsert, nil
	case "update":
		return storage.OpUpdate, nil
	case "delete":
		return storage.OpDelete, nil
	default:
		return 0, fmt.Errorf("server: replay: unknown event op %q", op)
	}
}

// declareRelation builds and installs a schema from wire attributes
// (shared by the declare handler and replay).
//
//predmatchvet:holds mu
func (s *Server) declareRelation(name string, wattrs []wire.Attr) error {
	attrs := make([]schema.Attribute, 0, len(wattrs))
	for _, a := range wattrs {
		kind, err := value.KindFromName(a.Type)
		if err != nil {
			return err
		}
		attrs = append(attrs, schema.Attribute{Name: a.Name, Type: kind})
	}
	rel, err := schema.NewRelation(name, attrs...)
	if err != nil {
		return err
	}
	_, err = s.db.CreateRelation(rel)
	return err
}

// addDirectPred installs a client predicate under the given ID and
// tracks its wire form for snapshots (shared by the addpred handler,
// replay, and snapshot load).
//
//predmatchvet:holds mu
func (s *Server) addDirectPred(id pred.ID, wp *wire.Predicate) error {
	p, err := wire.ToPredicate(s.db.Catalog(), id, wp)
	if err != nil {
		return err
	}
	if err := s.sm.Add(p); err != nil {
		return err
	}
	cp := *wp
	s.directPreds[int64(id)] = &cp
	if next := int64(id) + 1; next > s.nextPredID.Load() {
		s.nextPredID.Store(next)
	}
	return nil
}

// applyRecord replays one log record during recovery (no clients are
// connected; the caller owns the server exclusively, hence the holds
// directive).
//
//predmatchvet:holds mu
func (s *Server) applyRecord(rec *wal.Record) error {
	switch rec.Kind {
	case wal.KindDeclare:
		return s.declareRelation(rec.Relation, rec.Attrs)
	case wal.KindIndex:
		tab, ok := s.db.Table(rec.Relation)
		if !ok {
			return fmt.Errorf("server: replay: unknown relation %q", rec.Relation)
		}
		return tab.CreateIndex(rec.Attr)
	case wal.KindRule:
		_, err := s.eng.DefineRule(rec.Source)
		return err
	case wal.KindDropRule:
		return s.eng.DropRule(rec.Name)
	case wal.KindAddPred:
		if rec.Pred == nil {
			return fmt.Errorf("server: replay: addpred record %d has no pred", rec.Seq)
		}
		return s.addDirectPred(pred.ID(rec.PredID), rec.Pred)
	case wal.KindRemovePred:
		if err := s.sm.Remove(pred.ID(rec.PredID)); err != nil {
			return err
		}
		delete(s.directPreds, rec.PredID)
		return nil
	case wal.KindMutate:
		for _, we := range rec.Events {
			op, err := parseEventOp(we.Op)
			if err != nil {
				return err
			}
			ev := storage.Event{Rel: we.Rel, Op: op, ID: tuple.ID(we.ID)}
			if op != storage.OpDelete {
				rel, ok := s.db.Catalog().Get(we.Rel)
				if !ok {
					return fmt.Errorf("server: replay: unknown relation %q", we.Rel)
				}
				t, err := wire.ToTuple(rel, we.Tuple)
				if err != nil {
					return fmt.Errorf("server: replay record %d: %w", rec.Seq, err)
				}
				ev.New = t
			}
			if err := s.db.Apply(ev); err != nil {
				return fmt.Errorf("server: replay record %d: %w", rec.Seq, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("server: replay: unknown record kind %q", rec.Kind)
	}
}

// loadSnapshot installs a checkpoint: schemas, indexes, relation
// contents (with their original tuple IDs), rules, and direct
// predicates. Runs under s.mu (replication bootstrap) or during
// single-threaded recovery before the server accepts connections.
//
//predmatchvet:holds mu
func (s *Server) loadSnapshot(snap *wal.Snapshot) error {
	for _, sr := range snap.Relations {
		if err := s.declareRelation(sr.Name, sr.Attrs); err != nil {
			return err
		}
		tab, _ := s.db.Table(sr.Name)
		for _, attr := range sr.Indexes {
			if err := tab.CreateIndex(attr); err != nil {
				return err
			}
		}
		rel := tab.Relation()
		for _, row := range sr.Rows {
			t, err := wire.ToTuple(rel, row.Tuple)
			if err != nil {
				return fmt.Errorf("server: snapshot %s row %d: %w", sr.Name, row.ID, err)
			}
			if err := s.db.Apply(storage.Event{
				Rel: sr.Name, Op: storage.OpInsert, ID: tuple.ID(row.ID), New: t,
			}); err != nil {
				return err
			}
		}
		tab.SetNextID(tuple.ID(sr.NextID))
	}
	for _, src := range snap.Rules {
		if _, err := s.eng.DefineRule(src); err != nil {
			return fmt.Errorf("server: snapshot rule: %w", err)
		}
	}
	for i := range snap.Preds {
		sp := &snap.Preds[i]
		if err := s.addDirectPred(pred.ID(sp.ID), &sp.Pred); err != nil {
			return fmt.Errorf("server: snapshot pred %d: %w", sp.ID, err)
		}
	}
	if snap.NextPredID > s.nextPredID.Load() {
		s.nextPredID.Store(snap.NextPredID)
	}
	return nil
}

// checkpoint captures the full state under s.mu (a bounded pause:
// tuples are immutable once stored, so the capture is a shallow
// row-list copy, and the serialization and disk I/O run after the lock
// is released), writes it as a snapshot, and prunes covered segments.
// snapMu serializes concurrent checkpoints (backup op vs. the timer).
func (s *Server) checkpoint() (*wire.BackupInfo, error) {
	if s.wal == nil {
		return nil, errors.New("server has no data directory")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	s.mu.Lock()
	snap := &wal.Snapshot{Seq: s.wal.LastSeq()}
	for _, name := range s.db.Relations() {
		tab, _ := s.db.Table(name)
		rel := tab.Relation()
		sr := wal.SnapRelation{
			Name:    name,
			Indexes: tab.IndexedAttrs(),
			NextID:  int64(tab.NextID()),
		}
		for _, a := range rel.Attrs() {
			sr.Attrs = append(sr.Attrs, wire.Attr{Name: a.Name, Type: a.Type.String()})
		}
		rows := tab.SnapshotRows()
		sr.Rows = make([]wal.SnapRow, len(rows))
		for i, r := range rows {
			// FromTuple under the lock: the per-row cost is a small slice of
			// interface literals; the expensive JSON encode happens off-lock.
			sr.Rows[i] = wal.SnapRow{ID: int64(r.ID), Tuple: wire.FromTuple(r.Tuple)}
		}
		snap.Relations = append(snap.Relations, sr)
	}
	snap.Rules = s.eng.Sources()
	for id, wp := range s.directPreds {
		snap.Preds = append(snap.Preds, wal.SnapPred{ID: id, Pred: *wp})
	}
	snap.NextPredID = s.nextPredID.Load()
	s.mu.Unlock()

	path, bytes, err := s.wal.WriteSnapshot(snap)
	if err != nil {
		return nil, err
	}
	if err := s.wal.Prune(snap.Seq); err != nil {
		return nil, err
	}
	return &wire.BackupInfo{Path: path, Seq: snap.Seq, Bytes: bytes}, nil
}

// snapshotLoop checkpoints on a timer until shutdown.
func (s *Server) snapshotLoop(every time.Duration) {
	defer close(s.snapLoopDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := s.checkpoint(); err != nil {
				s.cfg.Logger.Warn("periodic snapshot failed", "err", err)
			}
		case <-s.done:
			return
		}
	}
}

// handleBackup forces a checkpoint and reports where it landed.
func (s *Server) handleBackup(req *wire.Request) wire.Message {
	info, err := s.checkpoint()
	if err != nil {
		return errMsg(req.ID, err)
	}
	m := okMsg(req.ID)
	m.Backup = info
	return m
}

// closeWAL takes a final checkpoint and closes the log; called once
// from Shutdown after connections drain.
func (s *Server) closeWAL() {
	if s.wal == nil {
		return
	}
	s.walOnce.Do(func() {
		if s.snapLoopDone != nil {
			<-s.snapLoopDone
		}
		if _, err := s.checkpoint(); err != nil {
			s.cfg.Logger.Warn("shutdown snapshot failed", "err", err)
		}
		if err := s.wal.Close(); err != nil {
			s.cfg.Logger.Warn("wal close failed", "err", err)
		}
	})
}

// walStat summarizes the log for the stats response (nil without a
// data directory).
func (s *Server) walStat() *wire.WALStat {
	if s.wal == nil {
		return nil
	}
	return &wire.WALStat{
		LastSeq:     s.wal.LastSeq(),
		DurableSeq:  s.wal.DurableSeq(),
		SnapshotSeq: s.wal.SnapshotSeq(),
		Segments:    s.wal.Segments(),
		Sync:        string(s.cfg.Sync),
	}
}
