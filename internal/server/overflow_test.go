package server

import (
	"testing"

	"predmatch/internal/engine"
	"predmatch/internal/storage"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wire"
)

// TestServerOverflowPolicy pins the drop-newest overflow contract at
// the fanout layer, without sockets: a sequence number is assigned to
// every generated notification, drops are counted per subscription and
// globally, and what stays queued is the oldest prefix.
func TestServerOverflowPolicy(t *testing.T) {
	s := New(Config{QueueLen: 2})
	c := &conn{s: s, notes: make(chan wire.Message, 2)}
	sub := &subscription{}
	s.subs[c] = sub //predmatchvet:ignore guardedby single-goroutine test, nothing else sees s yet

	for i := 1; i <= 5; i++ {
		s.onFire(engine.FiringEvent{
			Rule:    "r",
			Rel:     "emp",
			Op:      storage.OpInsert,
			TupleID: tuple.ID(i),
			Tuple:   tuple.New(value.Int(int64(i))),
		})
	}
	if sub.seq != 5 {
		t.Fatalf("seq = %d, want 5 (every generated notification numbered)", sub.seq)
	}
	if sub.drops != 3 {
		t.Fatalf("drops = %d, want 3", sub.drops)
	}
	// All five were generated; the two queued ones are pending until a
	// writer delivers them.
	if g, d, dr, p := s.ledger.read(); g != 5 || d != 0 || dr != 3 || p != 2 {
		t.Fatalf("global ledger = %d generated, %d delivered, %d dropped, %d pending; want 5, 0, 3, 2", g, d, dr, p)
	}
	if g, _, dr, p := c.ledger.read(); g != 5 || dr != 3 || p != 2 {
		t.Fatalf("conn ledger = %d generated, %d dropped, %d pending; want 5, 3, 2", g, dr, p)
	}
	if len(c.notes) != 2 {
		t.Fatalf("queued = %d, want 2", len(c.notes))
	}
	// Drop-newest: the two oldest survive, stamped with the drop count
	// at generation time (0 — nothing had been dropped yet).
	for want := uint64(1); want <= 2; want++ {
		m := <-c.notes
		if m.Seq != want || m.Dropped != 0 || m.EventID != int64(want) {
			t.Fatalf("queued notification = %+v, want seq %d", m, want)
		}
	}

	// A filtered subscription never even generates a sequence number
	// for rules outside its filter.
	filtered := &subscription{rules: map[string]bool{"other": true}}
	s.subs[c] = filtered //predmatchvet:ignore guardedby single-goroutine test, nothing else sees s yet
	s.onFire(engine.FiringEvent{Rule: "r", Rel: "emp", Op: storage.OpInsert})
	if filtered.seq != 0 {
		t.Fatalf("filtered seq = %d, want 0", filtered.seq)
	}
	s.onFire(engine.FiringEvent{Rule: "other", Rel: "emp", Op: storage.OpInsert})
	if filtered.seq != 1 || filtered.drops != 0 {
		t.Fatalf("filtered sub = %+v", filtered)
	}
}
