package main

import (
	"strings"
	"testing"

	"predmatch/internal/wire"
)

// TestPrintStats pins the stats rendering against a representative
// frame: shard, tree and per-connection sections must all surface, and
// the falling-behind subscriber's queue/drop numbers must be visible.
func TestPrintStats(t *testing.T) {
	st := &wire.Stats{
		Rules:      []string{"band", "senior"},
		Matcher:    "sharded",
		Predicates: 3,
		Conns:      2,
		Subs:       1,
		Generated:  101,
		Delivered:  90,
		Dropped:    10,
		Pending:    1,
		Shards: []wire.ShardStat{
			{Rel: "emp", Predicates: 3, Version: 7, Structure: "hint"},
		},
		Trees: []wire.TreeStat{
			{Rel: "emp", Attr: "salary", Intervals: 3, Nodes: 5, Markers: 8, Height: 3},
		},
		Relations: []wire.RelStat{
			{Name: "emp", Rows: 42, NextID: 57},
		},
		WAL: &wire.WALStat{
			LastSeq: 230, DurableSeq: 229, SnapshotSeq: 100,
			Segments: 2, Sync: "interval",
		},
		Repl: &wire.ReplStat{Role: "leader", Followers: 1},
		Connections: []wire.ConnStat{
			{Remote: "127.0.0.1:50001", Subscribed: true, Queue: 128, QueueCap: 128,
				Delivered: 90, Dropped: 10, LastSeq: 228},
			{Remote: "127.0.0.1:50002", Queue: 0, QueueCap: 128,
				Replica: true, ReplSeq: 226},
		},
	}
	var b strings.Builder
	printStats(&b, st)
	out := b.String()
	for _, want := range []string{
		"matcher sharded: 3 predicates, 2 rules",
		"conns 2 (1 subscribed), notifications 101 generated = 90 delivered + 10 dropped + 1 pending",
		"emp",
		"salary",
		"version 7",
		"structure hint",
		"127.0.0.1:50001",
		"128/128", // queue pinned at capacity: the slow consumer
		"228",
		"42 rows",
		"wal: sync=interval, seq 230 (229 durable), 2 segments, snapshot at seq 100",
		"replication: leader, 1 followers connected",
		"repl@226",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printStats output missing %q:\n%s", want, out)
		}
	}
}
