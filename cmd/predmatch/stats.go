package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"predmatch/internal/client"
	"predmatch/internal/wire"
)

// runStats implements `predmatch stats`: dial a running predmatchd,
// fetch its stats frame, and render it — shard and IBS-tree shape plus
// the per-connection queue breakdown that shows which subscriber is
// falling behind. This is the remote counterpart of the script
// interpreter's local `stats` statement.
func runStats(args []string) int {
	fs := flag.NewFlagSet("predmatch stats", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7341", "predmatchd address to query")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: predmatch stats [-addr host:port]")
		return 2
	}
	c, err := client.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predmatch stats: dial %s: %v\n", *addr, err)
		return 1
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "predmatch stats: %v\n", err)
		return 1
	}
	printStats(os.Stdout, st)
	return 0
}

// printStats renders one stats frame in the interpreter's table style.
func printStats(w io.Writer, st *wire.Stats) {
	fmt.Fprintf(w, "matcher %s: %d predicates, %d rules\n",
		st.Matcher, st.Predicates, len(st.Rules))
	fmt.Fprintf(w, "conns %d (%d subscribed), notifications %d generated = %d delivered + %d dropped + %d pending\n",
		st.Conns, st.Subs, st.Generated, st.Delivered, st.Dropped, st.Pending)
	if st.Prefilter != nil {
		total := st.Prefilter.Admitted + st.Prefilter.Skipped
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(st.Prefilter.Skipped) / float64(total)
		}
		fmt.Fprintf(w, "prefilter: %d admitted / %d skipped (%.1f%% of tuples bypassed the index)\n",
			st.Prefilter.Admitted, st.Prefilter.Skipped, pct)
	}
	if len(st.Profiles) > 0 {
		fmt.Fprintf(w, "workload profile:\n")
		fmt.Fprintf(w, "  %-12s %8s %8s %9s %8s %10s  %s\n",
			"rel", "stabs", "skipped", "results", "writes", "stab avg", "queried attrs")
		for _, p := range st.Profiles {
			avg := "-"
			if p.Stabs > 0 {
				avg = fmt.Sprintf("%.1fµs", p.StabSecs/float64(p.Stabs)*1e6)
			}
			attrs := "-"
			if len(p.Attrs) > 0 {
				var parts []string
				for _, a := range p.Attrs {
					if a.Queried > 0 {
						parts = append(parts, fmt.Sprintf("%s=%d", a.Name, a.Queried))
					}
				}
				if len(parts) > 0 {
					attrs = strings.Join(parts, " ")
				}
			}
			fmt.Fprintf(w, "  %-12s %8d %8d %9d %8d %10s  %s\n",
				p.Rel, p.Stabs, p.Skipped, p.Results, p.Writes, avg, attrs)
		}
	}
	if len(st.Shards) > 0 {
		fmt.Fprintf(w, "shards:\n")
		for _, sh := range st.Shards {
			fmt.Fprintf(w, "  %-12s %6d predicates  version %d", sh.Rel, sh.Predicates, sh.Version)
			if sh.Structure != "" {
				fmt.Fprintf(w, "  structure %s", sh.Structure)
			}
			fmt.Fprintf(w, "\n")
		}
	}
	if len(st.Trees) > 0 {
		fmt.Fprintf(w, "ibs trees:\n")
		fmt.Fprintf(w, "  %-12s %-12s %9s %6s %8s %7s\n",
			"rel", "attr", "intervals", "nodes", "markers", "height")
		for _, t := range st.Trees {
			fmt.Fprintf(w, "  %-12s %-12s %9d %6d %8d %7d\n",
				t.Rel, t.Attr, t.Intervals, t.Nodes, t.Markers, t.Height)
		}
	}
	if len(st.Relations) > 0 {
		fmt.Fprintf(w, "relations:\n")
		for _, r := range st.Relations {
			fmt.Fprintf(w, "  %-12s %6d rows  next id %d\n", r.Name, r.Rows, r.NextID)
		}
	}
	if st.WAL != nil {
		fmt.Fprintf(w, "wal: sync=%s, seq %d (%d durable), %d segments",
			st.WAL.Sync, st.WAL.LastSeq, st.WAL.DurableSeq, st.WAL.Segments)
		if st.WAL.SnapshotSeq > 0 {
			fmt.Fprintf(w, ", snapshot at seq %d", st.WAL.SnapshotSeq)
		}
		fmt.Fprintf(w, "\n")
	}
	if st.Repl != nil {
		switch st.Repl.Role {
		case "follower":
			fmt.Fprintf(w, "replication: follower of %s, applied seq %d, lag %d",
				st.Repl.Leader, st.Repl.AppliedSeq, st.Repl.Lag)
			if st.Repl.Reconnects > 0 {
				fmt.Fprintf(w, ", %d reconnects", st.Repl.Reconnects)
			}
			fmt.Fprintf(w, "\n")
		default:
			fmt.Fprintf(w, "replication: leader, %d followers connected\n", st.Repl.Followers)
		}
	}
	if len(st.Connections) > 0 {
		fmt.Fprintf(w, "connections:\n")
		fmt.Fprintf(w, "  %-22s %5s %9s %9s %8s %8s\n",
			"remote", "queue", "delivered", "dropped", "lastseq", "rules")
		for _, cs := range st.Connections {
			rules := "-"
			if cs.Subscribed {
				rules = "all"
				if len(cs.Rules) > 0 {
					rules = fmt.Sprintf("%d", len(cs.Rules))
				}
			}
			if cs.Replica {
				// A replication stream: the marker carries the follower's
				// shipped-up-to sequence instead of subscription state.
				rules = fmt.Sprintf("repl@%d", cs.ReplSeq)
			}
			fmt.Fprintf(w, "  %-22s %2d/%-3d %9d %9d %8d %8s\n",
				cs.Remote, cs.Queue, cs.QueueCap, cs.Delivered,
				cs.Dropped, cs.LastSeq, rules)
		}
	}
}
