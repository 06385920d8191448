package core_test

import (
	"math/rand"
	"sort"
	"testing"

	"predmatch/internal/core"
	"predmatch/internal/hashseq"
	"predmatch/internal/ibs"
	"predmatch/internal/interval"
	"predmatch/internal/islist"
	"predmatch/internal/matcher"
	"predmatch/internal/matchertest"
	"predmatch/internal/pred"
	"predmatch/internal/value"
	"predmatch/internal/workload"
)

func TestConformanceBalanced(t *testing.T) {
	matchertest.Run(t, func(f *matchertest.Fixture) matcher.Matcher {
		return core.New(f.Catalog, f.Funcs)
	})
}

func TestConformanceUnbalanced(t *testing.T) {
	matchertest.Run(t, func(f *matchertest.Fixture) matcher.Matcher {
		return core.New(f.Catalog, f.Funcs,
			core.WithTreeOptions(ibs.Balanced(false)),
			core.WithName("ibs-unbalanced"))
	})
}

// TestConcurrentConformance drives the read/write storm harness; the
// bare Index is single-threaded (shared scratch buffer), so it runs
// under the Synchronized wrapper. ParallelMatcher and the sharded
// matcher run the same harness bare in their own tests.
func TestConcurrentConformance(t *testing.T) {
	matchertest.RunConcurrent(t, func(f *matchertest.Fixture) matcher.Matcher {
		return matchertest.Synchronized(core.New(f.Catalog, f.Funcs))
	})
}

func TestTreesAndNonIndexable(t *testing.T) {
	f := matchertest.NewFixture()
	ix := core.New(f.Catalog, f.Funcs)

	add := func(p *pred.Predicate) {
		t.Helper()
		if err := ix.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	// Two predicates indexable on salary, one on age, one non-indexable.
	add(pred.New(1, "emp", pred.IvClause("salary", interval.AtLeast(value.Int(50)))))
	add(pred.New(2, "emp", pred.IvClause("salary", interval.Closed(value.Int(20), value.Int(30)))))
	add(pred.New(3, "emp", pred.EqClause("age", value.Int(44))))
	add(pred.New(4, "emp", pred.FnClause("age", "isodd")))

	stats := ix.Trees()
	if len(stats) != 2 {
		t.Fatalf("Trees() = %v, want 2 trees (age, salary)", stats)
	}
	if stats[0].Attr != "age" || stats[0].Intervals != 1 {
		t.Errorf("age tree stats = %+v", stats[0])
	}
	if stats[1].Attr != "salary" || stats[1].Intervals != 2 {
		t.Errorf("salary tree stats = %+v", stats[1])
	}
	if n := ix.NonIndexableCount("emp"); n != 1 {
		t.Errorf("NonIndexableCount = %d, want 1", n)
	}

	// Removing the last predicate of a tree removes the tree.
	if err := ix.Remove(3); err != nil {
		t.Fatal(err)
	}
	if stats := ix.Trees(); len(stats) != 1 || stats[0].Attr != "salary" {
		t.Fatalf("Trees() after remove = %v", stats)
	}
	if err := ix.Remove(4); err != nil {
		t.Fatal(err)
	}
	if n := ix.NonIndexableCount("emp"); n != 0 {
		t.Errorf("NonIndexableCount = %d after removal, want 0", n)
	}
}

// mostSelective is a canned estimator marking one attribute far more
// selective than the rest.
type mostSelective struct{ attr string }

func (m mostSelective) Selectivity(rel string, c pred.Clause) float64 {
	if c.Attr == m.attr {
		return 0.01
	}
	return 0.9
}

func TestEstimatorDrivesClauseChoice(t *testing.T) {
	f := matchertest.NewFixture()
	ix := core.New(f.Catalog, f.Funcs, core.WithEstimator(mostSelective{attr: "dept"}))
	p := pred.New(1, "emp",
		pred.IvClause("salary", interval.AtLeast(value.Int(10))),
		pred.EqClause("dept", value.String_("shoe")),
	)
	if err := ix.Add(p); err != nil {
		t.Fatal(err)
	}
	stats := ix.Trees()
	if len(stats) != 1 || stats[0].Attr != "dept" {
		t.Fatalf("expected the dept clause to be indexed, got %v", stats)
	}
}

// TestTenThousandRules exercises the paper's Section 3 scale argument:
// "the largest expert system applications built to date have on the
// order of 10,000 rules, which is few enough that data structures
// associated with the rules will fit in a few megabytes of main memory."
// 10,000 predicates across 10 relations must index, match (agreeing with
// the hash+sequential baseline), and tear down cleanly.
func TestTenThousandRules(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-rule soak test in -short mode")
	}
	rng := rand.New(rand.NewSource(1990))
	spec := workload.SchemaSpec{
		Relations:     10,
		AttrsPerRel:   15,
		UsedAttrFrac:  1.0 / 3.0,
		PredsPerRel:   1000,
		ClausesPer:    2,
		IndexableFrac: 0.9,
		PointFrac:     0.5,
	}
	pop, err := spec.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	ix := core.New(pop.Catalog, pop.Funcs)
	ref := hashseq.New(pop.Catalog, pop.Funcs)
	for _, p := range pop.Preds {
		if err := ix.Add(p); err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 10000 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for i := 0; i < 200; i++ {
		rel := pop.Rels[i%len(pop.Rels)]
		tup := pop.Tuple(rng, rel)
		got, err := ix.Match(rel.Name(), tup, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Match(rel.Name(), tup, nil)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(got) != len(want) {
			t.Fatalf("tuple %d: %d matches vs reference %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("tuple %d: match sets differ", i)
			}
		}
	}
	// Every attribute tree must be properly balanced at this scale.
	for _, ts := range ix.Trees() {
		if ts.Height > 3*log2(ts.Intervals+1)+4 {
			t.Errorf("tree %s.%s height %d for %d intervals", ts.Rel, ts.Attr, ts.Height, ts.Intervals)
		}
	}
	// Remove everything.
	for _, p := range pop.Preds {
		if err := ix.Remove(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 0 || len(ix.Trees()) != 0 {
		t.Fatalf("index not empty after removal: %d preds, %d trees", ix.Len(), len(ix.Trees()))
	}
}

func log2(n int) int {
	b := 0
	for n > 0 {
		n >>= 1
		b++
	}
	return b
}

// TestConformanceIntervalSkipList swaps the per-attribute IBS-trees for
// interval skip lists (Hanson's successor structure) and re-runs the
// full conformance suite — the scheme is agnostic to the interval index.
func TestConformanceIntervalSkipList(t *testing.T) {
	matchertest.Run(t, func(f *matchertest.Fixture) matcher.Matcher {
		return core.New(f.Catalog, f.Funcs,
			core.WithIndexFactory(func() core.AttrIndex {
				return islist.New(value.Compare)
			}),
			core.WithName("islist-scheme"))
	})
}

func TestTreesStatsWithSkipListFactory(t *testing.T) {
	f := matchertest.NewFixture()
	ix := core.New(f.Catalog, f.Funcs,
		core.WithIndexFactory(func() core.AttrIndex { return islist.New(value.Compare) }))
	if err := ix.Add(pred.New(1, "emp", pred.EqClause("age", value.Int(4)))); err != nil {
		t.Fatal(err)
	}
	stats := ix.Trees()
	if len(stats) != 1 || stats[0].Intervals != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// The skip list reports node/marker stats via the optional interface.
	if stats[0].Nodes == 0 || stats[0].Markers == 0 {
		t.Fatalf("skip-list stats not surfaced: %+v", stats[0])
	}
}
