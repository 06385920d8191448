package strategy_test

import (
	"testing"

	"predmatch/internal/matcher"
	"predmatch/internal/matchertest"
	"predmatch/internal/strategy"
)

func TestRegistryShape(t *testing.T) {
	names := strategy.Names()
	if len(names) != len(strategy.All()) {
		t.Fatalf("Names/All length mismatch")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate strategy name %q", n)
		}
		seen[n] = true
		in, ok := strategy.Lookup(n)
		if !ok || in.Name != n {
			t.Errorf("Lookup(%q) = %+v, %v", n, in, ok)
		}
		if in.Summary == "" {
			t.Errorf("strategy %q has no summary", n)
		}
	}
	// The ten strategies the conformance sweep must cover, by contract.
	for _, want := range []string{
		"ibs", "ibs-unbalanced", "hashseq", "seqscan", "rtree",
		"islist", "segtree", "inttree", "pst", "hint",
	} {
		if !seen[want] {
			t.Errorf("registry is missing strategy %q", want)
		}
	}
	if _, ok := strategy.Lookup("nosuch"); ok {
		t.Error("Lookup accepted unknown name")
	}
	// Attribute-index strategies resolve CoreOptions; whole-matcher
	// strategies don't.
	for _, n := range []string{"ibs", "hint", "islist", "segtree", "inttree", "pst", "augtree"} {
		if _, ok := strategy.CoreOptions(n); !ok {
			t.Errorf("CoreOptions(%q) = false", n)
		}
	}
	for _, n := range []string{"hashseq", "seqscan", "rtree", "sharded", "sharded-hint"} {
		if _, ok := strategy.CoreOptions(n); ok {
			t.Errorf("CoreOptions(%q) = true for a whole-matcher strategy", n)
		}
	}
}

// TestConformanceAllStrategies runs the full matchertest behavioral
// gauntlet — conformance, error contract, multi-relation isolation,
// dst-append semantics — over every registered strategy, with
// per-strategy subtests so a failure names the offender.
func TestConformanceAllStrategies(t *testing.T) {
	for _, in := range strategy.All() {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			matchertest.Run(t, func(f *matchertest.Fixture) matcher.Matcher {
				return in.New(f.Catalog, f.Funcs)
			})
		})
	}
}

// TestConcurrentServingStrategies storms the lock-free serving-layer
// strategies with the concurrent harness (4 writers × 4 readers against
// copy-on-write snapshot swaps). The single-writer strategies are
// covered by the same harness behind matchertest.Synchronized in their
// own packages.
func TestConcurrentServingStrategies(t *testing.T) {
	for _, name := range []string{"sharded", "sharded-hint"} {
		in, ok := strategy.Lookup(name)
		if !ok {
			t.Fatalf("strategy %q not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			matchertest.RunConcurrent(t, func(f *matchertest.Fixture) matcher.Matcher {
				return in.New(f.Catalog, f.Funcs)
			})
		})
	}
}
