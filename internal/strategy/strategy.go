// Package strategy is the single registry of predicate-matching
// strategies: every way this repository can stand up a matcher.Matcher,
// keyed by the name users pass to `predmatch -matcher`, the
// benchmarks, and the cross-strategy conformance sweep. The binaries
// derive their flag help from this registry, so the documented list can
// never drift from the implemented one (a test asserts exactly that).
//
// Two families live here:
//
//   - Whole-matcher strategies (hashseq, seqscan, rtree, sharded…):
//     self-contained matcher.Matcher implementations.
//   - Attribute-index strategies (ibs, islist, pst, hint…): the paper's
//     Figure-1 scheme (core.Index) with the per-attribute interval
//     structure swapped via core.WithIndexFactory. These also report
//     CoreOptions, the option set that puts the structure under the
//     sharded serving layer. predmatchd serves only two of them (see
//     ServingIndex); the rest are experiment-only comparators.
package strategy

import (
	"fmt"
	"strings"

	"predmatch/internal/augtree"
	"predmatch/internal/core"
	"predmatch/internal/hashseq"
	"predmatch/internal/hint"
	"predmatch/internal/ibs"
	"predmatch/internal/islist"
	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/pst"
	"predmatch/internal/rtree"
	"predmatch/internal/schema"
	"predmatch/internal/seqscan"
	"predmatch/internal/shard"
	"predmatch/internal/value"
)

// Factory builds a fresh matcher for a catalog and function registry.
type Factory func(*schema.Catalog, *pred.Registry) matcher.Matcher

// Info describes one registered strategy.
type Info struct {
	Name    string
	Summary string // one line for help text and docs
	New     Factory
	// coreOpts is non-nil for attribute-index strategies: the
	// core.Option set that makes a core.Index (or each shard of a
	// ShardedMatcher) use this structure.
	coreOpts func() []core.Option
}

// attrIndexStrategy registers a core.Index-based strategy whose
// attribute structure is produced by factory.
func attrIndexStrategy(name, summary string, factory func() core.AttrIndex) Info {
	opts := func() []core.Option {
		return []core.Option{
			core.WithIndexFactory(factory),
			core.WithName(name),
		}
	}
	return Info{
		Name:    name,
		Summary: summary,
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return core.New(cat, funcs, opts()...)
		},
		coreOpts: opts,
	}
}

// registry holds every strategy in presentation order: the paper's
// scheme and its attribute-index variants first, then the whole-matcher
// alternatives, then the serving-layer wrappers.
var registry = []Info{
	{
		Name:    "ibs",
		Summary: "the paper's scheme: per-attribute IBS-trees (balanced)",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return core.New(cat, funcs)
		},
		coreOpts: func() []core.Option { return nil },
	},
	{
		Name:    "ibs-unbalanced",
		Summary: "IBS-trees without rebalancing, the paper's original insert",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return core.New(cat, funcs, ibsUnbalancedOpts()...)
		},
		coreOpts: ibsUnbalancedOpts,
	},
	attrIndexStrategy("hint",
		"HINT-style flat hierarchical domain partitioning (cache-conscious, lazily rebuilt)",
		func() core.AttrIndex { return hint.New(value.Compare) }),
	attrIndexStrategy("islist",
		"interval skip list attribute indexes",
		func() core.AttrIndex { return islist.New(value.Compare) }),
	attrIndexStrategy("segtree",
		"immutable segment tree attribute indexes, lazily rebuilt",
		newSegtreeIndex),
	attrIndexStrategy("inttree",
		"immutable centered interval tree attribute indexes, lazily rebuilt",
		newInttreeIndex),
	attrIndexStrategy("pst",
		"priority search tree attribute indexes",
		func() core.AttrIndex { return pst.New(value.Compare) }),
	attrIndexStrategy("augtree",
		"augmented AVL interval tree attribute indexes",
		func() core.AttrIndex { return augtree.New(value.Compare) }),
	{
		Name:    "hashseq",
		Summary: "hash on relation, then sequential clause evaluation",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return hashseq.New(cat, funcs)
		},
	},
	{
		Name:    "seqscan",
		Summary: "flat sequential scan over every predicate (the oracle)",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return seqscan.New(cat, funcs)
		},
	},
	{
		Name:    "rtree",
		Summary: "1-D R-tree over indexable clause intervals",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return rtree.NewPredMatcher(cat, funcs)
		},
	},
	{
		Name:    "sharded",
		Summary: "per-relation copy-on-write shards over IBS-trees (the serving layer)",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return shard.New(cat, funcs)
		},
	},
	{
		Name:    "sharded-hint",
		Summary: "per-relation copy-on-write shards over HINT hierarchies",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return shard.New(cat, funcs,
				shard.WithIndexOptions(
					core.WithIndexFactory(func() core.AttrIndex { return hint.New(value.Compare) }),
					core.WithName("hint")),
				shard.WithName("sharded-hint"))
		},
	},
}

func ibsUnbalancedOpts() []core.Option {
	return []core.Option{
		core.WithTreeOptions(ibs.Balanced(false)),
		core.WithName("ibs-unbalanced"),
	}
}

// All returns every registered strategy in presentation order.
func All() []Info {
	return append([]Info(nil), registry...)
}

// Lookup resolves a strategy by name.
func Lookup(name string) (Info, bool) {
	for _, in := range registry {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

// Names returns every strategy name in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, in := range registry {
		out[i] = in.Name
	}
	return out
}

// CoreOptions returns the core.Option set that makes a core.Index use
// the named strategy's attribute structure; ok is false for
// whole-matcher strategies (hashseq, rtree, sharded, …) that don't
// decompose into per-attribute indexes.
func CoreOptions(name string) ([]core.Option, bool) {
	in, ok := Lookup(name)
	if !ok || in.coreOpts == nil {
		return nil, false
	}
	return in.coreOpts(), true
}

// FlagHelp renders the strategy list for a -matcher style flag's usage
// string: every registered name, comma-separated, in order.
func FlagHelp() string {
	return "matching strategy (one of " + strings.Join(Names(), ", ") + ")"
}

// UnknownErr builds the standard unknown-strategy error, naming every
// valid choice.
func UnknownErr(name string) error {
	return fmt.Errorf("unknown matcher %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// servingIndexes are the attribute-index structures predmatchd serves
// behind -index, in help order: hint, the fastest fixed structure in
// every BENCH_PR10 workload cell, and ibs, the paper's structure and
// the default. The other attribute-index strategies stay in the
// registry as experiment-only comparators (docs/MATCHERS.md, "Serving
// structures").
const servingIndexes = "hint, ibs"

// IndexFlagHelp is the usage string of predmatchd's -index flag.
func IndexFlagHelp() string {
	return "per-shard attribute index structure (one of " + servingIndexes + ")"
}

// ServingIndex resolves a predmatchd -index value to the server's
// per-shard index options and reported matcher name. ibs returns nil
// options and an empty name, which keeps the server's zero-Config
// behavior (and its instrumented tree counters). Any other name than
// ibs or hint is an error naming the two.
func ServingIndex(name string) (opts []core.Option, matcherName string, err error) {
	switch name {
	case "ibs":
		return nil, "", nil
	case "hint":
		opts, _ = CoreOptions(name)
		return opts, "sharded-hint", nil
	}
	return nil, "", fmt.Errorf("unknown index %q (want one of %s)", name, servingIndexes)
}
