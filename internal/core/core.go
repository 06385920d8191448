// Package core implements the paper's predicate indexing scheme
// (Section 4, Figure 1) — the primary contribution built on top of the
// IBS-tree:
//
//	inserted or deleted tuples
//	        |
//	   hash on relation name
//	        |
//	  per-relation second-level index:
//	    - a list of non-indexable predicates
//	    - one IBS-tree per attribute that has one or more indexable
//	      predicate clauses
//	        |
//	  PREDICATES table: full predicate tested on partial match
//
// For each predicate that is a conjunction of selection clauses, the most
// selective indexable clause — per the optimizer's selectivity estimates
// (internal/selectivity) — is placed in the IBS-tree of its attribute.
// Matching a tuple probes each attribute tree with the tuple's value for
// that attribute, unions the partial matches with the non-indexable list,
// and completes each candidate against the PREDICATES table.
package core

import (
	"fmt"
	"sort"

	"predmatch/internal/ibs"
	"predmatch/internal/interval"
	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/selectivity"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// AttrIndex is the per-attribute interval index the scheme builds on.
// The paper's structure is the IBS-tree (the default); any dynamic
// stabbing index over attribute values qualifies — internal/islist's
// interval skip list is the drop-in alternative, making the choice of
// interval index a whole-scheme ablation axis.
type AttrIndex interface {
	Insert(id ibs.ID, iv interval.Interval[value.Value]) error
	Delete(id ibs.ID) error
	StabAppend(v value.Value, dst []ibs.ID) []ibs.ID
	Len() int
}

// AttrIndexStats is optionally implemented by attribute indexes that can
// report space statistics (the IBS-tree and interval skip list both do).
type AttrIndexStats interface {
	NodeCount() int
	MarkerCount() int
}

// IndexFactory constructs an empty attribute index.
type IndexFactory func() AttrIndex

// entry is one row of the PREDICATES table.
type entry struct {
	bound *pred.Bound
	// attr names the attribute whose IBS-tree indexes this predicate;
	// empty for non-indexable predicates.
	attr string
	// clause is the index of the clause placed in the tree, -1 if none.
	clause int
}

// relIndex is the second-level index for one relation.
type relIndex struct {
	rel *schema.Relation
	// trees maps attribute name to its interval index of indexable
	// clauses (an IBS-tree unless WithIndexFactory overrides it).
	trees map[string]AttrIndex
	// treeAttrs caches the attribute positions of trees, rebuilt on
	// structural change, so Match avoids map iteration order costs.
	probes []probe
	// nonIndexable lists predicates with no indexable clause.
	nonIndexable []*entry
}

type probe struct {
	pos  int
	tree AttrIndex
}

func (ri *relIndex) rebuildProbes() {
	ri.probes = ri.probes[:0]
	attrs := make([]string, 0, len(ri.trees))
	for a := range ri.trees {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		pos, _ := ri.rel.AttrIndex(a)
		ri.probes = append(ri.probes, probe{pos: pos, tree: ri.trees[a]})
	}
}

// Index is the full predicate index of Figure 1. It is not safe for
// concurrent use (Match reuses an internal scratch buffer); wrap it in
// a ParallelMatcher for a lock-protected, intra-query-parallel variant.
type Index struct {
	catalog *schema.Catalog
	funcs   *pred.Registry
	est     selectivity.Estimator
	factory IndexFactory
	name    string
	rels    map[string]*relIndex
	preds   map[pred.ID]*entry
	scratch []pred.ID
}

var _ matcher.Matcher = (*Index)(nil)

// Option configures an Index.
type Option func(*Index)

// WithEstimator sets the selectivity estimator used to choose which
// clause of each predicate is indexed (default: selectivity.Static).
func WithEstimator(est selectivity.Estimator) Option {
	return func(ix *Index) { ix.est = est }
}

// WithTreeOptions passes options to every IBS-tree the index creates
// (e.g. ibs.Balanced(false) to reproduce the paper's unbalanced
// measurement configuration). It resets the factory to IBS-trees.
func WithTreeOptions(opts ...ibs.Option) Option {
	return func(ix *Index) {
		ix.factory = func() AttrIndex { return ibs.New(value.Compare, opts...) }
	}
}

// WithIndexFactory replaces the per-attribute interval index wholesale,
// e.g. with internal/islist's interval skip list:
//
//	core.New(cat, funcs, core.WithIndexFactory(func() core.AttrIndex {
//	    return islist.New(value.Compare)
//	}))
func WithIndexFactory(f IndexFactory) Option {
	return func(ix *Index) { ix.factory = f }
}

// WithName overrides the strategy name reported in benchmarks.
func WithName(name string) Option {
	return func(ix *Index) { ix.name = name }
}

// New returns an empty predicate index.
func New(catalog *schema.Catalog, funcs *pred.Registry, opts ...Option) *Index {
	ix := &Index{
		catalog: catalog,
		funcs:   funcs,
		est:     selectivity.Static{},
		factory: func() AttrIndex { return ibs.New(value.Compare) },
		name:    "ibs",
		rels:    make(map[string]*relIndex),
		preds:   make(map[pred.ID]*entry),
	}
	for _, o := range opts {
		o(ix)
	}
	return ix
}

// Name implements matcher.Matcher.
func (ix *Index) Name() string { return ix.name }

// Len implements matcher.Matcher.
func (ix *Index) Len() int { return len(ix.preds) }

// Add implements matcher.Matcher: the predicate's most selective
// indexable clause goes into the IBS-tree of its attribute; predicates
// without indexable clauses go on the relation's non-indexable list.
func (ix *Index) Add(p *pred.Predicate) error {
	if _, dup := ix.preds[p.ID]; dup {
		return fmt.Errorf("core: duplicate predicate id %d", p.ID)
	}
	b, err := p.Bind(ix.catalog, ix.funcs)
	if err != nil {
		return err
	}
	rel, _ := ix.catalog.Get(p.Rel)
	ri, ok := ix.rels[p.Rel]
	if !ok {
		ri = &relIndex{rel: rel, trees: make(map[string]AttrIndex)}
		ix.rels[p.Rel] = ri
	}
	e := &entry{bound: b, clause: -1}
	if ci, ok := selectivity.ChooseClause(p, ix.est); ok {
		c := p.Clauses[ci]
		tree, ok := ri.trees[c.Attr]
		if !ok {
			tree = ix.factory()
			ri.trees[c.Attr] = tree
			ri.rebuildProbes()
		}
		if err := tree.Insert(p.ID, c.Iv); err != nil {
			return fmt.Errorf("core: indexing clause %v: %w", c, err)
		}
		e.attr = c.Attr
		e.clause = ci
	} else {
		ri.nonIndexable = append(ri.nonIndexable, e)
	}
	ix.preds[p.ID] = e
	return nil
}

// Remove implements matcher.Matcher.
func (ix *Index) Remove(id pred.ID) error {
	e, ok := ix.preds[id]
	if !ok {
		return fmt.Errorf("core: unknown predicate id %d", id)
	}
	delete(ix.preds, id)
	ri := ix.rels[e.bound.Pred.Rel]
	if e.clause >= 0 {
		tree := ri.trees[e.attr]
		if err := tree.Delete(id); err != nil {
			return err
		}
		if tree.Len() == 0 {
			delete(ri.trees, e.attr)
			ri.rebuildProbes()
		}
		return nil
	}
	for i, x := range ri.nonIndexable {
		if x == e {
			ri.nonIndexable = append(ri.nonIndexable[:i], ri.nonIndexable[i+1:]...)
			break
		}
	}
	return nil
}

// Match implements matcher.Matcher: probe each attribute's IBS-tree with
// the tuple's value for that attribute (a stabbing query), then complete
// every partial match — and every non-indexable predicate — against the
// PREDICATES table.
func (ix *Index) Match(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	ri, ok := ix.rels[rel]
	if !ok {
		return dst, nil
	}
	scratch := ix.scratch[:0]
	for _, pr := range ri.probes {
		scratch = pr.tree.StabAppend(t[pr.pos], scratch)
	}
	for _, id := range scratch {
		e := ix.preds[id]
		if e.bound.MatchSkipping(t, e.clause) {
			dst = append(dst, id)
		}
	}
	for _, e := range ri.nonIndexable {
		if e.bound.Match(t) {
			dst = append(dst, e.bound.Pred.ID)
		}
	}
	ix.scratch = scratch
	return dst, nil
}

// MatchSnapshot is Match without the shared scratch buffer: it performs
// no writes to the index at all, so any number of goroutines may call it
// on the same Index concurrently — provided nothing mutates the index
// meanwhile. This is the read path of the copy-on-write wrappers
// (ParallelMatcher, internal/shard), which treat every published Index
// as frozen.
func (ix *Index) MatchSnapshot(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	ri, ok := ix.rels[rel]
	if !ok {
		return dst, nil
	}
	return ix.matchSerial(ri, t, dst)
}

// Clone returns a copy of the index that can be mutated without
// affecting the original (and vice versa). The PREDICATES table entries
// are shared — they are immutable after Add — while the relation tables
// and every attribute tree are rebuilt, costing one tree insertion per
// indexed predicate. Clone is what the copy-on-write wrappers use to
// prepare the next snapshot before publishing it.
func (ix *Index) Clone() *Index {
	cp := &Index{
		catalog: ix.catalog,
		funcs:   ix.funcs,
		est:     ix.est,
		factory: ix.factory,
		name:    ix.name,
		rels:    make(map[string]*relIndex, len(ix.rels)),
		preds:   make(map[pred.ID]*entry, len(ix.preds)),
	}
	for name, ri := range ix.rels {
		cri := &relIndex{rel: ri.rel, trees: make(map[string]AttrIndex, len(ri.trees))}
		if len(ri.nonIndexable) > 0 {
			cri.nonIndexable = append([]*entry(nil), ri.nonIndexable...)
		}
		for attr := range ri.trees {
			cri.trees[attr] = ix.factory()
		}
		cp.rels[name] = cri
	}
	for id, e := range ix.preds {
		cp.preds[id] = e
		if e.clause < 0 {
			continue
		}
		tree := cp.rels[e.bound.Pred.Rel].trees[e.attr]
		if err := tree.Insert(id, e.bound.Pred.Clauses[e.clause].Iv); err != nil {
			// The clause was inserted into an equivalent tree once
			// already; failing here means an index invariant is broken.
			panic(fmt.Sprintf("core: clone re-insert of predicate %d: %v", id, err))
		}
	}
	for _, cri := range cp.rels {
		cri.rebuildProbes()
	}
	return cp
}

// Candidates returns the number of partial matches a Match for t would
// complete against the PREDICATES table: index hits from the attribute
// trees plus the non-indexable list. This is the quantity the paper's
// Section 5.2 cost model multiplies by the full-test cost ("20
// predicates must be tested after the initial search").
func (ix *Index) Candidates(rel string, t tuple.Tuple) int {
	ri, ok := ix.rels[rel]
	if !ok {
		return 0
	}
	scratch := ix.scratch[:0]
	for _, pr := range ri.probes {
		scratch = pr.tree.StabAppend(t[pr.pos], scratch)
	}
	n := len(scratch) + len(ri.nonIndexable)
	ix.scratch = scratch
	return n
}

// TreeStats describes one attribute IBS-tree, for instrumentation and
// the space experiments.
type TreeStats struct {
	Rel, Attr string
	Intervals int
	Nodes     int
	Markers   int
	Height    int
}

// Trees returns statistics for every attribute tree in the index.
func (ix *Index) Trees() []TreeStats {
	var out []TreeStats
	for relName, ri := range ix.rels {
		for attr, tree := range ri.trees {
			ts := TreeStats{
				Rel:       relName,
				Attr:      attr,
				Intervals: tree.Len(),
			}
			if st, ok := tree.(AttrIndexStats); ok {
				ts.Nodes = st.NodeCount()
				ts.Markers = st.MarkerCount()
			}
			if ht, ok := tree.(interface{ Height() int }); ok {
				ts.Height = ht.Height()
			}
			out = append(out, ts)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel < out[j].Rel
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// NonIndexableCount returns the number of predicates on rel's
// non-indexable list.
func (ix *Index) NonIndexableCount(rel string) int {
	ri, ok := ix.rels[rel]
	if !ok {
		return 0
	}
	return len(ri.nonIndexable)
}
