// Package shard implements the serving-layer predicate matcher: the
// paper's first-level hash on relation name (Figure 1) becomes the unit
// of concurrency. Every relation gets its own shard, and every shard
// holds an atomically published, immutable core.Index snapshot covering
// only that relation's predicates.
//
// Concurrency model:
//
//   - Match is lock-free: one atomic load of the shard directory, one
//     atomic load of the shard's snapshot, then a read-only stab against
//     the frozen snapshot. Readers never block writers or each other.
//   - Writers serialize per shard: Add/Remove take the shard's mutex,
//     clone the current snapshot, apply the change to the clone, and
//     publish it with an atomic store. Writers to different relations
//     proceed fully in parallel — the sharding axis the paper's
//     relation-name hash already provides.
//   - Every Match observes a predicate set that actually existed at some
//     instant between the call's start and end (snapshot isolation per
//     relation); it never sees a half-applied write.
//
// MatchBatch amortizes the snapshot acquisition over a whole batch of
// tuples and fans the per-tuple stabs across a worker pool, so all
// tuples of a batch observe the same predicate-set version.
package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predmatch/internal/core"
	"predmatch/internal/matcher"
	"predmatch/internal/obs"
	"predmatch/internal/pred"
	"predmatch/internal/prefilter"
	"predmatch/internal/schema"
	"predmatch/internal/trace"
	"predmatch/internal/tuple"
)

// minBatchFanout is the batch size below which MatchBatch stays serial;
// smaller batches don't amortize goroutine scheduling.
const minBatchFanout = 16

// ShardedMatcher partitions the predicate index by relation and serves
// lock-free snapshot reads. Construct with New.
type ShardedMatcher struct {
	catalog *schema.Catalog
	funcs   *pred.Registry
	opts    []core.Option
	workers int
	name    string
	met     *metrics // nil unless built with WithMetrics

	// prof is the workload profile accumulator fed by every Match (stab
	// count/latency/results, prefilter skips, queried attributes). nil
	// unless installed with SetProfiles.
	prof *trace.Profiles

	// pf is the attribute prefilter consulted before every snapshot
	// stab; tuples it proves unmatchable never enter a tree. nil when
	// built with WithoutPrefilter. Mutators keep it ordered against
	// snapshot publication (add before publish, remove after) so it is
	// always at least as permissive as any published snapshot requires.
	pf *prefilter.Filter

	// dir is the immutable relation→shard directory. Shards are only
	// ever added (a relation's shard survives its last predicate), so
	// growing it is a copy-on-write map swap under dirMu; loads are
	// lock-free by design.
	dirMu sync.Mutex
	dir   atomic.Pointer[map[string]*relShard] // write-guarded-by: dirMu

	// ids routes Remove calls to the owning relation and doubles as the
	// cross-shard duplicate-ID check and the Len source.
	idMu sync.Mutex
	ids  map[pred.ID]string // guarded-by: idMu
}

var (
	_ matcher.Matcher       = (*ShardedMatcher)(nil)
	_ matcher.TracedMatcher = (*ShardedMatcher)(nil)
)

// relShard is one relation's slice of the index.
type relShard struct {
	mu sync.Mutex // serializes clone-and-publish writers
	// snap is the published immutable snapshot; nil until the first Add.
	snap atomic.Pointer[core.Index]
	// version counts published snapshots: it advances by one on every
	// successful Add/Remove against this shard, so two reads observing
	// the same version observed the same predicate set.
	version atomic.Uint64
	// lat is the relation's match-latency histogram handle, resolved
	// once at shard creation so Match never takes the vec's lookup
	// lock. nil when the matcher is uninstrumented.
	lat *obs.Histogram
	// prof is the relation's workload-profile handle, resolved once at
	// shard creation for the same reason. nil when unprofiled.
	prof *trace.RelProfile
}

// Option configures a ShardedMatcher.
type Option func(*ShardedMatcher)

// WithWorkers bounds the MatchBatch fan-out (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(m *ShardedMatcher) {
		if n > 0 {
			m.workers = n
		}
	}
}

// WithIndexOptions passes options to every per-shard core.Index, e.g.
// core.WithIndexFactory to swap the attribute index structure.
func WithIndexOptions(opts ...core.Option) Option {
	return func(m *ShardedMatcher) { m.opts = opts }
}

// WithName overrides the strategy name reported in benchmarks.
func WithName(name string) Option {
	return func(m *ShardedMatcher) { m.name = name }
}

// WithoutPrefilter disables the attribute prefilter, sending every
// tuple straight to the snapshot stab. Intended for benchmarks that
// isolate raw index cost; the filter is on by default and is purely an
// over-approximation, so disabling it never changes match results.
func WithoutPrefilter() Option {
	return func(m *ShardedMatcher) { m.pf = nil }
}

// New returns an empty sharded matcher resolving predicates against the
// given catalog and function registry.
func New(catalog *schema.Catalog, funcs *pred.Registry, opts ...Option) *ShardedMatcher {
	m := &ShardedMatcher{
		catalog: catalog,
		funcs:   funcs,
		workers: runtime.GOMAXPROCS(0),
		name:    "sharded",
		ids:     make(map[pred.ID]string),
		pf:      prefilter.New(catalog),
	}
	empty := make(map[string]*relShard)
	m.dir.Store(&empty) //predmatchvet:ignore guardedby constructor publish; m is not shared yet
	for _, o := range opts {
		o(m)
	}
	return m
}

// SetProfiles installs the workload profile accumulator every shard
// feeds. Install before registering predicates (shards resolve their
// profile handle at creation); the server does this right after
// constructing the matcher, before recovery replays any DDL.
func (m *ShardedMatcher) SetProfiles(p *trace.Profiles) { m.prof = p }

// Name implements matcher.Matcher.
func (m *ShardedMatcher) Name() string { return m.name }

// Len implements matcher.Matcher.
func (m *ShardedMatcher) Len() int {
	m.idMu.Lock()
	defer m.idMu.Unlock()
	return len(m.ids)
}

// shard returns rel's shard, or nil if no predicate was ever added for
// rel. Lock-free.
func (m *ShardedMatcher) shard(rel string) *relShard {
	return (*m.dir.Load())[rel]
}

// shardOrCreate returns rel's shard, growing the directory on first use
// of a relation via a copy-on-write map swap.
func (m *ShardedMatcher) shardOrCreate(rel string) *relShard {
	if sh := m.shard(rel); sh != nil {
		return sh
	}
	m.dirMu.Lock()
	defer m.dirMu.Unlock()
	cur := *m.dir.Load()
	if sh := cur[rel]; sh != nil {
		return sh
	}
	next := make(map[string]*relShard, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	sh := &relShard{}
	if m.met != nil {
		sh.lat = m.met.lat.With(rel)
	}
	if m.prof != nil {
		var names []string
		if r, ok := m.catalog.Get(rel); ok {
			for _, a := range r.Attrs() {
				names = append(names, a.Name)
			}
		}
		sh.prof = m.prof.Rel(rel, names)
	}
	next[rel] = sh
	m.dir.Store(&next)
	return sh
}

// Add implements matcher.Matcher: validate, reserve the ID globally,
// then clone-and-publish the owning relation's shard.
func (m *ShardedMatcher) Add(p *pred.Predicate) error {
	// Validate up front so a bad predicate never creates a shard or
	// reserves an ID.
	if err := p.Validate(m.catalog, m.funcs); err != nil {
		return err
	}
	m.idMu.Lock()
	if _, dup := m.ids[p.ID]; dup {
		m.idMu.Unlock()
		return fmt.Errorf("shard: duplicate predicate id %d", p.ID)
	}
	m.ids[p.ID] = p.Rel
	m.idMu.Unlock()

	sh := m.shardOrCreate(p.Rel)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var next *core.Index
	if cur := sh.snap.Load(); cur != nil {
		next = cur.Clone()
	} else {
		next = core.New(m.catalog, m.funcs, m.opts...)
	}
	if err := next.Add(p); err != nil {
		m.idMu.Lock()
		delete(m.ids, p.ID)
		m.idMu.Unlock()
		return err
	}
	// Register with the prefilter BEFORE publishing: a reader observing
	// the new snapshot is then guaranteed to also observe a filter that
	// knows about p, so the filter can never skip a tuple p matches.
	if m.pf != nil {
		if err := m.pf.Add(p); err != nil {
			m.idMu.Lock()
			delete(m.ids, p.ID)
			m.idMu.Unlock()
			return err
		}
	}
	sh.snap.Store(next)
	sh.version.Add(1)
	// A predicate registration is a write against the relation's index
	// structure (one clone-and-publish), counted in the workload
	// profile's write rate.
	sh.prof.RecordWrite()
	if m.met != nil {
		m.met.swaps.Inc()
	}
	return nil
}

// Remove implements matcher.Matcher, routing by the ID's owning
// relation.
func (m *ShardedMatcher) Remove(id pred.ID) error {
	m.idMu.Lock()
	rel, ok := m.ids[id]
	if !ok {
		m.idMu.Unlock()
		return fmt.Errorf("shard: unknown predicate id %d", id)
	}
	delete(m.ids, id)
	m.idMu.Unlock()

	sh := m.shard(rel)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	next := sh.snap.Load().Clone()
	if err := next.Remove(id); err != nil {
		m.idMu.Lock()
		m.ids[id] = rel
		m.idMu.Unlock()
		return err
	}
	sh.snap.Store(next)
	sh.version.Add(1)
	sh.prof.RecordWrite()
	// Drop from the prefilter AFTER publishing: until then the filter
	// stays permissive enough for the old snapshot (over-admission is
	// free; a reader seeing the narrowed filter with the old snapshot
	// linearizes after this Remove).
	if m.pf != nil {
		_ = m.pf.Remove(rel, id) // the ids map guarantees the entry exists
	}
	if m.met != nil {
		m.met.swaps.Inc()
	}
	return nil
}

// Match implements matcher.Matcher with a lock-free snapshot read.
func (m *ShardedMatcher) Match(rel string, t tuple.Tuple, dst []pred.ID) ([]pred.ID, error) {
	return m.MatchTraced(rel, t, dst, nil)
}

// MatchTraced implements matcher.TracedMatcher: Match, additionally
// attaching child spans for the snapshot load, the prefilter verdict
// and the stab to sp. A nil sp records no spans (every span call is a
// nil-receiver no-op), so the untraced path pays only nil checks.
func (m *ShardedMatcher) MatchTraced(rel string, t tuple.Tuple, dst []pred.ID, sp *trace.Span) ([]pred.ID, error) {
	ssp := sp.Child("shard.snapshot")
	sh := m.shard(rel)
	var snap *core.Index
	if sh != nil {
		snap = sh.snap.Load()
	}
	if snap == nil {
		ssp.SetBool("miss", true)
		ssp.End()
		return dst, nil
	}
	if sp != nil {
		ssp.SetInt("version", int64(sh.version.Load()))
	}
	ssp.End()
	// The filter is consulted after the snapshot load: if this reader
	// observed a snapshot containing predicate p, the writer's filter
	// registration of p (sequenced before the publish) is visible too.
	if m.pf != nil {
		admit := m.pf.Admit(rel, t)
		if sp != nil {
			psp := sp.Child("shard.prefilter")
			psp.SetBool("admit", admit)
			psp.End()
		}
		if !admit {
			sh.prof.Skip()
			return dst, nil
		}
	}
	if sh.lat == nil && sh.prof == nil && sp == nil {
		return snap.MatchSnapshot(rel, t, dst)
	}
	tsp := sp.Child("shard.stab")
	t0 := time.Now()
	out, err := snap.MatchSnapshot(rel, t, dst)
	d := time.Since(t0)
	if sh.lat != nil {
		sh.lat.Observe(d.Seconds())
	}
	if sh.prof != nil {
		sh.prof.Stab(d, len(out))
		if m.pf != nil {
			// Attribute the stab to the positions the index consulted:
			// those carrying at least one interval clause.
			for i, word := range m.pf.QueriedBits(rel) {
				for b := 0; word != 0; b, word = b+1, word>>1 {
					if word&1 != 0 {
						sh.prof.QueriedAttr(i*64 + b)
					}
				}
			}
		}
	}
	if sp != nil {
		tsp.SetStr("rel", rel)
		tsp.SetInt("results", int64(len(out)))
	}
	tsp.End()
	return out, err
}

// MatchBatch matches every tuple of rel against one snapshot acquired
// once for the whole batch, fanning the tuples across the worker pool.
// results[i] holds the matches of tuples[i]; all tuples observe the
// same predicate-set version even while writers publish concurrently.
func (m *ShardedMatcher) MatchBatch(rel string, tuples []tuple.Tuple) ([][]pred.ID, error) {
	results := make([][]pred.ID, len(tuples))
	sh := m.shard(rel)
	if sh == nil || len(tuples) == 0 {
		return results, nil
	}
	if m.met != nil {
		m.met.batchTuples.Observe(float64(len(tuples)))
		defer m.met.batchSecs.ObserveSince(time.Now())
	}
	snap := sh.snap.Load()
	if snap == nil {
		return results, nil
	}
	workers := m.workers
	if workers > len(tuples) {
		workers = len(tuples)
	}
	if workers <= 1 || len(tuples) < minBatchFanout {
		var err error
		for i, t := range tuples {
			if m.pf != nil && !m.pf.Admit(rel, t) {
				continue
			}
			if results[i], err = snap.MatchSnapshot(rel, t, nil); err != nil {
				return results, err
			}
		}
		return results, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	chunk := (len(tuples) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(tuples) {
			hi = len(tuples)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if m.pf != nil && !m.pf.Admit(rel, tuples[i]) {
					continue
				}
				out, err := snap.MatchSnapshot(rel, tuples[i], nil)
				if err != nil {
					errs[w] = err
					return
				}
				results[i] = out
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Snapshot returns rel's current frozen index, or nil if the relation
// has never held a predicate. The returned index must be treated as
// read-only (use MatchSnapshot); it stays valid forever — later writes
// publish new snapshots instead of mutating it.
func (m *ShardedMatcher) Snapshot(rel string) *core.Index {
	sh := m.shard(rel)
	if sh == nil {
		return nil
	}
	return sh.snap.Load()
}

// ShardStats describes one relation shard: how many predicates its
// current snapshot holds and which snapshot version is published.
type ShardStats struct {
	Rel        string
	Predicates int
	Version    uint64
	// Structure is the snapshot's index strategy name (core.WithName).
	// Empty while no snapshot is published.
	Structure string
}

// Stats reports every shard's predicate count and snapshot version,
// sorted by relation. Each shard's count/version pair is read
// atomically-enough for monitoring (the two loads are not fenced
// together, so a concurrent write may skew one entry by one).
func (m *ShardedMatcher) Stats() []ShardStats {
	dir := *m.dir.Load()
	out := make([]ShardStats, 0, len(dir))
	for rel, sh := range dir {
		s := ShardStats{Rel: rel, Version: sh.version.Load()}
		if snap := sh.snap.Load(); snap != nil {
			s.Predicates = snap.Len()
			s.Structure = snap.Name()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rel < out[j].Rel })
	return out
}

// PrefilterStats returns the attribute prefilter's admission counters;
// ok is false when the matcher was built with WithoutPrefilter.
func (m *ShardedMatcher) PrefilterStats() (s prefilter.Stats, ok bool) {
	if m.pf == nil {
		return prefilter.Stats{}, false
	}
	return m.pf.Stats(), true
}

// Relations returns the relations that currently have a shard (any
// relation that ever held a predicate).
func (m *ShardedMatcher) Relations() []string {
	dir := *m.dir.Load()
	out := make([]string, 0, len(dir))
	for rel := range dir {
		out = append(out, rel)
	}
	return out
}

// Trees aggregates the attribute-tree statistics of every shard's
// current snapshot (see core.Index.Trees), for instrumentation and the
// script interpreter's stats statement.
func (m *ShardedMatcher) Trees() []core.TreeStats {
	var out []core.TreeStats
	for _, sh := range *m.dir.Load() {
		if snap := sh.snap.Load(); snap != nil {
			out = append(out, snap.Trees()...)
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
