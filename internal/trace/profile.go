package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Profiles accumulates per-relation / per-attribute workload
// observations: stab volume and latency, observed selectivity (results
// per stab), write volume, and a histogram of which attributes the
// index actually consults per probe. The daemon serves them as the
// stats "workload profile" table and the predmatch_workload_* metrics. It is fed
// directly from the hot paths (not from sampled spans), so the numbers
// describe the full workload, and every counter is a plain atomic —
// the cost per probe is a handful of uncontended atomic adds, matching
// the prefilter's existing admitted/skipped counters.
//
// The relation map is published copy-on-write through an atomic
// pointer, exactly like the shard directory: lookups on the hot path
// are a single lock-free load; relation creation serializes on a
// mutex.
type Profiles struct {
	mu   sync.Mutex
	rels atomic.Pointer[map[string]*RelProfile] // write-guarded-by: mu
}

// NewProfiles returns an empty accumulator.
func NewProfiles() *Profiles {
	p := &Profiles{}
	empty := make(map[string]*RelProfile)
	p.mu.Lock()
	p.rels.Store(&empty)
	p.mu.Unlock()
	return p
}

// Rel returns rel's accumulator, creating it with the given attribute
// names on first sight (attrs are ignored afterwards). The returned
// handle is lock-free; callers cache it. Nil-safe: a nil receiver
// returns nil, and every RelProfile method is a no-op on nil.
func (p *Profiles) Rel(rel string, attrs []string) *RelProfile {
	if p == nil {
		return nil
	}
	if rp := (*p.rels.Load())[rel]; rp != nil {
		return rp
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := *p.rels.Load()
	if rp := cur[rel]; rp != nil {
		return rp
	}
	rp := &RelProfile{
		rel:     rel,
		attrs:   append([]string(nil), attrs...),
		queried: make([]atomic.Uint64, len(attrs)),
	}
	next := make(map[string]*RelProfile, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[rel] = rp
	p.rels.Store(&next)
	return rp
}

// Lookup returns rel's accumulator or nil, without creating one.
func (p *Profiles) Lookup(rel string) *RelProfile {
	if p == nil {
		return nil
	}
	return (*p.rels.Load())[rel]
}

// RelProfile is one relation's accumulator. All counters are
// monotonic; consumers derive rates and ratios by differencing.
type RelProfile struct {
	rel   string
	attrs []string // attribute names, fixed at creation

	stabs   atomic.Uint64
	stabNS  atomic.Uint64
	results atomic.Uint64
	skips   atomic.Uint64
	writes  atomic.Uint64
	// queried[i] counts stabs that consulted attrs[i] — probes made
	// while at least one registered interval clause constrained the
	// attribute (the positions the index keeps trees for).
	queried []atomic.Uint64
}

// Stab records one index probe: its latency and result count.
func (r *RelProfile) Stab(d time.Duration, results int) {
	if r == nil {
		return
	}
	r.stabs.Add(1)
	r.stabNS.Add(uint64(d))
	r.results.Add(uint64(results))
}

// Skip records a probe the prefilter proved unmatchable (no stab ran).
func (r *RelProfile) Skip() {
	if r != nil {
		r.skips.Add(1)
	}
}

// QueriedAttr records that attribute position i was consulted by a
// stab. Out-of-range positions are ignored.
func (r *RelProfile) QueriedAttr(i int) {
	if r != nil && i >= 0 && i < len(r.queried) {
		r.queried[i].Add(1)
	}
}

// RecordWrite records one applied mutation event against the relation.
func (r *RelProfile) RecordWrite() {
	if r != nil {
		r.writes.Add(1)
	}
}

// RelProfileStat is a point-in-time snapshot of one relation's
// accumulator.
type RelProfileStat struct {
	Relation string
	Stabs    uint64  // index probes that ran
	Skipped  uint64  // probes the prefilter skipped
	Results  uint64  // total predicate matches (selectivity numerator)
	StabSecs float64 // cumulative stab latency
	Writes   uint64  // applied mutation events
	Attrs    []AttrProfileStat
}

// AttrProfileStat is one attribute's share of the queried histogram.
type AttrProfileStat struct {
	Name    string
	Queried uint64
}

// Snapshot returns every relation's current counters, sorted by
// relation name. Nil-safe.
func (p *Profiles) Snapshot() []RelProfileStat {
	if p == nil {
		return nil
	}
	cur := *p.rels.Load()
	out := make([]RelProfileStat, 0, len(cur))
	for _, rp := range cur {
		st := RelProfileStat{
			Relation: rp.rel,
			Stabs:    rp.stabs.Load(),
			Skipped:  rp.skips.Load(),
			Results:  rp.results.Load(),
			StabSecs: float64(rp.stabNS.Load()) / 1e9,
			Writes:   rp.writes.Load(),
		}
		for i := range rp.queried {
			st.Attrs = append(st.Attrs, AttrProfileStat{
				Name:    rp.attrs[i],
				Queried: rp.queried[i].Load(),
			})
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Relation < out[j].Relation })
	return out
}
