package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// Operation budgets. Each workload issues a fixed number of operations,
// derived from the run's seconds at these nominal rates, rather than
// running for a fixed time: the log at the crash point is then the same
// on every commit, so a faster program does not lengthen its own
// recover_s. The rates are set so that the measured phase lasts about
// its seconds on a 2-core x86 box with the default -index ibs.
const (
	probeRate  = 6000 // match requests per connection per second of budget
	ingestRate = 5000 // mutations per connection per second of budget
	churnRate  = 40   // addpred/rmpred pairs per second of budget
	conns      = 2    // loopback connections in every workload
)

var workloads = []string{"probe", "ingest", "churn"}

// Seed streams: every random input is drawn from its own stream of the
// workload seed, so adding draws to one never shifts another.
const (
	streamPopulation = 1
	streamDurability = 2
	streamLadder     = 3
	streamChurn      = 10  // + part
	streamConn       = 100 // + 10*part + connection
)

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// phase is the outcome of one measured phase.
type phase struct {
	wall      time.Duration
	attempted int64
	failed    int64
	// lat holds round-trip samples by operation class: match, mutate,
	// predwrite.
	lat    map[string][]time.Duration
	errors []string // the first few failures, for the report
	// Ingest bookkeeping: expected rows after the phase, and the
	// notification identity.
	rows                         map[string]int
	rounds                       []round
	generated, received, dropped uint64
	firings                      int64
	mutations, predwrites        int64
}

func newPhase() *phase { return &phase{lat: make(map[string][]time.Duration)} }

// add folds another part's phase, or one connection's share of this
// one, into p.
func (p *phase) add(q *phase) {
	p.wall += q.wall
	p.attempted += q.attempted
	p.failed += q.failed
	for k, v := range q.lat {
		p.lat[k] = append(p.lat[k], v...)
	}
	for _, e := range q.errors {
		if len(p.errors) < 10 {
			p.errors = append(p.errors, e)
		}
	}
	p.rounds = append(p.rounds, q.rounds...)
	p.generated += q.generated
	p.received += q.received
	p.dropped += q.dropped
	p.firings += q.firings
	p.mutations += q.mutations
	p.predwrites += q.predwrites
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errors) < 10 {
		p.errors = append(p.errors, fmt.Sprintf(format, args...))
	}
}

// opsPerSec is completed requests across both connections over the
// phase's wall time.
func (p *phase) opsPerSec() float64 {
	return float64(p.attempted-p.failed) / p.wall.Seconds()
}

var (
	empRel = schema.MustRelation("emp",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "age", Type: value.KindInt},
		schema.Attribute{Name: "salary", Type: value.KindInt},
		schema.Attribute{Name: "dept", Type: value.KindString},
	)
	auditRel = schema.MustRelation("audit",
		schema.Attribute{Name: "note", Type: value.KindString},
		schema.Attribute{Name: "level", Type: value.KindInt},
	)
)

// setup starts d and loads the population: both relations, the storage
// index on emp.salary, the five rules and every standing predicate,
// each acked before the next is sent. It returns exec-to-last-ack time.
func setup(d *daemon, pop *population) (time.Duration, error) {
	t0 := time.Now()
	if err := d.start(); err != nil {
		return 0, err
	}
	if err := d.waitReady(2 * time.Minute); err != nil {
		return 0, err
	}
	c, err := client.Dial(d.addr, client.WithTimeout(time.Minute))
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for _, rel := range []*schema.Relation{empRel, auditRel} {
		if err := c.DeclareRelation(rel); err != nil {
			return 0, fmt.Errorf("declare %s: %w", rel.Name(), err)
		}
	}
	if err := c.CreateIndex("emp", "salary"); err != nil {
		return 0, fmt.Errorf("index: %w", err)
	}
	for _, src := range ruleSources {
		if _, err := c.DefineRule(src); err != nil {
			return 0, fmt.Errorf("rule: %w", err)
		}
	}
	for i, lo := range pop.los {
		id, err := c.AddPredicate(salaryPred(lo))
		if err != nil {
			return 0, fmt.Errorf("predicate %d: %w", i, err)
		}
		if id != directID(i) {
			return 0, fmt.Errorf("predicate %d got id %d, want %d", i, id, directID(i))
		}
	}
	return time.Since(t0), nil
}

// dialAll opens the workload's connections.
func dialAll(addr string) ([]*client.Client, error) {
	var cs []*client.Client
	for i := 0; i < conns; i++ {
		c, err := client.Dial(addr, client.WithTimeout(time.Minute), client.WithNotifyBuffer(1<<16))
		if err != nil {
			for _, o := range cs {
				o.Close()
			}
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// budget is one measured phase's share of a run: part of parts, each
// drawing its inputs from its own seed streams. shared means the daemon
// also served the earlier parts, so its predicate IDs continue theirs.
type budget struct {
	seed        int64
	seconds     int
	part, parts int
	shared      bool
}

// rounds splits each part's phase into back-to-back rounds on the same
// connections. The latency and throughput metrics are medians over all
// rounds of a run, so a burst of noise shorter than a round moves one
// round, not the result.
const rounds = 5

// perRound returns one round's share of rate×seconds operations.
func (b budget) perRound(rate int) int {
	n := b.parts * rounds
	return (rate*b.seconds + n - 1) / n
}

// connRngs returns each connection's input stream for this part.
func (b budget) connRngs() []*rand.Rand {
	out := make([]*rand.Rand, conns)
	for i := range out {
		out[i] = rngFor(b.seed, streamConn+10*b.part+i)
	}
	return out
}

// runPhase runs one part of the named workload's measured phase
// against d.
func runPhase(name string, d *daemon, pop *population, b budget) (*phase, error) {
	cs, err := dialAll(d.addr)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range cs {
			c.Close()
		}
	}()
	p := newPhase()
	p.rows = map[string]int{"emp": 0, "audit": 0}
	switch name {
	case "probe":
		runProbe(p, cs, pop, b)
	case "ingest":
		err = runIngest(p, cs, b)
	case "churn":
		runChurn(p, cs, pop, b)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if cerr := c.Err(); cerr != nil {
			p.fail("connection: %v", cerr)
		}
	}
	return p, nil
}

// round is one round's summary of the workload's own operation.
type round struct {
	P50       float64 // µs
	OpsPerSec float64 // every completed request of the round
	StealPct  float64 // CPU the hypervisor gave to other guests meanwhile
}

// parallel runs one round: fn once per connection, each on its own
// share of p, then records the round's summary for operation class op.
func parallel(p *phase, cs []*client.Client, op string, fn func(i int, c *client.Client, ct *phase)) {
	cts := make([]*phase, len(cs))
	var wg sync.WaitGroup
	sc := startSteal()
	t0 := time.Now()
	for i, c := range cs {
		cts[i] = newPhase()
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			fn(i, c, cts[i])
		}(i, c)
	}
	wg.Wait()
	r := newPhase()
	r.wall = time.Since(t0)
	for _, ct := range cts {
		r.add(ct)
	}
	t := summarize(append([]time.Duration(nil), r.lat[op]...))
	r.rounds = []round{{P50: t.P50, OpsPerSec: r.opsPerSec(), StealPct: sc.pct()}}
	p.add(r)
}

// matchOnce probes e and returns the answer, charging the round trip.
func matchOnce(c *client.Client, ct *phase, e emp) ([]pred.ID, bool) {
	ct.attempted++
	t0 := time.Now()
	ids, err := c.Match("emp", e.tuple())
	ct.lat["match"] = append(ct.lat["match"], time.Since(t0))
	if err != nil {
		ct.fail("match: %v", err)
		return nil, false
	}
	return ids, true
}

// runProbe: both connections send seeded random match probes, and
// every answer must equal the oracle's set.
func runProbe(p *phase, cs []*client.Client, pop *population, b budget) {
	n := b.perRound(probeRate)
	rngs := b.connRngs()
	for r := 0; r < rounds; r++ {
		parallel(p, cs, "match", func(i int, c *client.Client, ct *phase) {
			for k := 0; k < n; k++ {
				e := randomEmp(rngs[i])
				ids, ok := matchOnce(c, ct, e)
				if ok && !sameIDs(ids, pop.expected(e)) {
					ct.fail("probe %+v: got %v want %v", e, ids, pop.expected(e))
				}
			}
		})
	}
}

// liveRow is a row a connection inserted and has not deleted.
type liveRow struct {
	id tuple.ID
	e  emp
}

// ingestConn is one connection's ingest state across rounds.
type ingestConn struct {
	rng               *rand.Rand
	live              []liveRow
	fired, paid, rows int64
}

// mutate issues one seeded insert (60%), update (20%) or delete (20%)
// of the connection's own rows and checks the ack's firing count.
func (s *ingestConn) mutate(c *client.Client, ct *phase) {
	r := s.rng.Intn(100)
	ct.attempted++
	var err error
	var got, want int
	t0 := time.Now()
	switch {
	case r < 60 || len(s.live) == 0:
		e := randomEmp(s.rng)
		var id tuple.ID
		id, got, err = c.Insert("emp", e.tuple())
		if err == nil {
			s.live = append(s.live, liveRow{id, e})
			want = insertFirings(e)
			s.rows++
			if e.Salary > 90000 {
				s.paid++
			}
		}
	case r < 80:
		j := s.rng.Intn(len(s.live))
		e := randomEmp(s.rng)
		got, err = c.Update("emp", s.live[j].id, e.tuple())
		if err == nil {
			want = updateFirings(e)
			s.live[j].e = e
		}
	default:
		j := s.rng.Intn(len(s.live))
		got, err = c.Delete("emp", s.live[j].id)
		if err == nil {
			want = deleteFirings(s.live[j].e)
			s.live[j] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
			s.rows--
		}
	}
	ct.lat["mutate"] = append(ct.lat["mutate"], time.Since(t0))
	if err != nil {
		ct.fail("mutation: %v", err)
		return
	}
	if got != want {
		ct.fail("mutation: %d firings, want %d", got, want)
	}
	s.fired += int64(want)
}

// runIngest: both connections send the insert/update/delete mix on
// emp; every ack's firing count must match the rules, and the first
// connection's subscription must account for every firing.
func runIngest(p *phase, cs []*client.Client, b budget) error {
	notes, err := cs[0].Subscribe(false)
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	var received atomic.Uint64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range notes {
			received.Add(1)
		}
	}()
	// Closing the connection closes notes, which ends the drain.
	defer func() {
		cs[0].Close()
		<-drained
	}()

	n := b.perRound(ingestRate)
	states := make([]*ingestConn, len(cs))
	for i, rng := range b.connRngs() {
		states[i] = &ingestConn{rng: rng}
	}
	for r := 0; r < rounds; r++ {
		parallel(p, cs, "mutate", func(i int, c *client.Client, ct *phase) {
			for k := 0; k < n; k++ {
				states[i].mutate(c, ct)
			}
		})
	}
	for _, s := range states {
		p.firings += s.fired
		p.rows["emp"] += int(s.rows)
		p.rows["audit"] += int(s.paid)
	}
	p.mutations = int64(n * rounds * len(cs))

	gen, dropped, err := cs[0].Unsubscribe()
	if err != nil {
		return fmt.Errorf("unsubscribe: %w", err)
	}
	// Notifications already queued may trail the unsubscribe ack; give
	// them a bounded moment to arrive.
	deadline := time.Now().Add(10 * time.Second)
	for received.Load()+dropped < gen && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.generated, p.dropped, p.received = gen, dropped, received.Load()
	p.attempted++ // the notification identity counts as one check
	if p.received+p.dropped != p.generated {
		p.fail("notifications: received %d + dropped %d != generated %d", p.received, p.dropped, p.generated)
	}
	if int64(p.generated) != p.firings {
		p.fail("notifications: generated %d, rules predict %d firings", p.generated, p.firings)
	}
	return nil
}

// runChurn: the first connection sends addpred/rmpred pairs of
// salary-band predicates; the second sends match probes until the
// writer is done with the round. Standing predicates must match the
// oracle exactly; any extra ID must be a churn predicate covering the
// probe.
func runChurn(p *phase, cs []*client.Client, pop *population, b budget) {
	n := b.perRound(churnRate)
	pairs := n * rounds
	first := directID(numPreds)
	if b.shared {
		first += pred.ID(b.part * pairs)
	}
	crng := rngFor(b.seed, streamChurn+b.part)
	los := make([]int64, pairs)
	for k := range los {
		los[k] = loMin + crng.Int63n(loSpan)
	}
	rng := b.connRngs()[1]
	for r := 0; r < rounds; r++ {
		var writerDone atomic.Bool
		parallel(p, cs, "predwrite", func(i int, c *client.Client, ct *phase) {
			if i == 0 {
				defer writerDone.Store(true)
				for k := r * n; k < (r+1)*n; k++ {
					churnPair(c, ct, los[k], first+pred.ID(k))
				}
				return
			}
			for !writerDone.Load() {
				e := randomEmp(rng)
				ids, ok := matchOnce(c, ct, e)
				if !ok {
					continue
				}
				if err := checkChurnAnswer(ids, pop.expected(e), los, first, e); err != nil {
					ct.fail("churn probe %+v: %v", e, err)
				}
			}
		})
	}
	p.predwrites = int64(2 * pairs)
}

// churnPair adds the salary-band predicate [lo, lo+predWidth], which
// must get ID want, and removes it again.
func churnPair(c *client.Client, ct *phase, lo int64, want pred.ID) {
	ct.attempted++
	t0 := time.Now()
	id, err := c.AddPredicate(salaryPred(lo))
	ct.lat["predwrite"] = append(ct.lat["predwrite"], time.Since(t0))
	if err != nil {
		ct.fail("addpred: %v", err)
		return
	}
	if id != want {
		ct.fail("addpred got id %d, want %d", id, want)
	}
	ct.attempted++
	t0 = time.Now()
	err = c.RemovePredicate(id)
	ct.lat["predwrite"] = append(ct.lat["predwrite"], time.Since(t0))
	if err != nil {
		ct.fail("rmpred: %v", err)
	}
}

// durable is the state the crash-restart check compares.
type durable struct {
	preds   int
	rows    map[string]int
	answers [][]pred.ID
}

// capture reads the daemon's predicate count, relation row counts and
// the answers to a fixed probe set.
func capture(addr string, probes []emp) (*durable, error) {
	c, err := client.Dial(addr, client.WithTimeout(time.Minute))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return nil, err
	}
	s := &durable{preds: st.Predicates, rows: make(map[string]int)}
	for _, r := range st.Relations {
		s.rows[r.Name] = r.Rows
	}
	for _, e := range probes {
		ids, err := c.Match("emp", e.tuple())
		if err != nil {
			return nil, err
		}
		s.answers = append(s.answers, ids)
	}
	return s, nil
}

// verifyState checks a captured state against the oracle: the
// standing predicates plus the rules' predicates, the rows the phase
// left, and the oracle's answer to every fixed probe. It returns the
// checks made and the violations found.
func verifyState(s *durable, pop *population, probes []emp, rows map[string]int) (checks int64, bad []error) {
	checks++
	if want := numPreds + len(ruleSources); s.preds != want {
		bad = append(bad, fmt.Errorf("%d predicates, want %d", s.preds, want))
	}
	for rel, want := range rows {
		checks++
		if s.rows[rel] != want {
			bad = append(bad, fmt.Errorf("relation %s has %d rows, want %d", rel, s.rows[rel], want))
		}
	}
	for i, e := range probes {
		checks++
		ids := append([]pred.ID(nil), s.answers[i]...)
		if !sameIDs(ids, pop.expected(e)) {
			bad = append(bad, fmt.Errorf("probe %+v: got %v want %v", e, ids, pop.expected(e)))
		}
	}
	return checks, bad
}
