package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/core"
	"predmatch/internal/engine"
	"predmatch/internal/hint"
	"predmatch/internal/ibs"
	"predmatch/internal/interval"
	"predmatch/internal/obs"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/server"
	"predmatch/internal/shard"
	"predmatch/internal/storage"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wal"
	"predmatch/internal/wire"
)

// Ladder sizes: how many calls each rung times.
const (
	ladderProbes = 2048 // distinct probe tuples per read rung round
	readRounds   = 7    // rounds over the probe set; the median round counts
	cloneCalls   = 15   // core.Index.Clone and shard Add/Remove calls
	walRecords   = 200  // WAL Append+Commit pairs
	engineOps    = 6000 // ingest-mix mutations through storage + engine
	rttMatches   = 2000 // unloaded round trips per request kind
	rttMutations = 400
	rttAddPreds  = 40
)

// span is one timed call into a layer, as the ladder recorded it.
// Parent is the enclosing span in time (a ladder section); Within names
// the rung whose calls include this layer's work (e.g. core.match is
// within shard.match), which is what the self-time table subtracts.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Within  string `json:"within,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   int    `json:"calls"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0   time.Time
	list []span
}

func (l *spanLog) begin(name, within string, parent int) int {
	l.list = append(l.list, span{ID: len(l.list) + 1, Parent: parent, Name: name, Within: within,
		StartNS: time.Since(l.t0).Nanoseconds()})
	return len(l.list)
}

func (l *spanLog) end(id, calls int) {
	l.list[id-1].EndNS = time.Since(l.t0).Nanoseconds()
	l.list[id-1].Calls = calls
}

// rung times fn over calls calls, rounds times, recording one span per
// round, and returns the median per-call time in ns.
func (l *spanLog) rung(name, within string, parent, rounds, calls int, fn func(k int)) float64 {
	per := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		id := l.begin(name, within, parent)
		t0 := time.Now()
		for k := 0; k < calls; k++ {
			fn(k)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
		l.end(id, calls)
	}
	return median(per)
}

// each times every call of fn separately, recording one span per call,
// and returns the median call time in ns.
func (l *spanLog) each(name, within string, parent, calls int, fn func(k int) error) (float64, error) {
	per := make([]float64, 0, calls)
	for k := 0; k < calls; k++ {
		id := l.begin(name, within, parent)
		t0 := time.Now()
		if err := fn(k); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds()))
		l.end(id, 1)
	}
	return median(per), nil
}

// selfRow is one line of the self-time table: a rung's per-call time,
// the part its lower rungs account for, and the rest, its self time.
type selfRow struct {
	Layer      string  `json:"layer"`
	Within     string  `json:"within,omitempty"`
	TotalUS    float64 `json:"total_us"`
	ChildrenUS float64 `json:"children_us"`
	SelfUS     float64 `json:"self_us"`
}

// ladderTree lists, per rung, the rungs its calls contain. A rung's
// self time is its time minus theirs.
var ladderTree = []struct {
	layer    string
	children []string
}{
	{"server.match_rtt", []string{"shard.match", "wire.codec"}},
	{"shard.match", []string{"core.match"}},
	{"core.match", []string{"ibs.stab"}},
	{"ibs.stab", nil},
	{"wire.codec", nil},
	{"server.addpred_rtt", []string{"shard.add", "wal.append", "wal.commit"}},
	{"shard.add", []string{"core.clone"}},
	{"core.clone", nil},
	{"server.mutate_rtt", []string{"engine.mutate", "wal.append", "wal.commit"}},
	{"engine.mutate", nil},
	{"wal.append", nil},
	{"wal.commit", nil},
	{"server.open", []string{"wal.replay"}},
	{"wal.replay", nil},
}

// selfTimes builds the self-time table from per-call times in µs.
func selfTimes(us map[string]float64) []selfRow {
	within := make(map[string]string)
	for _, n := range ladderTree {
		for _, c := range n.children {
			if within[c] != "" {
				within[c] += ","
			}
			within[c] += n.layer
		}
	}
	rows := make([]selfRow, 0, len(ladderTree))
	for _, n := range ladderTree {
		r := selfRow{Layer: n.layer, Within: within[n.layer], TotalUS: us[n.layer]}
		for _, c := range n.children {
			r.ChildrenUS += us[c]
		}
		r.SelfUS = r.TotalUS - r.ChildrenUS
		rows = append(rows, r)
	}
	return rows
}

func printSelfTime(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "  self-time table (per call, us):\n")
	fmt.Fprintf(w, "    %-20s %12s %12s %12s  %s\n", "layer", "total", "children", "self", "within")
	for _, r := range rows {
		fmt.Fprintf(w, "    %-20s %12.3f %12.3f %12.3f  %s\n", r.Layer, r.TotalUS, r.ChildrenUS, r.SelfUS, r.Within)
	}
}

// perLayer is the traced run. An untraced daemon (the overhead
// baseline) and a traced one (-admin and head sampling on) run the same
// phase parts alternately, so a slow stretch of the machine lands on
// both alike; the traced daemon's counters are scraped around them.
// Then come unloaded round trips on the untraced daemon, the in-process
// ladder, and recovery of the traced daemon's crashed data dir.
func perLayer(o options, work string, pop *population, res *result) error {
	sl := &spanLog{t0: time.Now()}
	m := res.Metrics
	us := make(map[string]float64) // per-call µs by rung, for the self-time table

	du, err := newDaemon(o.daemon, filepath.Join(work, "untraced"), false)
	if err != nil {
		return err
	}
	defer du.kill()
	dt, err := newDaemon(o.daemon, filepath.Join(work, "traced"), true)
	if err != nil {
		return err
	}
	defer dt.kill()
	for _, d := range []*daemon{du, dt} {
		if _, err := setup(d, pop); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	before, err := fetchMetrics(dt.admin)
	if err != nil {
		return err
	}
	pu := newPhase()
	pt := newPhase()
	for part := 0; part < parts; part++ {
		b := budget{seed: o.seed, seconds: o.seconds, part: part, parts: parts, shared: true}
		for _, run := range []struct {
			d   *daemon
			sum *phase
		}{{du, pu}, {dt, pt}} {
			p, err := runPhase(o.workload, run.d, pop, b)
			if err != nil {
				return err
			}
			run.sum.add(p)
		}
	}
	after, err := fetchMetrics(dt.admin)
	if err != nil {
		return err
	}
	res.addPhase(pt)
	res.Attempted += pu.attempted
	res.Failed += pu.failed
	res.Errors = append(res.Errors, pu.errors...)
	res.Build.BuildInfo = after.labels["predmatch_build_info"]
	res.Overhead = &overhead{UntracedOpsPerSec: pu.opsPerSec(), TracedOpsPerSec: pt.opsPerSec()}
	r := phaseRatios(before, after)
	m["wal.records_per_fsync"] = metric{r.RecordsPerFsync, "count"}
	m["wal.bytes_per_record"] = metric{r.BytesPerRecord, "B"}
	m["ibs.nodes_per_stab"] = metric{r.NodesPerStab, "count"}
	m["shard.swaps_per_predwrite"] = metric{ratio(r.Swaps, float64(pt.predwrites)), "count"}
	m["engine.events_per_mutation"] = metric{ratio(r.Events, float64(pt.mutations)), "count"}
	m["server.notify_drop_ratio"] = metric{ratio(float64(pt.dropped), float64(pt.generated)), "ratio"}
	m["trace.ops_ratio"] = metric{ratio(pt.opsPerSec(), pu.opsPerSec()), "ratio"}

	sec := sl.begin("ladder.server", "", 0)
	if err := serverRungs(sl, sec, du.addr, o.seed, us); err != nil {
		return err
	}
	sl.end(sec, 0)
	du.kill()
	dt.kill() // the crash whose data dir the recovery rungs replay

	if err := inProcessRungs(sl, work, pop, o.seed, res, us); err != nil {
		return err
	}
	sec = sl.begin("ladder.recovery", "", 0)
	if err := recoveryRungs(sl, sec, work, dt.dir, us, m); err != nil {
		return err
	}
	sl.end(sec, 0)

	m["server.match_rtt_us"] = metric{us["server.match_rtt"], "us"}
	m["server.mutate_rtt_us"] = metric{us["server.mutate_rtt"], "us"}
	m["server.addpred_rtt_us"] = metric{us["server.addpred_rtt"], "us"}
	res.SelfTime = selfTimes(us)
	for _, row := range res.SelfTime {
		if row.Layer == "server.match_rtt" {
			m["server.match_rest_us"] = metric{row.SelfUS, "us"}
		}
	}
	res.Spans = sl.list
	return nil
}

// ladderProbeSet draws the read rungs' probe tuples.
func ladderProbeSet(seed int64) []emp {
	rng := rngFor(seed, streamLadder)
	out := make([]emp, ladderProbes)
	for i := range out {
		out[i] = randomEmp(rng)
	}
	return out
}

// serverRungs times unloaded one-connection round trips.
func serverRungs(sl *spanLog, parent int, addr string, seed int64, us map[string]float64) error {
	c, err := client.Dial(addr, client.WithTimeout(time.Minute))
	if err != nil {
		return err
	}
	defer c.Close()
	probes := ladderProbeSet(seed)
	ns, err := sl.each("server.match_rtt", "", parent, rttMatches, func(k int) error {
		_, err := c.Match("emp", probes[k%len(probes)].tuple())
		return err
	})
	if err != nil {
		return err
	}
	us["server.match_rtt"] = ns / 1e3
	ns, err = sl.each("server.mutate_rtt", "", parent, rttMutations, func(k int) error {
		_, _, err := c.Insert("emp", probes[k%len(probes)].tuple())
		return err
	})
	if err != nil {
		return err
	}
	us["server.mutate_rtt"] = ns / 1e3
	rng := rngFor(seed, streamChurn)
	var added []pred.ID
	ns, err = sl.each("server.addpred_rtt", "", parent, rttAddPreds, func(int) error {
		id, err := c.AddPredicate(salaryPred(loMin + rng.Int63n(loSpan)))
		added = append(added, id)
		return err
	})
	if err != nil {
		return err
	}
	us["server.addpred_rtt"] = ns / 1e3
	for _, id := range added {
		if err := c.RemovePredicate(id); err != nil {
			return err
		}
	}
	return nil
}

// stack is the in-process storage + engine + shard matcher, wired the
// way the daemon wires them.
type stack struct {
	db  *storage.DB
	sm  *shard.ShardedMatcher
	eng *engine.Engine
}

func newStack(pop *population) (*stack, error) {
	reg := obs.NewRegistry()
	db := storage.NewDB()
	funcs := pred.NewRegistry()
	for _, rel := range []*schema.Relation{empRel, auditRel} {
		if _, err := db.CreateRelation(rel); err != nil {
			return nil, err
		}
	}
	emp, _ := db.Table("emp")
	if err := emp.CreateIndex("salary"); err != nil {
		return nil, err
	}
	sm := shard.New(db.Catalog(), funcs, shard.WithMetrics(reg),
		shard.WithIndexOptions(core.WithTreeOptions(ibs.Instrument(ibs.RegisterCounters(reg)))))
	eng := engine.New(db, funcs, sm, engine.WithMetrics(reg))
	for _, src := range ruleSources {
		if _, err := eng.DefineRule(src); err != nil {
			return nil, err
		}
	}
	for i, lo := range pop.los {
		p := salaryPred(lo)
		p.ID = directID(i)
		if err := sm.Add(p); err != nil {
			return nil, err
		}
	}
	return &stack{db: db, sm: sm, eng: eng}, nil
}

// inProcessRungs times each layer's public functions on the population
// and the ladder's probe set.
func inProcessRungs(sl *spanLog, work string, pop *population, seed int64, res *result, us map[string]float64) error {
	m := res.Metrics
	probes := ladderProbeSet(seed)
	tuples := make([]tuple.Tuple, len(probes))
	salaries := make([]value.Value, len(probes))
	answers := make([][]pred.ID, len(probes))
	for i, e := range probes {
		tuples[i], salaries[i], answers[i] = e.tuple(), value.Int(e.Salary), pop.expected(e)
	}

	// Interval indexes alone, holding the standing salary intervals; the
	// IBS-tree is instrumented as the daemon's are.
	sec := sl.begin("ladder.read", "", 0)
	tree := ibs.New(value.Compare, ibs.Instrument(ibs.RegisterCounters(obs.NewRegistry())))
	hx := hint.New[value.Value](value.Compare)
	for i, lo := range pop.los {
		iv := interval.Closed(value.Int(lo), value.Int(lo+predWidth))
		if err := tree.Insert(ibs.ID(directID(i)), iv); err != nil {
			return err
		}
		if err := hx.Insert(hint.ID(directID(i)), iv); err != nil {
			return err
		}
	}
	var dst []ibs.ID
	var results int
	ns := sl.rung("ibs.stab", "core.match", sec, readRounds, len(probes), func(k int) {
		dst = tree.StabAppend(salaries[k], dst[:0])
		results += len(dst)
	})
	m["ibs.stab_ns"] = metric{ns, "ns"}
	m["ibs.results_per_stab"] = metric{float64(results) / float64(readRounds*len(probes)), "count"}
	us["ibs.stab"] = ns / 1e3
	ns = sl.rung("hint.stab", "", sec, readRounds, len(probes), func(k int) {
		dst = hx.StabAppend(salaries[k], dst[:0])
	})
	m["hint.stab_ns"] = metric{ns, "ns"}

	load := sl.begin("ladder.load", "", sec)
	st, err := newStack(pop)
	if err != nil {
		return err
	}
	sl.end(load, len(pop.los))
	// One untimed pass counts candidates and checks the index's answers
	// against the oracle.
	snap := st.sm.Snapshot("emp")
	var ids []pred.ID
	var cands, matches int
	var bad []error
	for k := range tuples {
		cands += snap.Candidates("emp", tuples[k])
		ids, _ = snap.MatchSnapshot("emp", tuples[k], ids[:0])
		matches += len(ids)
		if !sameIDs(ids, answers[k]) {
			bad = append(bad, fmt.Errorf("core.match %+v: got %v want %v", probes[k], ids, answers[k]))
		}
	}
	res.check(int64(len(tuples)), bad)
	m["core.candidates_per_match"] = metric{float64(cands) / float64(len(tuples)), "count"}
	m["core.useful_ratio"] = metric{ratio(float64(matches), float64(cands)), "ratio"}
	ns = sl.rung("core.match", "shard.match", sec, readRounds, len(tuples), func(k int) {
		ids, _ = snap.MatchSnapshot("emp", tuples[k], ids[:0])
	})
	m["core.match_ns"] = metric{ns, "ns"}
	us["core.match"] = ns / 1e3
	pf0, _ := st.sm.PrefilterStats()
	ns = sl.rung("shard.match", "server.match_rtt", sec, readRounds, len(tuples), func(k int) {
		ids, _ = st.sm.Match("emp", tuples[k], ids[:0])
	})
	pf1, _ := st.sm.PrefilterStats()
	m["shard.match_ns"] = metric{ns, "ns"}
	us["shard.match"] = ns / 1e3
	adm, skip := float64(pf1.Admitted-pf0.Admitted), float64(pf1.Skipped-pf0.Skipped)
	m["prefilter.admit_ratio"] = metric{ratio(adm, adm+skip), "ratio"}

	cd := newCodec()
	var codecErr error
	codec := func(k int) {
		if err := cd.roundTrip(tuples[k], answers[k]); err != nil && codecErr == nil {
			codecErr = err
		}
	}
	ns = sl.rung("wire.codec", "server.match_rtt", sec, readRounds, len(tuples), codec)
	if codecErr != nil {
		return fmt.Errorf("wire codec: %w", codecErr)
	}
	k := 0
	allocs := testing.AllocsPerRun(len(tuples), func() { codec(k % len(tuples)); k++ })
	m["wire.codec_ns"] = metric{ns, "ns"}
	m["wire.codec_allocs"] = metric{allocs, "count"}
	us["wire.codec"] = ns / 1e3
	sl.end(sec, 0)

	// Write path.
	sec = sl.begin("ladder.write", "", 0)
	// Clone, Add and Remove calls alternate, so a slow stretch of the
	// machine lands on all three alike.
	rng := rngFor(seed, streamChurn)
	var cloneNS, addNS, rmNS []float64
	timed := func(name, within string, fn func() error) (float64, error) {
		id := sl.begin(name, within, sec)
		t0 := time.Now()
		err := fn()
		d := float64(time.Since(t0).Nanoseconds())
		sl.end(id, 1)
		return d, err
	}
	for c := 0; c < cloneCalls; c++ {
		p := salaryPred(loMin + rng.Int63n(loSpan))
		p.ID = directID(numPreds + c)
		d, _ := timed("core.clone", "shard.add", func() error { _ = snap.Clone(); return nil })
		cloneNS = append(cloneNS, d)
		d, err := timed("shard.add", "server.addpred_rtt", func() error { return st.sm.Add(p) })
		if err != nil {
			return err
		}
		addNS = append(addNS, d)
		d, err = timed("shard.remove", "", func() error { return st.sm.Remove(p.ID) })
		if err != nil {
			return err
		}
		rmNS = append(rmNS, d)
	}
	m["core.clone_ns"] = metric{median(cloneNS), "ns"}
	m["shard.add_ns"] = metric{median(addNS), "ns"}
	m["shard.remove_ns"] = metric{median(rmNS), "ns"}
	us["core.clone"] = median(cloneNS) / 1e3
	us["shard.add"] = median(addNS) / 1e3

	if err := walRungs(sl, sec, filepath.Join(work, "wal"), probes, us, m); err != nil {
		return err
	}
	if err := engineRung(sl, sec, st, seed, us, m); err != nil {
		return err
	}
	sl.end(sec, 0)
	return nil
}

// codec is one match request and response through the wire codec, as
// the client and the server do it: encode the request, decode it with
// UseNumber, rebuild the tuple, encode the response, decode it.
type codec struct {
	reqBuf, respBuf bytes.Buffer
	reqEnc, respEnc *json.Encoder
}

func newCodec() *codec {
	c := &codec{}
	c.reqEnc = json.NewEncoder(&c.reqBuf)
	c.respEnc = json.NewEncoder(&c.respBuf)
	return c
}

func (c *codec) roundTrip(t tuple.Tuple, ids []pred.ID) error {
	c.reqBuf.Reset()
	if err := c.reqEnc.Encode(&wire.Request{ID: 1, Op: wire.OpMatch, Relation: "emp", Tuple: wire.FromTuple(t)}); err != nil {
		return err
	}
	var req wire.Request
	dec := json.NewDecoder(bytes.NewReader(bytes.TrimSpace(c.reqBuf.Bytes())))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return err
	}
	if _, err := wire.ToTuple(empRel, req.Tuple); err != nil {
		return err
	}
	c.respBuf.Reset()
	if err := c.respEnc.Encode(wire.Message{Type: wire.TypeResponse, ID: req.ID, OK: true, Matches: wire.FromIDs(ids)}); err != nil {
		return err
	}
	var msg wire.Message
	dec = json.NewDecoder(bytes.NewReader(bytes.TrimSpace(c.respBuf.Bytes())))
	dec.UseNumber()
	if err := dec.Decode(&msg); err != nil {
		return err
	}
	if got := wire.ToIDs(msg.Matches); len(got) != len(ids) {
		return fmt.Errorf("decoded %d ids, sent %d", len(got), len(ids))
	}
	return nil
}

// walRungs times Append and Commit of mutation-shaped records on a
// fresh log under fsync always.
func walRungs(sl *spanLog, parent int, dir string, probes []emp, us map[string]float64, m map[string]metric) error {
	l, _, err := wal.Recover(wal.Options{Dir: dir, Sync: wal.SyncAlways}, wal.Handler{})
	if err != nil {
		return err
	}
	var appendNS, commitNS []float64
	for k := 0; k < walRecords; k++ {
		e := probes[k%len(probes)]
		rec := &wal.Record{Kind: wal.KindMutate, Events: []wal.Event{
			{Rel: "emp", Op: "insert", ID: int64(k + 1), Tuple: wire.FromTuple(e.tuple())},
		}}
		id := sl.begin("wal.append", "server.mutate_rtt", parent)
		t0 := time.Now()
		seq, err := l.Append(rec)
		if err != nil {
			l.Close()
			return err
		}
		appendNS = append(appendNS, float64(time.Since(t0).Nanoseconds()))
		sl.end(id, 1)
		id = sl.begin("wal.commit", "server.mutate_rtt", parent)
		t0 = time.Now()
		if err := l.Commit(seq); err != nil {
			l.Close()
			return err
		}
		commitNS = append(commitNS, float64(time.Since(t0).Nanoseconds()))
		sl.end(id, 1)
	}
	if err := l.Close(); err != nil {
		return err
	}
	m["wal.append_ns"] = metric{median(appendNS), "ns"}
	m["wal.commit_ns"] = metric{median(commitNS), "ns"}
	us["wal.append"] = median(appendNS) / 1e3
	us["wal.commit"] = median(commitNS) / 1e3
	return os.RemoveAll(dir)
}

// engineRung applies the ingest mix through storage tables, with the
// engine matching every event against the rules and the population.
func engineRung(sl *spanLog, parent int, st *stack, seed int64, us map[string]float64, m map[string]metric) error {
	var fired int
	st.eng.OnFire(func(engine.FiringEvent) { fired++ })
	tab, _ := st.db.Table("emp")
	rng := rand.New(rand.NewSource(seed))
	var live []tuple.ID
	ns, err := sl.each("engine.mutate", "server.mutate_rtt", parent, engineOps, func(int) error {
		switch r := rng.Intn(100); {
		case r < 60 || len(live) == 0:
			id, err := tab.Insert(randomEmp(rng).tuple())
			live = append(live, id)
			return err
		case r < 80:
			return tab.Update(live[rng.Intn(len(live))], randomEmp(rng).tuple())
		default:
			j := rng.Intn(len(live))
			id := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			return tab.Delete(id)
		}
	})
	if err != nil {
		return err
	}
	m["engine.mutate_ns"] = metric{ns, "ns"}
	m["engine.firings_per_mutation"] = metric{float64(fired) / engineOps, "count"}
	us["engine.mutate"] = ns / 1e3
	return nil
}

// recoveryRungs replays copies of a crashed data dir: the log alone
// (read, CRC, decode) and a full in-process server.Open.
func recoveryRungs(sl *spanLog, parent int, work, crashed string, us map[string]float64, m map[string]metric) error {
	replayDir, openDir := filepath.Join(work, "replay"), filepath.Join(work, "open")
	for _, dst := range []string{replayDir, openDir} {
		if err := copyDir(crashed, dst); err != nil {
			return err
		}
	}
	id := sl.begin("wal.replay", "server.open", parent)
	t0 := time.Now()
	var records int
	l, _, err := wal.Recover(wal.Options{Dir: replayDir}, wal.Handler{
		LoadSnapshot: func(*wal.Snapshot) error { return nil },
		Apply:        func(*wal.Record) error { records++; return nil },
	})
	if err != nil {
		return err
	}
	replay := time.Since(t0)
	sl.end(id, records)
	if err := l.Close(); err != nil {
		return err
	}
	id = sl.begin("server.open", "", parent)
	t0 = time.Now()
	srv, err := server.Open(server.Config{Addr: "127.0.0.1:0", DataDir: openDir, Sync: wal.SyncAlways, Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	open := time.Since(t0)
	sl.end(id, 1)
	if err := srv.Close(); err != nil {
		return err
	}
	m["wal.replay_s"] = metric{replay.Seconds(), "s"}
	m["server.open_s"] = metric{open.Seconds(), "s"}
	us["wal.replay"] = float64(replay.Nanoseconds()) / 1e3
	us["server.open"] = float64(open.Nanoseconds()) / 1e3
	return nil
}

// copyDir copies the regular files of a flat directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !de.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
