// Command perfbench is the repository benchmark: it runs a real
// predmatchd as a child process on a fresh data directory, loads it
// from two loopback connections with one of three workloads (probe,
// ingest, churn), checks every answer against an oracle, kills and
// restarts the daemon to time recovery and check durability, and
// prints the end-to-end metrics. With -trace 1 it instead reports the
// per-layer metrics: counter ratios scraped from a traced daemon run,
// and the ladder, which times each layer's public functions in-process
// on the same generated inputs.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload probe --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A full result, with the
// machine, the build, every sample count and (traced) the span list,
// is written under perfbench/results. The exit code is non-zero when an
// oracle or durability check failed, or the benchmark could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// parts is how many times one run sets up a daemon, runs a share of
// the measured phase on it, crashes and restarts it. setup_s and
// recover_s are taken over the parts, the latency and throughput
// metrics over the parts' rounds, each as the calm median (calmMedian):
// a burst of noise on a shared machine that hits one part or round
// does not move the result.
const (
	parts       = 3
	fixedProbes = 64 // probes whose answers must survive the crash
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string
	work     string
	results  string
	source   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "run budget in seconds; sets the operation counts")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run and the ladder")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/predmatchd", "predmatchd binary")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for data dirs (removed afterwards)")
	flag.StringVar(&o.results, "results", "perfbench/results", "directory for full result and span files")
	flag.StringVar(&o.source, "source", "", "identity of the source tree the binaries were built from")
	flag.Parse()
	// perfbench shares the machine with the daemon it measures; collecting
	// its own garbage less often leaves more CPU to the daemon.
	debug.SetGCPercent(400)
	correct, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// metricSpec names one reported metric; the lists below are the names
// BENCHMARK.json declares, and a run must report exactly them.
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"}, {"recover_s", "s"}, {"op_p50_us", "us"},
	{"ops_per_s", "ops/s"}, {"rss_mb", "MB"},
}

var perLayerMetrics = []metricSpec{
	{"ibs.stab_ns", "ns"}, {"ibs.results_per_stab", "count"}, {"ibs.nodes_per_stab", "count"},
	{"hint.stab_ns", "ns"},
	{"core.match_ns", "ns"}, {"core.candidates_per_match", "count"}, {"core.useful_ratio", "ratio"},
	{"core.clone_ns", "ns"},
	{"shard.match_ns", "ns"}, {"shard.add_ns", "ns"}, {"shard.remove_ns", "ns"},
	{"shard.swaps_per_predwrite", "count"},
	{"prefilter.admit_ratio", "ratio"},
	{"wire.codec_ns", "ns"}, {"wire.codec_allocs", "count"},
	{"server.match_rtt_us", "us"}, {"server.match_rest_us", "us"}, {"server.mutate_rtt_us", "us"},
	{"server.addpred_rtt_us", "us"}, {"server.open_s", "s"}, {"server.notify_drop_ratio", "ratio"},
	{"wal.append_ns", "ns"}, {"wal.commit_ns", "ns"}, {"wal.replay_s", "s"},
	{"wal.records_per_fsync", "count"}, {"wal.bytes_per_record", "B"},
	{"engine.mutate_ns", "ns"}, {"engine.firings_per_mutation", "count"},
	{"engine.events_per_mutation", "count"},
	{"trace.ops_ratio", "ratio"},
}

// checkMetrics verifies a run reports exactly the declared metrics with
// their declared units.
func checkMetrics(got map[string]metric, want []metricSpec) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, declared %d", len(got), len(want))
	}
	for _, w := range want {
		if m, ok := got[w.name]; !ok || m.Unit != w.unit {
			return fmt.Errorf("metric %s: reported %+v, declared unit %s", w.name, m, w.unit)
		}
	}
	return nil
}

// summary is the contract line printed last.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run performs one run and prints its result; correct is false when an
// oracle or durability check failed.
func run(o options) (correct bool, err error) {
	valid := false
	for _, w := range workloads {
		valid = valid || w == o.workload
	}
	if !valid {
		return false, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return false, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return false, fmt.Errorf("daemon binary: %w", err)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)

	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Started: time.Now().UTC().Format(time.RFC3339),
		Machine: machineInfo(), Build: buildInfo(o.daemon, o.source),
		Metrics: make(map[string]metric),
	}
	pop := newPopulation(rngFor(o.seed, streamPopulation), numPreds)
	sc := startSteal()
	if o.trace == 0 {
		err = endToEnd(o, work, pop, res)
	} else {
		err = perLayer(o, work, pop, res)
	}
	if err != nil {
		return false, err
	}
	res.Machine.StealPct = sc.pct()
	want := endToEndMetrics
	if o.trace == 1 {
		want = perLayerMetrics
	}
	if err := checkMetrics(res.Metrics, want); err != nil {
		return false, err
	}
	res.report(os.Stdout)
	if err := res.save(o.results); err != nil {
		return false, err
	}
	line, err := json.Marshal(summary{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Failed == 0, nil
}

// fixedProbeSet is the probe set the crash-restart check compares.
func fixedProbeSet(seed int64) []emp {
	rng := rngFor(seed, streamDurability)
	out := make([]emp, fixedProbes)
	for i := range out {
		out[i] = randomEmp(rng)
	}
	return out
}

// endToEnd is the untraced run: parts × (set-up, a share of the
// measured phase, SIGKILL, restart and durability check).
func endToEnd(o options, work string, pop *population, res *result) error {
	probes := fixedProbeSet(o.seed)
	var c cycles
	total := newPhase()
	for part := 0; part < parts; part++ {
		d, err := newDaemon(o.daemon, filepath.Join(work, fmt.Sprintf("data%d", part)), false)
		if err != nil {
			return err
		}
		err = c.run(o, d, pop, budget{seed: o.seed, seconds: o.seconds, part: part, parts: parts}, probes, res, total)
		d.kill()
		if err != nil {
			return err
		}
		if err := os.RemoveAll(d.dir); err != nil {
			return err
		}
	}
	res.addPhase(total)
	res.DataDirMB = median(append([]float64(nil), c.samples["data_dir_mb"]...))
	for _, r := range total.rounds {
		c.note("op_p50_us", r.P50, r.StealPct)
		c.note("ops_per_s", r.OpsPerSec, r.StealPct)
	}
	res.Parts, res.PartSteal = c.samples, c.steals
	for _, k := range endToEndMetrics {
		res.Metrics[k.name] = metric{calmMedian(c.samples[k.name], c.steals[k.name]), k.unit}
	}
	return nil
}

// cycles collects each part's (or round's) value of every end-to-end
// metric, with the steal share while it was measured.
type cycles struct {
	samples, steals map[string][]float64
}

func (c *cycles) note(name string, v, steal float64) {
	if c.samples == nil {
		c.samples, c.steals = make(map[string][]float64), make(map[string][]float64)
	}
	c.samples[name] = append(c.samples[name], v)
	c.steals[name] = append(c.steals[name], steal)
}

// run is one part of an untraced run on daemon d: set-up, the part's
// share of the measured phase, SIGKILL, restart and durability check.
func (c *cycles) run(o options, d *daemon, pop *population, b budget, probes []emp, res *result, total *phase) error {
	sc := startSteal()
	took, err := setup(d, pop)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	c.note("setup_s", took.Seconds(), sc.pct())
	p, err := runPhase(o.workload, d, pop, b)
	if err != nil {
		return err
	}
	total.add(p)
	mb, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	c.note("rss_mb", mb, 0) // memory does not slow down under steal
	pre, err := capture(d.addr, probes)
	if err != nil {
		return fmt.Errorf("pre-crash capture: %w", err)
	}
	res.check(verifyState(pre, pop, probes, p.rows))
	d.kill()
	mb, err = dirSizeMB(d.dir)
	if err != nil {
		return err
	}
	c.note("data_dir_mb", mb, 0)

	sc = startSteal()
	t0 := time.Now()
	if err := d.start(); err != nil {
		return err
	}
	if err := d.waitReady(2 * time.Minute); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	c.note("recover_s", time.Since(t0).Seconds(), sc.pct())
	post, err := capture(d.addr, probes)
	if err != nil {
		return fmt.Errorf("post-restart capture: %w", err)
	}
	res.check(compareStates(pre, post))
	return nil
}

// compareStates is the durability check: every acked write survived
// the SIGKILL, so the restarted daemon's state equals the pre-crash one.
func compareStates(pre, post *durable) (checks int64, bad []error) {
	checks++
	if post.preds != pre.preds {
		bad = append(bad, fmt.Errorf("after restart: %d predicates, before %d", post.preds, pre.preds))
	}
	for rel, n := range pre.rows {
		checks++
		if post.rows[rel] != n {
			bad = append(bad, fmt.Errorf("after restart: relation %s has %d rows, before %d", rel, post.rows[rel], n))
		}
	}
	for i := range pre.answers {
		checks++
		if !sameIDs(append(post.answers[i][:0:0], post.answers[i]...), sorted(pre.answers[i])) {
			bad = append(bad, fmt.Errorf("after restart: fixed probe %d answers %v, before %v", i, post.answers[i], pre.answers[i]))
		}
	}
	return checks, bad
}
