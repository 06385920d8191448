package main

import (
	"bufio"
	"bytes"
	"debug/buildinfo"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"predmatch/internal/pred"
)

// result is everything one run measured; save writes it as JSON.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    int     `json:"trace"`
	Started  string  `json:"started"`
	Machine  machine `json:"machine"`
	Build    build   `json:"build"`

	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	// Timings are the measured phase's round trips by operation class
	// (match, mutate, predwrite) pooled over all parts, with sample
	// counts; PooledOpsPerSec is all completed requests over the phase's
	// whole wall time.
	Timings         map[string]timing `json:"timings,omitempty"`
	PooledOpsPerSec float64           `json:"pooled_ops_per_s,omitempty"`
	Notifications   *notifications    `json:"notifications,omitempty"`
	// Parts holds the per-part (set-up, recovery, memory) and per-round
	// (latency, throughput) values whose calm medians the metrics report.
	Parts map[string][]float64 `json:"parts,omitempty"`
	// PartSteal is the steal share, in percent, while each of them was
	// measured.
	PartSteal map[string][]float64 `json:"parts_steal_pct,omitempty"`
	// DataDirMB is the data dir size at the crash point (median of the
	// parts).
	DataDirMB float64 `json:"data_dir_mb,omitempty"`

	Metrics map[string]metric `json:"metrics"`

	// Traced runs only.
	Overhead *overhead `json:"tracing_overhead,omitempty"`
	SelfTime []selfRow `json:"self_time,omitempty"`
	Spans    []span    `json:"-"` // written to their own file
}

type machine struct {
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	// StealPct is the share of CPU time the hypervisor gave to other
	// guests during the run: on a shared host, the noise behind a slow
	// run.
	StealPct float64 `json:"steal_pct"`
}

// cpuTicks reads the aggregate CPU counters of /proc/stat: the total
// and the steal ticks. ok is false where the file or field is missing.
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// stealClock measures the steal share over an interval.
type stealClock struct{ total, steal uint64 }

func startSteal() stealClock {
	t, s, _ := cpuTicks()
	return stealClock{t, s}
}

// pct returns the steal share, in percent, since the clock started.
func (c stealClock) pct() float64 {
	total, steal, ok := cpuTicks()
	if !ok || total <= c.total {
		return 0
	}
	return 100 * float64(steal-c.steal) / float64(total-c.total)
}

type build struct {
	// Daemon is the predmatchd binary's embedded build info: module
	// version, Go version and any VCS settings.
	Daemon   string `json:"daemon"`
	DaemonGo string `json:"daemon_go"`
	// Source identifies the tree the binaries were built from.
	Source string `json:"source"`
	// BuildInfo is the daemon's predmatch_build_info series, scraped in
	// traced runs.
	BuildInfo string `json:"predmatch_build_info,omitempty"`
}

type notifications struct {
	Generated uint64 `json:"generated"`
	Received  uint64 `json:"received"`
	Dropped   uint64 `json:"dropped"`
	Predicted int64  `json:"predicted_firings"`
}

type overhead struct {
	UntracedOpsPerSec float64 `json:"untraced_ops_per_s"`
	TracedOpsPerSec   float64 `json:"traced_ops_per_s"`
}

func machineInfo() machine {
	m := machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func buildInfo(bin, source string) build {
	b := build{Source: source, Daemon: "unknown"}
	if bi, err := buildinfo.ReadFile(bin); err == nil {
		b.DaemonGo = bi.GoVersion
		parts := []string{bi.Main.Path + "@" + bi.Main.Version}
		for _, s := range bi.Settings {
			if strings.HasPrefix(s.Key, "vcs.") {
				parts = append(parts, s.Key+"="+s.Value)
			}
		}
		b.Daemon = strings.Join(parts, " ")
	}
	return b
}

// addPhase records a measured phase's counts and timings.
func (r *result) addPhase(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Errors = append(r.Errors, p.errors...)
	r.PooledOpsPerSec = p.opsPerSec()
	r.Timings = make(map[string]timing)
	for op, s := range p.lat {
		r.Timings[op] = summarize(s)
	}
	if p.mutations > 0 {
		r.Notifications = &notifications{Generated: p.generated, Received: p.received, Dropped: p.dropped, Predicted: p.firings}
	}
}

// check records the outcome of a batch of state checks.
func (r *result) check(checks int64, bad []error) {
	r.Attempted += checks
	r.Failed += int64(len(bad))
	for _, e := range bad {
		if len(r.Errors) < 20 {
			r.Errors = append(r.Errors, e.Error())
		}
	}
}

func sorted(ids []pred.ID) []pred.ID {
	out := append([]pred.ID(nil), ids...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// report prints the human-readable result.
func (r *result) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "  machine: nproc=%d cpu=%q %s, perfbench built with %s, %.1f%% steal\n",
		r.Machine.NProc, r.Machine.CPU, r.Machine.OS, r.Machine.GoVersion, r.Machine.StealPct)
	fmt.Fprintf(w, "  build:   daemon %s (%s), source %s\n", r.Build.Daemon, r.Build.DaemonGo, r.Build.Source)
	if r.Build.BuildInfo != "" {
		fmt.Fprintf(w, "           predmatch_build_info%s\n", r.Build.BuildInfo)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "    FAILED: %s\n", e)
	}
	ops := make([]string, 0, len(r.Timings))
	for op := range r.Timings {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		t := r.Timings[op]
		fmt.Fprintf(w, "  %s_p50_us %.1f us, %s_p90_us %.1f us, %s_p99_us %.1f us, %s %.1f us (n=%d)\n",
			op, t.P50, op, t.P90, op, t.P99, t.TailLabel, t.Tail, t.N)
	}
	if n := r.Notifications; n != nil {
		fmt.Fprintf(w, "  notifications: %d generated = %d received + %d dropped; rules predict %d\n",
			n.Generated, n.Received, n.Dropped, n.Predicted)
	}
	parts := make([]string, 0, len(r.Parts))
	for k := range r.Parts {
		parts = append(parts, k)
	}
	sort.Strings(parts)
	for _, k := range parts {
		fmt.Fprintf(w, "  %s samples %v\n    steal%% %v\n", k, fmtFloats(r.Parts[k]), fmtFloats(r.PartSteal[k]))
	}
	if r.DataDirMB > 0 {
		fmt.Fprintf(w, "  data_dir_mb %.4f MB at the crash point\n", r.DataDirMB)
	}
	if len(r.SelfTime) > 0 {
		printSelfTime(w, r.SelfTime)
	}
	if o := r.Overhead; o != nil {
		fmt.Fprintf(w, "  tracing overhead (%s): untraced %.0f ops/s, traced %.0f ops/s (%+.1f%%)\n",
			r.Workload, o.UntracedOpsPerSec, o.TracedOpsPerSec, 100*(o.TracedOpsPerSec/o.UntracedOpsPerSec-1))
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  metrics:\n")
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "    %-28s %14.4f %s\n", k, m.Value, m.Unit)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// save writes the result, and a traced run's spans beside it.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, r.Trace))
	if err := writeJSON(base+".json", r); err != nil {
		return err
	}
	if r.Spans == nil {
		return nil
	}
	// One span per line, so two runs' span files diff line by line.
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, sp := range r.Spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return os.WriteFile(base+"-spans.jsonl", b.Bytes(), 0o644)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
