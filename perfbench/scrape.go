package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is one reading of a daemon's Prometheus exposition: every
// sample line, keyed by series name, summed across label sets.
type scrape struct {
	sums map[string]float64
	// labels keeps the label text of each series' last sample, for
	// identity series such as predmatch_build_info.
	labels map[string]string
}

// parseExposition reads Prometheus text format. Comment lines are
// skipped; a malformed sample line is an error.
func parseExposition(r io.Reader) (*scrape, error) {
	s := &scrape{sums: make(map[string]float64), labels: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value in %q: %w", line, err)
		}
		series, labels := line[:sp], ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			series, labels = series[:i], series[i:]
		}
		s.sums[series] += v
		s.labels[series] = labels
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return s, nil
}

// get returns the summed value of a series (0 when absent).
func (s *scrape) get(name string) float64 { return s.sums[name] }

// delta returns after−before for a series.
func delta(before, after *scrape, name string) float64 {
	return after.get(name) - before.get(name)
}

// fetchMetrics scrapes a daemon's admin /metrics endpoint.
func fetchMetrics(adminAddr string) (*scrape, error) {
	hc := http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", adminAddr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %s", adminAddr, resp.Status)
	}
	return parseExposition(resp.Body)
}

// scrapeRatios are the per-layer ratios read from the daemon's counters
// over one measured phase.
type scrapeRatios struct {
	RecordsPerFsync float64
	BytesPerRecord  float64
	NodesPerStab    float64
	// Swaps and Events are raw deltas; the caller divides them by the
	// operations it issued.
	Swaps  float64
	Events float64
}

// phaseRatios computes the counter ratios between two scrapes.
func phaseRatios(before, after *scrape) scrapeRatios {
	records := delta(before, after, "predmatch_wal_records_total")
	return scrapeRatios{
		RecordsPerFsync: ratio(records, delta(before, after, "predmatch_wal_fsyncs_total")),
		BytesPerRecord:  ratio(delta(before, after, "predmatch_wal_bytes_total"), records),
		NodesPerStab: ratio(delta(before, after, "predmatch_ibs_nodes_visited_total"),
			delta(before, after, "predmatch_ibs_stabs_total")),
		Swaps:  delta(before, after, "predmatch_shard_snapshot_swaps_total"),
		Events: delta(before, after, "predmatch_engine_events_total"),
	}
}
