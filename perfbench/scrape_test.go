package main

import (
	"strings"
	"testing"
)

const expoBefore = `# HELP predmatch_wal_records_total WAL records appended.
# TYPE predmatch_wal_records_total counter
predmatch_wal_records_total 100
predmatch_wal_fsyncs_total 100
predmatch_wal_bytes_total 20000
predmatch_ibs_stabs_total{rel="emp",attr="salary"} 10
predmatch_ibs_stabs_total{rel="audit",attr="level"} 0
predmatch_ibs_nodes_visited_total 120
predmatch_shard_snapshot_swaps_total 1029
predmatch_engine_events_total 0
predmatch_build_info{version="(devel)",go_version="go1.24.0"} 1
`

const expoAfter = `predmatch_wal_records_total 1100
predmatch_wal_fsyncs_total 350
predmatch_wal_bytes_total 270000
predmatch_ibs_stabs_total{rel="emp",attr="salary"} 1000
predmatch_ibs_stabs_total{rel="audit",attr="level"} 10
predmatch_ibs_nodes_visited_total 12240
predmatch_shard_snapshot_swaps_total 1029
predmatch_engine_events_total 1100
predmatch_match_latency_seconds_bucket{rel="emp",le="+Inf"} 4
`

func TestParseExposition(t *testing.T) {
	s, err := parseExposition(strings.NewReader(expoBefore))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.get("predmatch_ibs_stabs_total"); got != 10 {
		t.Errorf("label sets not summed: %v", got)
	}
	if got := s.labels["predmatch_build_info"]; got != `{version="(devel)",go_version="go1.24.0"}` {
		t.Errorf("build_info labels = %q", got)
	}
	if got := s.get("predmatch_absent"); got != 0 {
		t.Errorf("absent series = %v", got)
	}
	if _, err := parseExposition(strings.NewReader("predmatch_x notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

func TestPhaseRatios(t *testing.T) {
	b, err := parseExposition(strings.NewReader(expoBefore))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseExposition(strings.NewReader(expoAfter))
	if err != nil {
		t.Fatal(err)
	}
	r := phaseRatios(b, a)
	// 1000 records over 250 fsyncs, 250000 bytes over 1000 records,
	// 12120 nodes over 1000 stabs.
	if r.RecordsPerFsync != 4 || r.BytesPerRecord != 250 || r.NodesPerStab != 12.12 {
		t.Errorf("ratios = %+v", r)
	}
	if r.Swaps != 0 || r.Events != 1100 {
		t.Errorf("deltas = %+v", r)
	}
	// A phase that wrote nothing reports 0, not NaN.
	if z := phaseRatios(a, a); z.RecordsPerFsync != 0 || z.BytesPerRecord != 0 || z.NodesPerStab != 0 {
		t.Errorf("idle phase ratios = %+v", z)
	}
}
