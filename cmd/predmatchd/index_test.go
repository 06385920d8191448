package main

import (
	"errors"
	"os/exec"
	"strings"
	"testing"

	"predmatch/internal/client"
	"predmatch/internal/pred"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/wire"
)

// TestIndexFlag runs the real binary: -index ibs and -index hint both
// start and serve a rule match, and every other value, including the
// registry's experiment-only structures, exits 2 naming the two.
func TestIndexFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	for _, tc := range []struct{ index, matcher, structure string }{
		{"ibs", "sharded", "ibs"},
		{"hint", "sharded-hint", "hint"},
	} {
		d := startDaemon(t, bin, t.TempDir(), "-index", tc.index)
		ids, st, err := serveOneRule(d.addr)
		termDaemon(d)
		if err != nil {
			t.Fatalf("-index %s: %v", tc.index, err)
		}
		if len(ids) != 1 {
			t.Errorf("-index %s: match returned %v, want one predicate", tc.index, ids)
		}
		if st.Matcher != tc.matcher || len(st.Shards) != 1 || st.Shards[0].Structure != tc.structure {
			t.Errorf("-index %s: matcher %q, shards %+v; want %s on %s",
				tc.index, st.Matcher, st.Shards, tc.matcher, tc.structure)
		}
	}
	for _, bad := range []string{"meta", "pst", "islist"} {
		out, err := exec.Command(bin, "-index", bad).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("-index %s: err = %v, want exit status 2", bad, err)
		}
		if !strings.Contains(string(out), `unknown index "`+bad+`" (want one of hint, ibs)`) {
			t.Errorf("-index %s: stderr %q does not name hint, ibs", bad, out)
		}
	}
}

// serveOneRule declares emp on the daemon at addr, defines one rule,
// and returns the predicates a matching tuple hits plus a stats frame.
func serveOneRule(addr string) ([]pred.ID, *wire.Stats, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	if err := c.DeclareRelation(crashEmpRel); err != nil {
		return nil, nil, err
	}
	if _, err := c.DefineRule("rule big on insert to emp when salary > 100 do log 'big'"); err != nil {
		return nil, nil, err
	}
	ids, err := c.Match("emp", tuple.New(value.String_("a"), value.Int(30), value.Int(500), value.String_("toy")))
	if err != nil {
		return nil, nil, err
	}
	st, err := c.Stats()
	return ids, st, err
}
