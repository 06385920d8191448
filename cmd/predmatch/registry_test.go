package main

import (
	"strings"
	"testing"

	"predmatch/internal/pred"
	"predmatch/internal/storage"
	"predmatch/internal/strategy"
)

// TestFactoryCoversRegistry asserts the -matcher flag and the shared
// strategy registry agree: every registered name resolves to a working
// factory, the produced matcher reports the registered name, and the
// flag's help text mentions every strategy — so the usage string can
// never go stale again (the PR-6 bug was a help string listing 6 of
// the strategies).
func TestFactoryCoversRegistry(t *testing.T) {
	help := strategy.FlagHelp()
	for _, in := range strategy.All() {
		mk, err := matcherFactory(in.Name)
		if err != nil {
			t.Errorf("matcherFactory(%q): %v", in.Name, err)
			continue
		}
		db := storage.NewDB()
		m := mk(db, pred.NewRegistry())
		if m == nil {
			t.Errorf("factory %q returned nil matcher", in.Name)
			continue
		}
		if m.Name() != in.Name {
			t.Errorf("factory %q built matcher named %q", in.Name, m.Name())
		}
		if !strings.Contains(help, in.Name) {
			t.Errorf("flag help omits strategy %q: %s", in.Name, help)
		}
	}
	if _, err := matcherFactory("nosuch"); err == nil {
		t.Error("matcherFactory accepted unknown strategy")
	} else {
		// The error must enumerate the real choices.
		for _, name := range strategy.Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-strategy error omits %q: %v", name, err)
			}
		}
	}
}

// TestServingIndexIsHintAndIBS pins predmatchd's -index surface: the
// flag help lists exactly hint and ibs, both resolve, and every other
// registered name (the experiment-only structures included) is rejected
// with an error naming the two.
func TestServingIndexIsHintAndIBS(t *testing.T) {
	help := strategy.IndexFlagHelp()
	if !strings.HasSuffix(help, "(one of hint, ibs)") {
		t.Errorf("index flag help = %q, want it to list exactly hint, ibs", help)
	}
	if _, name, err := strategy.ServingIndex("ibs"); err != nil || name != "" {
		t.Errorf("ServingIndex(ibs) = %q, %v; want the zero-Config default", name, err)
	}
	if opts, name, err := strategy.ServingIndex("hint"); err != nil || len(opts) == 0 || name != "sharded-hint" {
		t.Errorf("ServingIndex(hint) = %d opts, %q, %v", len(opts), name, err)
	}
	for _, bad := range append(strategy.Names(), "meta", "") {
		if bad == "ibs" || bad == "hint" {
			continue
		}
		_, _, err := strategy.ServingIndex(bad)
		if err == nil {
			t.Errorf("ServingIndex(%q) accepted", bad)
			continue
		}
		if !strings.HasSuffix(err.Error(), "(want one of hint, ibs)") {
			t.Errorf("ServingIndex(%q) error = %v, want the hint, ibs list", bad, err)
		}
	}
}
