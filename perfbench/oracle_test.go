package main

import (
	"reflect"
	"testing"

	"predmatch/internal/pred"
)

// handPopulation has three standing predicates covering
// [20000,22000], [21000,23000] and [50000,52000].
func handPopulation() *population {
	p := &population{los: []int64{21000, 20000, 50000}}
	p.order = []int{1, 0, 2}
	return p
}

func TestExpected(t *testing.T) {
	p := handPopulation()
	cases := []struct {
		e    emp
		want []pred.ID
	}{
		// band, cheap and both overlapping salary bands.
		{emp{Age: 30, Salary: 21500}, []pred.ID{ruleBand, ruleCheap, directID(0), directID(1)}},
		// The band edges are inclusive, cheap's bound is strict.
		{emp{Age: 30, Salary: 20000}, []pred.ID{ruleBand, ruleCheap, directID(1)}},
		{emp{Age: 30, Salary: 25000}, []pred.ID{ruleBand}},
		{emp{Age: 30, Salary: 30000}, []pred.ID{ruleBand}},
		// senior is strict on age; paid is strict on salary.
		{emp{Age: 51, Salary: 52000}, []pred.ID{ruleSenior, directID(2)}},
		{emp{Age: 50, Salary: 90000}, nil},
		{emp{Age: 69, Salary: 90001}, []pred.ID{ruleSenior, rulePaid}},
	}
	for _, c := range cases {
		if got := p.expected(c.e); !reflect.DeepEqual(got, c.want) {
			t.Errorf("expected(%+v) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestSameIDs(t *testing.T) {
	want := []pred.ID{1, 5, 9}
	if !sameIDs([]pred.ID{9, 1, 5}, want) {
		t.Error("permutation rejected")
	}
	if sameIDs([]pred.ID{1, 5}, want) || sameIDs([]pred.ID{1, 5, 8}, want) {
		t.Error("wrong set accepted")
	}
}

func TestCheckChurnAnswer(t *testing.T) {
	e := emp{Age: 30, Salary: 60000}
	want := []pred.ID{directID(2)}
	churn := []int64{59000, 70000}
	first := directID(numPreds + 10) // ten churn predicates came before
	c0, c1 := first, first+1
	if err := checkChurnAnswer([]pred.ID{c0, directID(2)}, want, churn, first, e); err != nil {
		t.Errorf("live covering churn predicate rejected: %v", err)
	}
	if err := checkChurnAnswer([]pred.ID{directID(2)}, want, churn, first, e); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	bad := map[string][]pred.ID{
		"missing standing":   {c0},
		"non-covering churn": {c1, directID(2)},
		"unknown churn":      {first + 2, directID(2)},
		"earlier churn":      {first - 1, directID(2)},
		"stray standing":     {directID(0), directID(2)},
		"rule id":            {ruleBand, directID(2)},
		"duplicate":          {directID(2), directID(2)},
	}
	for name, got := range bad {
		if err := checkChurnAnswer(got, want, churn, first, e); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestFirings(t *testing.T) {
	cases := []struct {
		e                 emp
		ins, upd, deleted int
	}{
		{emp{Age: 30, Salary: 15000}, 0, 0, 1},
		{emp{Age: 55, Salary: 22000}, 2, 1, 1},
		{emp{Age: 51, Salary: 95000}, 3, 0, 0},
		{emp{Age: 50, Salary: 90000}, 0, 0, 0},
		{emp{Age: 20, Salary: 30000}, 1, 1, 0},
	}
	for _, c := range cases {
		if got := insertFirings(c.e); got != c.ins {
			t.Errorf("insertFirings(%+v) = %d, want %d", c.e, got, c.ins)
		}
		if got := updateFirings(c.e); got != c.upd {
			t.Errorf("updateFirings(%+v) = %d, want %d", c.e, got, c.upd)
		}
		if got := deleteFirings(c.e); got != c.deleted {
			t.Errorf("deleteFirings(%+v) = %d, want %d", c.e, got, c.deleted)
		}
	}
}
