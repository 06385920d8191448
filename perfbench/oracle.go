package main

import (
	"fmt"
	"math/rand"
	"sort"

	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/server"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// Population shape, shared by every workload.
const (
	numPreds  = 1024  // standing direct predicates
	predWidth = 2000  // each is salary ∈ [lo, lo+predWidth]
	loMin     = 10000 // lo is uniform on [loMin, loMin+loSpan)
	loSpan    = 90000
)

// The five rules, defined in this order, so the engine gives their
// predicates IDs 1..5 (it allocates rule-predicate IDs from 1, and
// none of these conditions has a disjunction).
var ruleSources = []string{
	"rule band on insert, update to emp when salary between 20000 and 30000 do log 'band'",
	"rule senior on insert to emp when age > 50 do log 'senior'",
	"rule cheap on delete to emp when salary < 25000 do log 'cheap'",
	"rule paid on insert to emp when salary > 90000 do insert into audit ('paid', 2)",
	"rule loud on insert to audit when level > 1 do log 'loud'",
}

const (
	ruleBand pred.ID = iota + 1
	ruleSenior
	ruleCheap
	rulePaid
)

// emp is one generated emp(name, age, salary, dept) row.
type emp struct {
	Name   string
	Age    int64
	Salary int64
	Dept   string
}

var depts = []string{"shoe", "toy", "deli"}

// randomEmp draws a row the way cmd/predmatchd/loadgen does.
func randomEmp(rng *rand.Rand) emp {
	return emp{
		Name:   fmt.Sprintf("w%d", rng.Intn(50)),
		Age:    int64(20 + rng.Intn(50)),
		Salary: int64(10000 + rng.Intn(90000)),
		Dept:   depts[rng.Intn(len(depts))],
	}
}

func (e emp) tuple() tuple.Tuple {
	return tuple.New(value.String_(e.Name), value.Int(e.Age), value.Int(e.Salary), value.String_(e.Dept))
}

// salaryPred is the direct predicate salary ∈ [lo, lo+predWidth].
func salaryPred(lo int64) *pred.Predicate {
	return pred.New(0, "emp", pred.IvClause("salary",
		interval.Closed(value.Int(lo), value.Int(lo+predWidth))))
}

// population is the standing predicate set: predicate i has ID
// server.DirectPredBase+i and covers [los[i], los[i]+predWidth].
type population struct {
	los []int64
	// order lists predicate indexes by ascending lo, for the oracle's
	// binary search.
	order []int
}

func newPopulation(rng *rand.Rand, n int) *population {
	p := &population{los: make([]int64, n), order: make([]int, n)}
	for i := range p.los {
		p.los[i] = loMin + rng.Int63n(loSpan)
		p.order[i] = i
	}
	sort.SliceStable(p.order, func(a, b int) bool { return p.los[p.order[a]] < p.los[p.order[b]] })
	return p
}

func directID(i int) pred.ID { return server.DirectPredBase + pred.ID(i) }

// expected returns the sorted IDs every match of e must return: the
// emp rules' predicates whose condition holds (regardless of event
// kind, as match ignores events) and the standing predicates covering
// e's salary.
func (p *population) expected(e emp) []pred.ID {
	var out []pred.ID
	if e.Salary >= 20000 && e.Salary <= 30000 {
		out = append(out, ruleBand)
	}
	if e.Age > 50 {
		out = append(out, ruleSenior)
	}
	if e.Salary < 25000 {
		out = append(out, ruleCheap)
	}
	if e.Salary > 90000 {
		out = append(out, rulePaid)
	}
	// Standing predicates with lo in [salary-predWidth, salary].
	k := sort.Search(len(p.order), func(j int) bool { return p.los[p.order[j]] >= e.Salary-predWidth })
	for ; k < len(p.order) && p.los[p.order[k]] <= e.Salary; k++ {
		out = append(out, directID(p.order[k]))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// sameIDs reports whether got holds exactly the IDs of want (sorted),
// in any order. got is sorted in place.
func sameIDs(got, want []pred.ID) bool {
	if len(got) != len(want) {
		return false
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// checkChurnAnswer is the churn oracle for one match of e taken while
// churn predicates come and go. Every expected ID must be present; any
// other ID must be churn predicate k (ID first+k, covering
// [churnLos[k], churnLos[k]+predWidth]) containing e's salary.
func checkChurnAnswer(got []pred.ID, want []pred.ID, churnLos []int64, first pred.ID, e emp) error {
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	w := 0
	for i, id := range got {
		if i > 0 && got[i-1] == id {
			return fmt.Errorf("duplicate id %d", id)
		}
		if w < len(want) && want[w] == id {
			w++
			continue
		}
		k := int(id - first)
		if id < first || k >= len(churnLos) {
			return fmt.Errorf("unexpected id %d", id)
		}
		if lo := churnLos[k]; e.Salary < lo || e.Salary > lo+predWidth {
			return fmt.Errorf("churn predicate %d [%d,%d] does not cover salary %d", id, lo, lo+predWidth, e.Salary)
		}
	}
	if w != len(want) {
		return fmt.Errorf("missing %d of %d expected ids", len(want)-w, len(want))
	}
	return nil
}

// Rule firings each mutation's ack must report. A paid insert fires
// paid and, through its audit insert, loud.
func insertFirings(e emp) int {
	n := 0
	if e.Salary >= 20000 && e.Salary <= 30000 {
		n++ // band
	}
	if e.Age > 50 {
		n++ // senior
	}
	if e.Salary > 90000 {
		n += 2 // paid, then loud on the cascaded audit row
	}
	return n
}

func updateFirings(next emp) int {
	if next.Salary >= 20000 && next.Salary <= 30000 {
		return 1 // band
	}
	return 0
}

func deleteFirings(old emp) int {
	if old.Salary < 25000 {
		return 1 // cheap
	}
	return 0
}
