package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/dataset"
)

// The inputs stamp only means something if the generators are pure
// functions of the seed.
func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) (string, error){
		"solve": func(seed int64) (string, error) {
			in, err := solveInputs(seed, 0, 3, 60, coldBudgetFrac, "abcc")
			if err != nil {
				return "", err
			}
			return hashBodies(solveBodies(in)), nil
		},
		"ingest": func(seed int64) (string, error) {
			bodies, _, err := ingestOps(seed, 40, ingestInterval)
			return hashBodies(bodies), err
		},
	}
	for name, gen := range gens {
		a, errA := gen(1)
		b, errB := gen(1)
		c, errC := gen(2)
		if errA != nil || errB != nil || errC != nil {
			t.Fatalf("%s: %v %v %v", name, errA, errB, errC)
		}
		if a != b {
			t.Errorf("%s: seed 1 hashed %s, then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both hashed %s", name, a)
		}
	}
}

// The output check must reject what a wrong solver could send.
func TestPlanCheckRejectsWrongPlans(t *testing.T) {
	inputs, err := solveInputs(5, 0, 1, 80, coldBudgetFrac, "abcc")
	if err != nil {
		t.Fatal(err)
	}
	in := inputs[0]
	var req api.SolveRequest
	if err := json.Unmarshal(in.body, &req); err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.FromFormat(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := algo.Lookup("ig1")
	out, _ := d.Run(context.Background(), inst, algo.Params{})
	good := &api.SolveResponse{Status: "complete", Budget: out.Solution.Instance().Budget(),
		Utility: out.Utility, Cost: out.Cost, Covered: out.Covered}
	u := inst.Universe()
	for _, c := range out.Solution.Classifiers() {
		props := make([]string, c.Props.Len())
		for i, id := range c.Props {
			props[i] = u.Name(id)
		}
		good.Classifiers = append(good.Classifiers, api.PlanClassifier{Props: props, Cost: c.Cost})
	}
	if _, err := in.table.check(good); err != nil {
		t.Fatalf("correct plan rejected: %v", err)
	}

	overBudget := *good
	overBudget.Classifiers = nil
	overBudget.Cost = 0
	for _, c := range req.Instance.Costs {
		if !c.Inf && c.Cost > 0 {
			overBudget.Classifiers = append(overBudget.Classifiers, api.PlanClassifier{Props: c.Props, Cost: c.Cost})
			overBudget.Cost += c.Cost
		}
	}
	wrongUtility := *good
	wrongUtility.Utility++
	wrongCost := *good
	wrongCost.Cost++
	notComplete := *good
	notComplete.Status = "deadline"
	for name, resp := range map[string]*api.SolveResponse{
		"over budget": &overBudget, "utility": &wrongUtility, "cost": &wrongCost, "status": &notComplete,
	} {
		if _, err := in.table.check(resp); err == nil {
			t.Errorf("%s: wrong plan accepted", name)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v %v", q1, q2, q3, err)
	}
}
