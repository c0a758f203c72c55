package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/dataset"
)

// solveInput is one pre-encoded POST /v1/solve body plus what the
// output check needs to judge its answer.
type solveInput struct {
	body  []byte
	table *planTable
	fp    string  // canonical fingerprint the server must report
	ig1   float64 // the benchmark's own cold IG1 utility
}

// instanceSeed derives the seed of request i of a workload, so two
// workload seeds never share an instance.
func instanceSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// solveInputs generates n synthetic instances (the paper's generative
// process, internal/dataset) of one size, requests i in [first,
// first+n), each asking algoName for its plan.
func solveInputs(seed int64, first, n, queries int, budgetFrac float64, algoName string) ([]solveInput, error) {
	ig1, _ := algo.Lookup("ig1")
	out := make([]solveInput, n)
	for i := range out {
		in := dataset.Synthetic(instanceSeed(seed, first+i), queries, budgetFrac*float64(queries))
		ff := dataset.ToFormat(in)
		body, err := json.Marshal(api.SolveRequest{Instance: ff, Algo: algoName, IncludePlan: true})
		if err != nil {
			return nil, err
		}
		// The reference values come from the instance as the server will
		// see it: decoded from the wire format.
		wire, err := dataset.FromFormat(ff)
		if err != nil {
			return nil, err
		}
		ref, err := ig1.Run(context.Background(), wire, algo.Params{})
		if err != nil {
			return nil, err
		}
		out[i] = solveInput{body: body, table: newPlanTable(ff), fp: wire.Fingerprint(), ig1: ref.Utility}
	}
	return out, nil
}

// hashBodies is the inputs stamp: sha256 over every body in send order.
func hashBodies(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func solveBodies(in []solveInput) [][]byte {
	out := make([][]byte, len(in))
	for i := range in {
		out[i] = in[i].body
	}
	return out
}

// The ingest-replan query log: a seeded pool of distinct-term queries
// drawn with a Zipf skew, so consecutive windows share most queries
// (what makes warm chaining worth having) but never all of them.
const (
	ingestVocab      = 160
	ingestPool       = 400
	ingestLinesPerOp = 8
)

// ingestOps generates n POST /v1/ingest bodies of ingestLinesPerOp
// timestamped lines each, and the lines themselves. Timestamps advance
// with the send schedule from a fixed epoch, so the bodies depend on the
// seed alone.
func ingestOps(seed int64, n int, interval time.Duration) (bodies [][]byte, lines [][]string, err error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]string, ingestPool)
	for i := range pool {
		k := 1 + rng.Intn(3)
		terms := make([]string, 0, k)
		seen := map[int]bool{}
		for len(terms) < k {
			t := rng.Intn(ingestVocab)
			if !seen[t] {
				seen[t] = true
				terms = append(terms, fmt.Sprintf("w%03d", t))
			}
		}
		pool[i] = strings.Join(terms, " ")
	}
	zipf := rand.NewZipf(rng, 1.2, 2, ingestPool-1)
	const epoch = 1_700_000_000_000 // ms
	bodies = make([][]byte, n)
	lines = make([][]string, n)
	for i := 0; i < n; i++ {
		ts := (epoch + int64(i)*interval.Milliseconds()) / 1000
		op := make([]string, ingestLinesPerOp)
		for j := range op {
			op[j] = fmt.Sprintf("%d\t%s\t%d", ts, pool[zipf.Uint64()], 1+rng.Intn(9))
		}
		lines[i] = op
		if bodies[i], err = json.Marshal(api.IngestRequest{Lines: op}); err != nil {
			return nil, nil, err
		}
	}
	return bodies, lines, nil
}
