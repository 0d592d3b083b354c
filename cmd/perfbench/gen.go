package main

// The serve-mix request generator: a seeded, deterministic interleaving
// of fresh cells (never run before on the server) and repeats of cells
// the server's ledger already holds finished.

import (
	"encoding/json"
	"math/rand"
)

// serveCell is one cheap test-scale job, as POST /v1/jobs takes it.
type serveCell struct {
	Bench   string `json:"bench"`
	System  string `json:"system"`
	NCBytes int    `json:"nc_bytes"`
	NCWays  int    `json:"nc_ways"`
	Scale   string `json:"scale"`
}

func (c serveCell) body() []byte {
	data, _ := json.Marshal(c) // a struct of strings and ints always encodes
	return data
}

// mixRequest is one request of the generated sequence.
type mixRequest struct {
	fresh bool
	cell  serveCell
}

// Sizes of the serve-mix work: the repeat pool the prebuilt ledger
// holds, and one round's requests: mixFreshPerGroup fresh cells of
// every (benchmark, system) pair, and mixRepeats resubmissions.
const (
	mixPool          = 24
	mixFreshPerGroup = 12
	mixRepeats       = 432
)

var (
	mixBenches = []string{"FFT", "LU", "Ocean"}
	mixSystems = []string{"nc", "vb", "vp"}
)

// cellGroup is every NC geometry of one (benchmark, system) pair:
// 4 KB..512 KB × 1..16 ways.
func cellGroup(bench, system string) []serveCell {
	var out []serveCell
	for kb := 4; kb <= 512; kb *= 2 {
		for ways := 1; ways <= 16; ways *= 2 {
			out = append(out, serveCell{Bench: bench, System: system, NCBytes: kb << 10, NCWays: ways, Scale: "test"})
		}
	}
	return out
}

// genMix draws, from the seed alone, a repeat pool of pool cells and
// one round's request sequence: freshPerGroup distinct cells of every
// (benchmark, system) pair, none in the pool, so that every seed runs the
// same mix of engine work, interleaved with repeats resubmissions drawn
// from the pool.
func genMix(seed int64, pool, freshPerGroup, repeats int) ([]serveCell, []mixRequest) {
	rng := rand.New(rand.NewSource(seed))
	var reqs []mixRequest
	var rest []serveCell
	for _, b := range mixBenches {
		for _, s := range mixSystems {
			g := cellGroup(b, s)
			rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
			for _, c := range g[:freshPerGroup] {
				reqs = append(reqs, mixRequest{fresh: true, cell: c})
			}
			rest = append(rest, g[freshPerGroup:]...)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	repeatPool := rest[:pool]
	for i := 0; i < repeats; i++ {
		reqs = append(reqs, mixRequest{cell: repeatPool[rng.Intn(pool)]})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return repeatPool, reqs
}
