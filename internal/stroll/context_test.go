package stroll

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
)

// countdownCtx reports Canceled starting from the (after+1)-th Err()
// poll, making mid-search cancellation deterministic in tests.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// hardInstance builds a complete "metric" with one edge far below the
// typical edge. The kernel's bound may bounce along it (it only forbids
// a repeat in consecutive slots), so it prices most of any completion
// at ~0; the N=6 search then needs ~3 000 expansions (18 without that
// edge), guaranteeing the in-search context poll is reached.
func hardInstance() Instance {
	rng := rand.New(rand.NewSource(9))
	nv := 20
	cost := make([][]float64, nv)
	for i := range cost {
		cost[i] = make([]float64, nv)
	}
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			c := 1 + rng.Float64()
			cost[i][j], cost[j][i] = c, c
		}
	}
	// One near-zero edge loosens the bound without affecting much else.
	cost[2][3], cost[3][2] = 1e-6, 1e-6
	return Instance{Cost: cost, S: 0, T: 1, N: 6}
}

func TestExhaustiveContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exhaustiveContext(ctx, hardInstance(), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled", err)
	}
}

// TestExhaustiveContextMidSearch: cancellation mid-search returns the
// incumbent (at worst the DP seed) with Optimal=false and ctx.Err().
func TestExhaustiveContextMidSearch(t *testing.T) {
	in := hardInstance()
	seed, err := DP(in)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countdownCtx{Context: context.Background(), after: 1}
	res, err := exhaustiveContext(cc, in, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled (%d polls)", err, cc.calls.Load())
	}
	if res.Optimal {
		t.Fatal("cancelled search claimed optimality")
	}
	if res.Cost > seed.Cost {
		t.Fatalf("incumbent %v worse than DP seed %v", res.Cost, seed.Cost)
	}
	if len(res.Walk) < 2 || res.Walk[0] != in.S || res.Walk[len(res.Walk)-1] != in.T {
		t.Fatalf("cancelled incumbent walk %v", res.Walk)
	}
	if len(res.Visited) != in.N {
		t.Fatalf("cancelled incumbent visits %d nodes, want %d", len(res.Visited), in.N)
	}
}

func TestExhaustiveContextCompletesUncancelled(t *testing.T) {
	in := hardInstance()
	in.N = 3
	want, err := Exhaustive(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exhaustiveContext(context.Background(), in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Optimal || got.Cost != want.Cost {
		t.Fatalf("context run diverged: %+v vs %+v", got, want)
	}
}

func TestStrollSearchExpansionsAdvances(t *testing.T) {
	in := hardInstance()
	in.N = 3
	before := SearchExpansions()
	if _, err := Exhaustive(in, 0); err != nil {
		t.Fatal(err)
	}
	if got := SearchExpansions() - before; got <= 0 {
		t.Fatalf("expansion counter advanced by %d", got)
	}
}
