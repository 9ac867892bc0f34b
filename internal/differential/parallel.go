package differential

import (
	"fmt"
	"math"
	"slices"

	"vnfopt/internal/migration"
	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/stroll"
)

// RunParallelIdentity cross-checks the parallel branch-and-bound kernel
// against its sequential oracle on one scenario: placement.Optimal,
// migration.Exhaustive, and the stroll exhaustive solver are each run
// sequentially and at the given worker count. Searches run unbudgeted
// (nothing is guaranteed for interrupted searches), so callers keep
// instances small.
//
// What has to agree depends on the arithmetic. When every link weight,
// rate and μ is an integer, every cost the search forms is an integer
// below 2^53: float addition is exact, the tail bound is admissible to
// the last bit, and the two searches must return the same tuple at the
// same cost bitwise. On real-valued instances the bound is admissible in
// real arithmetic only — it can exceed the true remaining cost by an ulp,
// so which of two optima a few ulp apart survives depends on the order
// incumbents arrived in, and that order is what the fan-out changes.
// There the claim is the one that holds: both searches complete (equal
// proven), both tuples are valid, each reported cost is the cost of the
// tuple reported with it, and the two costs lie within maxUlps.
func RunParallelIdentity(d *model.PPDC, w1, w2 model.Workload, sfc model.SFC, mu float64, workers int) error {
	unit := true
	for _, e := range d.Topo.Graph.Edges() {
		unit = unit && isInt(e.Weight)
	}

	// --- TOP: placement.Optimal ------------------------------------
	seqP, seqC, seqProven, err := (placement.Optimal{Seed: placement.DP{}}).PlaceProven(d, w1, sfc)
	if err != nil {
		return fmt.Errorf("parallel-identity: sequential Optimal: %w", err)
	}
	parP, parC, parProven, err := (placement.Optimal{Seed: placement.DP{}, Workers: workers}).PlaceProven(d, w1, sfc)
	if err != nil {
		return fmt.Errorf("parallel-identity: Optimal workers=%d: %w", workers, err)
	}
	in1, eg1 := d.EndpointCosts(w1)
	err = agree(unit && intRates(w1),
		outcome{seqP, seqC, seqProven}, outcome{parP, parC, parProven},
		func(p []int) error { return model.Placement(p).Validate(d, sfc) },
		func(p []int) float64 { return chainCost(d, w1.TotalRate(), in1, eg1, p, nil, 0) })
	if err != nil {
		return fmt.Errorf("parallel-identity: Optimal workers=%d %w", workers, err)
	}

	// --- TOM: migration.Exhaustive ---------------------------------
	pInit, _, err := (placement.DP{}).Place(d, w1, sfc)
	if err != nil {
		return fmt.Errorf("parallel-identity: DP initial: %w", err)
	}
	seqM, seqCt, seqProvenM, err := (migration.Exhaustive{Seed: migration.MPareto{}}).MigrateProven(d, w2, sfc, pInit, mu)
	if err != nil {
		return fmt.Errorf("parallel-identity: sequential Exhaustive: %w", err)
	}
	parM, parCt, parProvenM, err := (migration.Exhaustive{Seed: migration.MPareto{}, Workers: workers}).MigrateProven(d, w2, sfc, pInit, mu)
	if err != nil {
		return fmt.Errorf("parallel-identity: Exhaustive workers=%d: %w", workers, err)
	}
	in2, eg2 := d.EndpointCosts(w2)
	err = agree(unit && intRates(w2) && isInt(mu),
		outcome{seqM, seqCt, seqProvenM}, outcome{parM, parCt, parProvenM},
		func(m []int) error { return model.Placement(m).Validate(d, sfc) },
		func(m []int) float64 { return chainCost(d, w2.TotalRate(), in2, eg2, m, pInit, mu) })
	if err != nil {
		return fmt.Errorf("parallel-identity: Exhaustive workers=%d %w", workers, err)
	}

	// --- stroll: exhaustive n-stroll over the switch closure --------
	sw := d.Topo.Switches
	if n := len(sw) - 2; n >= 1 {
		in := stroll.Instance{
			Cost: d.APSP.CostMatrix(sw),
			S:    0,
			T:    len(sw) - 1,
			N:    min(sfc.Len(), n),
		}
		seqR, err := stroll.Exhaustive(in, stroll.ExhaustiveOptions{})
		if err != nil {
			return fmt.Errorf("parallel-identity: sequential stroll: %w", err)
		}
		parR, err := stroll.Exhaustive(in, stroll.ExhaustiveOptions{Workers: workers})
		if err != nil {
			return fmt.Errorf("parallel-identity: stroll workers=%d: %w", workers, err)
		}
		err = agree(unit,
			outcome{seqR.Walk, seqR.Cost, seqR.Optimal}, outcome{parR.Walk, parR.Cost, parR.Optimal},
			func(walk []int) error { return validStroll(in, walk) },
			func(walk []int) float64 {
				c := 0.0
				for i := 0; i+1 < len(walk); i++ {
					c += in.Cost[walk[i]][walk[i+1]]
				}
				return c
			})
		if err != nil {
			return fmt.Errorf("parallel-identity: stroll workers=%d %w", workers, err)
		}
	}
	return nil
}

// maxUlps bounds how far apart a parallel and a sequential optimum may
// be on a real-valued instance: the tail bound's rounding error, a few
// additions deep.
const maxUlps = 4

// outcome is one search's answer: a placement or a walk, its reported
// cost and whether the search completed.
type outcome struct {
	tuple  []int
	cost   float64
	proven bool
}

// agree checks a parallel outcome against the sequential one under the
// claim that holds for the instance's arithmetic (see RunParallelIdentity).
func agree(exact bool, seq, par outcome, valid func([]int) error, cost func([]int) float64) error {
	diverged := func() error {
		return fmt.Errorf("diverged: (%v,%v,%v) vs sequential (%v,%v,%v)",
			par.tuple, par.cost, par.proven, seq.tuple, seq.cost, seq.proven)
	}
	if par.proven != seq.proven {
		return diverged()
	}
	if exact {
		if par.cost != seq.cost || !slices.Equal(par.tuple, seq.tuple) {
			return diverged()
		}
		return nil
	}
	for _, o := range []outcome{seq, par} {
		if err := valid(o.tuple); err != nil {
			return fmt.Errorf("returned %v: %w", o.tuple, err)
		}
		// Not ==: a seed the search did not strictly beat keeps the seed
		// solver's own summation order.
		if c := cost(o.tuple); ulps(c, o.cost) > maxUlps {
			return fmt.Errorf("reported %v for %v, which costs %v", o.cost, o.tuple, c)
		}
	}
	if ulps(par.cost, seq.cost) > maxUlps {
		return diverged()
	}
	return nil
}

// chainCost prices a placement the way the searches accumulate it:
// ingress, then one chain edge per step (each with its migration leg
// when from is set), then egress.
func chainCost(d *model.PPDC, lambda float64, ingress, egress []float64, p []int, from model.Placement, mu float64) float64 {
	c := 0.0
	for j, s := range p {
		step := ingress[s]
		if j > 0 {
			step = lambda * d.APSP.Cost(p[j-1], s)
		}
		if from != nil {
			step = mu*d.APSP.Cost(from[j], s) + step
		}
		c += step
	}
	return c + egress[p[len(p)-1]]
}

// validStroll checks an n-stroll: S to T through at least N distinct
// intermediate vertices.
func validStroll(in stroll.Instance, walk []int) error {
	if len(walk) < 2 || walk[0] != in.S || walk[len(walk)-1] != in.T {
		return fmt.Errorf("walk does not run from %d to %d", in.S, in.T)
	}
	seen := map[int]bool{}
	for _, v := range walk[1 : len(walk)-1] {
		if v != in.S && v != in.T {
			seen[v] = true
		}
	}
	if len(seen) < in.N {
		return fmt.Errorf("walk visits %d distinct intermediates, want %d", len(seen), in.N)
	}
	return nil
}

func isInt(x float64) bool { return x == math.Trunc(x) }

func intRates(w model.Workload) bool {
	for _, f := range w {
		if !isInt(f.Rate) {
			return false
		}
	}
	return true
}

// ulps is the number of representable values between two positive
// finite floats.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}
