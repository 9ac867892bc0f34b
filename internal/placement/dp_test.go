package placement

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSortByCostMatchesSortSlice holds DP's keyed orders to the
// sort.Slice orders they replaced, index for index: the egress order over
// the identity, then the ingress order from the egress permutation. The
// vectors are tie-heavy — a handful of values, +Inf among them, and now
// and then a NaN — so the tie order, which picks among equal-cost
// placements, is what is compared.
func TestSortByCostMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	palette := []float64{0, 1, 2, 2.5, 3, math.Inf(1), math.NaN()}
	for trial := range 3000 {
		n := 1 + rng.Intn(400)
		values := palette[:2+rng.Intn(len(palette)-1)]
		draw := func() []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = values[rng.Intn(len(values))]
			}
			return v
		}
		eg, in := draw(), draw()

		egWant := make([]int, n)
		for i := range egWant {
			egWant[i] = i
		}
		sort.Slice(egWant, func(x, y int) bool { return eg[egWant[x]] < eg[egWant[y]] })
		inWant := append([]int(nil), egWant...)
		sort.Slice(inWant, func(x, y int) bool { return in[inWant[x]] < in[inWant[y]] })

		egGot := make([]byCost, n)
		for i := range egGot {
			egGot[i] = byCost{eg[i], int32(i)}
		}
		sortByCost(egGot)
		inGot := make([]byCost, n)
		for j, e := range egGot {
			inGot[j] = byCost{in[e.i], e.i}
		}
		sortByCost(inGot)

		for j := range n {
			if int(egGot[j].i) != egWant[j] || int(inGot[j].i) != inWant[j] {
				t.Fatalf("trial %d (n=%d): position %d is egress %d / ingress %d, sort.Slice has %d / %d",
					trial, n, j, egGot[j].i, inGot[j].i, egWant[j], inWant[j])
			}
		}
	}
}
