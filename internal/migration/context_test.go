package migration

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"vnfopt/internal/model"
	"vnfopt/internal/placement"
	"vnfopt/internal/topology"
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

// hardMigration mirrors the placement package's worst case for the
// bound: random-mesh weights spread over two orders of magnitude, unit
// switch capacity, a 9-VNF chain. The seeded search blows well past
// 1024 expansions (a 7-VNF chain closes in under 600).
func hardMigration(t *testing.T) (*model.PPDC, model.Workload, model.SFC, model.Placement) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	mean, half := 5.0, 4.9 // link delays uniform on [mean−half, mean+half]
	mesh, err := topology.RandomMesh(24, 12, 30, func() float64 { return mean - half + 2*half*rng.Float64() }, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustNew(mesh, model.Options{SwitchCapacity: 1})
	hosts := mesh.Hosts
	w := make(model.Workload, 12)
	for i := range w {
		w[i] = model.VMPair{
			Src:  hosts[rng.Intn(len(hosts))],
			Dst:  hosts[rng.Intn(len(hosts))],
			Rate: 1 + rng.Float64(),
		}
	}
	sfc := model.NewSFC(9)
	p, _, err := (placement.DP{}).Place(d, w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	return d, w, sfc, p
}

func TestMigrateContextPreCancelled(t *testing.T) {
	d, w, sfc, p := hardMigration(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _, proven, err := (Exhaustive{}).migrateProven(ctx, d.NewWorkloadCache(w).Problem(sfc), p, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled", err)
	}
	if proven || m != nil {
		t.Fatalf("pre-cancelled search returned m=%v proven=%v", m, proven)
	}
}

// TestMigrateContextMidSearch: cancellation mid-search returns the
// incumbent — at worst staying put, so always a valid placement — with
// proven=false and ctx.Err().
func TestMigrateContextMidSearch(t *testing.T) {
	d, w, sfc, p := hardMigration(t)
	stay := d.CommCost(w, p)
	cc := &countdownCtx{Context: context.Background(), after: 1}
	m, c, proven, err := (Exhaustive{Seed: MPareto{}}).migrateProven(cc, d.NewWorkloadCache(w).Problem(sfc), p, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled (%d polls)", err, cc.calls.Load())
	}
	if proven {
		t.Fatal("cancelled search claimed proven optimality")
	}
	if err := m.Validate(d, sfc); err != nil {
		t.Fatalf("cancelled incumbent invalid: %v", err)
	}
	if c > stay || math.IsInf(c, 0) {
		t.Fatalf("incumbent C_t %v worse than staying put (%v)", c, stay)
	}
}

func TestMigrateContextCompletesUncancelled(t *testing.T) {
	d, w, sfc, p := fig3(t)
	m1, c1, err := (Exhaustive{}).Migrate(d, w, sfc, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := d.NewProblem(w, sfc)
	if err != nil {
		t.Fatal(err)
	}
	m2, c2, err := Consult(context.Background(), Exhaustive{}, pr, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || !m1.Equal(m2) {
		t.Fatalf("context run diverged: %v/%v vs %v/%v", m1, c1, m2, c2)
	}
}

func TestMigrationSearchExpansionsAdvances(t *testing.T) {
	d, w, sfc, p := fig3(t)
	before := SearchExpansions()
	if _, _, err := (Exhaustive{}).Migrate(d, w, sfc, p, 1); err != nil {
		t.Fatal(err)
	}
	if got := SearchExpansions() - before; got <= 0 {
		t.Fatalf("expansion counter advanced by %d", got)
	}
}
