package sfcroute

import (
	"encoding/json"
	"math/rand"
	"testing"

	"vnfopt/internal/benchmeta"
	"vnfopt/internal/model"
	"vnfopt/internal/topology"
)

// benchSites picks a 3-stage chain over spread-out core switches.
func benchSites(d *model.PPDC) [][]int {
	sw := d.Switches()
	return [][]int{{sw[0]}, {sw[len(sw)/2]}, {sw[len(sw)-1]}}
}

// BenchmarkAdmitSaturated measures admission in a fabric provisioned so
// tightly that pruning and rejection paths are exercised: capacity admits
// only a handful of flows per epoch, so the steady state mixes commits,
// reroutes, and max-flow-classified rejections.
func BenchmarkAdmitSaturated(b *testing.B) {
	d := model.MustNew(topology.MustFatTree(8, nil), model.Options{})
	r, err := NewRouter(d, Config{Capacity: 40, Alpha: 1, Classify: true})
	if err != nil {
		b.Fatal(err)
	}
	sites := benchSites(d)
	if err := r.BeginEpoch(sites); err != nil {
		b.Fatal(err)
	}
	hosts := d.Hosts()
	admitted, rejected := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 63 {
			if err := r.BeginEpoch(sites); err != nil {
				b.Fatal(err)
			}
		}
		src := hosts[i%len(hosts)]
		dst := hosts[(i*13+5)%len(hosts)]
		dec, err := r.Admit(src, dst, 10)
		if err != nil {
			b.Fatal(err)
		}
		if dec.Admitted {
			admitted++
		} else {
			rejected++
		}
	}
	b.StopTimer()
	if b.N > 100 && (admitted == 0 || rejected == 0) {
		b.Fatalf("saturated scenario not saturated: %d admitted, %d rejected", admitted, rejected)
	}
}

// BenchmarkRoutePass times one whole route pass — BeginEpoch plus the
// admission of 1 000 flows leaving all 128 hosts of a k=8 fat-tree — as
// the engine runs it (AdmitAll) and as the bench's side router does (one
// Admit per flow). Both share the epoch's searches: loose capacity never
// prunes, so a pass runs 3 — p_1's and p_3's trees and the hop p_2 →
// p_3; saturated capacity prunes most flows, each attempt searching its
// own n+1 legs.
func BenchmarkRoutePass(b *testing.B) {
	d := model.MustNew(topology.MustFatTree(8, nil), model.Options{})
	hosts := d.Hosts()
	sites := benchSites(d)
	rng := rand.New(rand.NewSource(1))
	demands := passDemands(rng, hosts, 1000, len(hosts))
	for i := range demands {
		demands[i].Rate = 1 + 9*rng.Float64()
	}
	// The environment block results/BENCH_sfcroute.json is recorded with.
	host, _ := json.Marshal(benchmeta.Collect())
	b.Logf("host %s", host)
	for _, regime := range []struct {
		name     string
		capacity float64
	}{{"loose", 1e9}, {"saturated", 400}} {
		for _, mode := range []struct {
			name  string
			admit func(*Router) error
		}{
			{"AdmitAll", func(r *Router) error { _, err := r.AdmitAll(nil, demands); return err }},
			{"Admit", func(r *Router) error { admitEach(b, r, demands); return nil }},
		} {
			b.Run(regime.name+"/"+mode.name, func(b *testing.B) {
				r, err := NewRouter(d, Config{Capacity: regime.capacity, Alpha: 0.5})
				if err != nil {
					b.Fatal(err)
				}
				searches, settled := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := r.BeginEpoch(sites); err != nil {
						b.Fatal(err)
					}
					if err := mode.admit(r); err != nil {
						b.Fatal(err)
					}
					searches += r.Searches()
					settled += r.Settled()
				}
				b.ReportMetric(float64(searches)/float64(b.N), "searches/op")
				b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			})
		}
	}
}
