package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func ids(specs []*tenantSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.id)
	}
	return out
}

func TestPopulationRepeatsForASeed(t *testing.T) {
	fit := newFitter()
	deal := func(seed int64, shuffle bool) []*tenantSpec {
		specs, err := population(32, 32, seed, shuffle, fit, fleetQueries)
		if err != nil {
			t.Fatal(err)
		}
		return specs
	}
	a, b := deal(7, true), deal(7, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed dealt different populations")
	}
	c := deal(8, true)
	if reflect.DeepEqual(ids(a), ids(c)) {
		t.Fatal("seeds 7 and 8 arranged the population identically")
	}
	// Every seed arranges the same tenants.
	ia, ic := ids(a), ids(c)
	sort.Strings(ia)
	sort.Strings(ic)
	if !reflect.DeepEqual(ia, ic) {
		t.Fatal("seeds 7 and 8 dealt different tenants")
	}
	// Without the shuffle only the TPC-C parameters follow the seed.
	d, e := deal(7, false), deal(8, false)
	if !reflect.DeepEqual(ids(d), ids(e)) {
		t.Fatal("unshuffled populations differ in order")
	}
	// Only the seeded tenants' TPC-C parameters follow the seed.
	f7, err := population(32, 8, 7, false, fit, fleetQueries)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := population(32, 8, 8, false, fit, fleetQueries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f7 {
		if (f7[i].mixSeed != f8[i].mixSeed) != (i < 8 && f7[i].kind == tpccDB2) {
			t.Fatalf("tenant %s of 8 seeded: mix seeds %d and %d", f7[i].id, f7[i].mixSeed, f8[i].mixSeed)
		}
	}
	for i := range d {
		if (d[i].mixSeed != e[i].mixSeed) != (d[i].kind == tpccDB2) {
			t.Fatalf("tenant %s: mix seeds %d and %d", d[i].id, d[i].mixSeed, e[i].mixSeed)
		}
		if d[i].kind != tpccDB2 && !reflect.DeepEqual(d[i].queries, e[i].queries) {
			t.Fatalf("tenant %s: queries differ between seeds", d[i].id)
		}
	}
}

// TestGeneratorFollowsThePaperMix checks the §7.6 rules: DSS/OLTP
// pairs, query counts, warehouse and client ranges, the scale-factor-10
// rotation, each OLTP mix fitted to its neighbour's duration, and the
// QoS deck.
func TestGeneratorFollowsThePaperMix(t *testing.T) {
	fit := newFitter()
	g := newGenerator(3, fit, paperQueries)
	kinds := map[kind]int{}
	qos := map[[2]float64]int{}
	var prev *tenantSpec
	dss := 0
	for i := 0; i < 32; i++ {
		s, err := g.tenant("t")
		if err != nil {
			t.Fatal(err)
		}
		kinds[s.kind]++
		qos[[2]float64{s.qos.GainFactor, s.qos.DegradationLimit}]++
		if s.kind == tpccDB2 {
			if prev == nil || prev.kind == tpccDB2 {
				t.Fatalf("tenant %s: OLTP tenant without a DSS neighbour", s.id)
			}
			if s.wh < 2 || s.wh > 10 || s.clients < 5 || s.clients > 10 {
				t.Errorf("tenant %s: %d warehouses, %d clients", s.id, s.wh, s.clients)
			}
			sec, err := fit.seconds(s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sec-prev.dssSeconds) > 1e-6*prev.dssSeconds {
				t.Errorf("tenant %s runs %v s at the even split, its neighbour %v s", s.id, sec, prev.dssSeconds)
			}
		} else {
			dss++
			if n := len(s.queries); n < 10 || n > 40 {
				t.Errorf("tenant %s runs %d queries", s.id, n)
			}
			if s.sf10 != (dss%5 == 0) {
				t.Errorf("DSS tenant %d: sf10 %v", dss, s.sf10)
			}
		}
		prev = s
	}
	if kinds[tpchPG] != 8 || kinds[tpchDB2] != 8 || kinds[tpccDB2] != 16 {
		t.Errorf("kinds %v", kinds)
	}
	if qos[[2]float64{4, 0}] != 4 || qos[[2]float64{0, 4.5}] != 2 {
		t.Errorf("QoS %v", qos)
	}
}
