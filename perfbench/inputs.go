package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/catalog"
	"repro/internal/tpcc"
	"repro/internal/tpch"
	"repro/internal/vmsim"
	"repro/internal/workload"

	vdesign "repro"
)

// Tenants follow the paper's §7.6 TPC-C + TPC-H mix
// (internal/experiments mixTenants): a DSS tenant running 10–40 random
// TPC-H queries (scale factor 1, every fifth one 10), then an OLTP
// tenant running a TPC-C mix over 2–10 warehouses with 5–10 clients
// each, scaled to its DSS neighbour's duration at an even split, as
// §3's same-interval rule asks. The DSS flavour alternates between
// PostgreSQL and DB2 from one pair to the next; TPC-C runs on DB2.
type kind int

const (
	tpchPG  kind = iota // TPC-H statements on the PostgreSQL flavour
	tpchDB2             // TPC-H statements on the DB2 flavour
	tpccDB2             // a TPC-C transaction mix on the DB2 flavour
)

// kindCycle is the dealing order: two DSS/OLTP pairs, one per DSS
// flavour.
var kindCycle = [4]kind{tpchPG, tpccDB2, tpchDB2, tpccDB2}

// queryRange is how many TPC-H queries a DSS tenant runs, inclusive.
type queryRange struct{ min, max int }

// paperQueries is §7.6's range, which advise uses. The fleet workloads
// run a fifth of it, keeping its 1:4 spread: at the full range a
// 96-server fleet took 15 s to build and held 680 MB (see README.md).
var (
	paperQueries = queryRange{10, 40}
	fleetQueries = queryRange{2, 8}
)

// §7.6 ranges.
const (
	minWarehouses, maxWarehouses = 2, 10
	minClients, maxClients       = 5, 10
	// sf10Every is how often a DSS tenant runs on scale factor 10
	// rather than 1: the fifth of the five DSS tenants in §7.6.
	sf10Every = 5
)

// evenSplit is the share each tenant of a DSS/OLTP pair gets when the
// OLTP mix is scaled to its neighbour: half the machine, as §7.6
// scales at a 0.5 share.
const evenSplit = 0.5

// oldGen is the second hardware profile: half the CPU and memory of the
// standard machine.
var oldGen = vdesign.MachineProfile{CPUHz: 1.1e9, MemoryBytes: 4 << 30}

// tenantSpec is one generated tenant, before registration.
type tenantSpec struct {
	id      string
	kind    kind
	sf10    bool    // TPC-H on scale factor 10
	queries []int   // TPC-H query numbers, with repeats
	wh      int     // TPC-C warehouses accessed
	clients int     // TPC-C clients per warehouse
	mixSeed int64   // TPC-C parameter seed
	scale   float64 // TPC-C frequency scale fitting the DSS neighbour
	freq    float64 // TPC-C frequency drift (fleet-churn)
	qos     vdesign.QoS
	// dssSeconds is a DSS tenant's measured duration at the even split,
	// which its OLTP neighbour is scaled to.
	dssSeconds float64
}

func (s *tenantSpec) flavor() vdesign.Flavor {
	if s.kind == tpchPG {
		return vdesign.PostgreSQL
	}
	return vdesign.DB2
}

// schemas holds the schemas every tenant runs over. They are built once
// per set-up and shared by all tenants, as a deployment would.
type schemas struct {
	tpch1, tpch10, tpcc *catalog.Schema
}

func newSchemas() schemas {
	return schemas{tpch1: tpch.Schema(1), tpch10: tpch.Schema(10), tpcc: tpcc.Schema(maxWarehouses)}
}

func (sc schemas) of(s *tenantSpec) *catalog.Schema {
	switch {
	case s.kind == tpccDB2:
		return sc.tpcc
	case s.sf10:
		return sc.tpch10
	}
	return sc.tpch1
}

// workload builds (and parses) the tenant's current workload. The time
// spent is added to *parse: it is the sqlmini share of set-up.
func (s *tenantSpec) workload(parse *time.Duration) *workload.Workload {
	start := time.Now()
	var w *workload.Workload
	if s.kind == tpccDB2 {
		w = tpcc.Mix(s.wh, s.clients, s.mixSeed).Scale(s.scale * s.freq)
		w.Name = s.id
	} else {
		w = &workload.Workload{Name: s.id}
		for _, q := range s.queries {
			w.Statements = append(w.Statements, workload.MustStatement(tpch.QueryText(q)))
		}
	}
	*parse += time.Since(start)
	return w
}

// generator deals tenants from a seed, in DSS/OLTP pairs.
type generator struct {
	rng *rand.Rand
	// mixes draws TPC-C parameter seeds; population points it at the
	// run's seed while rng stays on the population seed.
	mixes *rand.Rand
	qos   []int
	n     int
	dss   int // DSS tenants dealt, for the scale-factor-10 rotation
	// last is the last DSS tenant dealt: the next OLTP tenant's
	// neighbour.
	last    *tenantSpec
	fit     *fitter
	queries queryRange
}

func newGenerator(seed int64, fit *fitter, queries queryRange) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{rng: rng, mixes: rng, fit: fit, queries: queries}
}

// fitter scales TPC-C mixes to their DSS neighbours, measuring both on
// the benchmark's own standard machine.
type fitter struct {
	m   *vmsim.Machine
	sch schemas
}

func newFitter() *fitter {
	return &fitter{m: machineOf(vdesign.MachineProfile{}), sch: newSchemas()}
}

func (f *fitter) seconds(s *tenantSpec) (float64, error) {
	return measureOn(f.m, s, f.sch, evenSplit, evenSplit)
}

// fitTo sets an OLTP tenant's frequency scale so that its mix takes as
// long as its DSS neighbour's queries at the even split.
func (f *fitter) fitTo(s, dss *tenantSpec) error {
	if dss.dssSeconds == 0 {
		sec, err := f.seconds(dss)
		if err != nil {
			return err
		}
		dss.dssSeconds = sec
	}
	s.scale = 1
	sec, err := f.seconds(s)
	if err != nil {
		return err
	}
	if sec > 0 {
		s.scale = dss.dssSeconds / sec
	}
	return nil
}

// querySet draws a DSS tenant's queries as §7.6 does: a count uniform
// over the range, each query uniform over the 22, repeats allowed.
func (g *generator) querySet() []int {
	qs := make([]int, g.queries.min+g.rng.Intn(g.queries.max-g.queries.min+1))
	for i := range qs {
		qs[i] = 1 + g.rng.Intn(tpch.QueryCount)
	}
	return qs
}

// QoS settings, from the values the paper's QoS experiments hold fixed:
// gain factor 4 (G10 in Fig. 20) and degradation limit 4.5 (the loosest
// L9 of Fig. 19). The deck puts a gain on two and a limit on one of
// every sixteen tenants; see README.md for why so few.
const (
	qosNone = iota
	qosGain
	qosLimit

	qosGainFactor = 4
	qosDegLimit   = 4.5
)

var qosDeck = []int{qosGain, qosGain, qosLimit,
	qosNone, qosNone, qosNone, qosNone, qosNone, qosNone, qosNone, qosNone, qosNone, qosNone, qosNone, qosNone, qosNone}

func (g *generator) drawQoS() int {
	if len(g.qos) == 0 {
		g.qos = append([]int(nil), qosDeck...)
		g.rng.Shuffle(len(g.qos), func(i, j int) { g.qos[i], g.qos[j] = g.qos[j], g.qos[i] })
	}
	v := g.qos[0]
	g.qos = g.qos[1:]
	return v
}

// tenant deals the next tenant of the cycle. An OLTP tenant is scaled
// to the DSS tenant dealt just before it.
func (g *generator) tenant(prefix string) (*tenantSpec, error) {
	k := kindCycle[g.n%len(kindCycle)]
	s := &tenantSpec{id: fmt.Sprintf("%s%d", prefix, g.n), kind: k, freq: 1}
	g.n++
	if k == tpccDB2 {
		s.wh = minWarehouses + g.rng.Intn(maxWarehouses-minWarehouses+1)
		s.clients = minClients + g.rng.Intn(maxClients-minClients+1)
		s.mixSeed = g.mixes.Int63()
		if err := g.fit.fitTo(s, g.last); err != nil {
			return nil, err
		}
	} else {
		g.dss++
		s.sf10 = g.dss%sf10Every == 0
		s.queries = g.querySet()
		g.last = s
	}
	switch g.drawQoS() {
	case qosGain:
		s.qos.GainFactor = qosGainFactor
	case qosLimit:
		s.qos.DegradationLimit = qosDegLimit
	}
	return s, nil
}

// populationSeed deals the tenant population every run starts from.
// The population is the same for every --seed. The seed sets the TPC-C
// transaction parameters (and so each OLTP tenant's fitted scale) and,
// when asked, shuffles the population (which tenants share a server,
// in which order they register); it also drives everything dealt
// afterwards. Figures from different seeds therefore describe the same
// tenants, parameterized, arranged and edited differently, and stay
// comparable.
const populationSeed = 20080609

// population deals n tenants from populationSeed. The first seeded of
// them draw their TPC-C parameters from seed, the rest from a stream
// fixed by populationSeed. With shuffle set, seed also shuffles them.
func population(n, seeded int, seed int64, shuffle bool, fit *fitter, queries queryRange) ([]*tenantSpec, error) {
	g := newGenerator(populationSeed, fit, queries)
	rng := rand.New(rand.NewSource(seed))
	fixed := rand.New(rand.NewSource(populationSeed + 1))
	specs := make([]*tenantSpec, n)
	for i := range specs {
		g.mixes = fixed
		if i < seeded {
			g.mixes = rng
		}
		s, err := g.tenant("t")
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	if shuffle {
		rng.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	}
	return specs, nil
}
