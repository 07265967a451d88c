package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/db2sim"
	"repro/internal/dbms"
	"repro/internal/pgsim"
	"repro/internal/refine"
	"repro/internal/vmsim"
	"repro/internal/workload"

	vdesign "repro"
)

const (
	// adviseTenants is how many tenants each fresh server hosts.
	adviseTenants = 8
	// adviseSetupServers is how many servers one advise set-up registers.
	adviseSetupServers = 64
	// adviseCostServers is how many servers est_cost_s, measured_cost_s
	// and heap_mb cover: a fixed count, so all three repeat for a seed.
	adviseCostServers = 128
	// defaultDelta is the advisor's default greedy step, which is also
	// its share floor.
	defaultDelta = 0.05
	// refineIters is the iteration bound Server.Refined uses.
	refineIters = 8
	// adviseTailPct is the percentile call_tail_ms reports on advise.
	adviseTailPct = 90
)

// minAdvised is the fewest servers the timed phase advises: enough for
// ten Recommend samples beyond the tail percentile.
var minAdvised = samplesFor(adviseTailPct)

// adviseServer is one generated server: a profile and its tenants.
type adviseServer struct {
	profile vdesign.MachineProfile
	specs   []*tenantSpec
}

// adviseInputs deals the servers of one advise run, in order; every
// pass over the run (set-up, untraced, traced) draws the same sequence.
// The first adviseCostServers servers host the shuffled population, so
// the cost figures cover the same tenants for every seed; later servers
// get tenants dealt from the seed.
type adviseInputs struct {
	deck *adviseDeck
	n    int
}

// adviseDeck is every tenant dealt so far, shared by all passes.
type adviseDeck struct {
	specs []*tenantSpec
	gen   *generator
}

func newAdviseInputs(seed int64, fit *fitter) (*adviseInputs, error) {
	pop, err := population(adviseCostServers*adviseTenants, adviseCostServers*adviseTenants, seed, true, fit, paperQueries)
	return &adviseInputs{deck: &adviseDeck{specs: pop, gen: newGenerator(seed, fit, paperQueries)}}, err
}

// replay returns inputs that deal the same servers again from the first.
func (in *adviseInputs) replay() *adviseInputs {
	return &adviseInputs{deck: in.deck}
}

func (in *adviseInputs) next() (*adviseServer, error) {
	s := &adviseServer{profile: profileOf(in.n)}
	d := in.deck
	for i := 0; i < adviseTenants; i++ {
		k := in.n*adviseTenants + i
		if k == len(d.specs) {
			sp, err := d.gen.tenant("x")
			if err != nil {
				return nil, err
			}
			d.specs = append(d.specs, sp)
		}
		s.specs = append(s.specs, d.specs[k])
	}
	in.n++
	return s, nil
}

// registered is a server with its tenants registered through the
// public API.
type registered struct {
	srv     *vdesign.Server
	handles []*vdesign.TenantHandle
	work    []*workload.Workload
}

func register(s *adviseServer, sch schemas, parse *time.Duration) (*registered, error) {
	srv, err := vdesign.NewServerOn(machineOf(s.profile))
	if err != nil {
		return nil, err
	}
	r := &registered{srv: srv}
	for _, sp := range s.specs {
		w := sp.workload(parse)
		h, err := srv.AddTenantWorkload(sp.id, sp.flavor(), sch.of(sp), w)
		if err != nil {
			return nil, err
		}
		srv.SetQoS(h, sp.qos)
		r.handles = append(r.handles, h)
		r.work = append(r.work, w)
	}
	return r, nil
}

// ownEstimator builds the benchmark's own calibrated what-if estimator
// for a tenant on a machine: a fresh simulated system under the
// profile's shared calibration, wired the way the advisor wires its own.
func ownEstimator(sp *tenantSpec, sch schemas, w *workload.Workload, m *vmsim.Machine) (*core.WhatIfEstimator, error) {
	est := &core.WhatIfEstimator{Workload: w, MachineMemBytes: m.HW.MemoryBytes}
	if sp.flavor() == vdesign.PostgreSQL {
		cal, err := calibrate.PGFor(m, calibrate.Options{})
		if err != nil {
			return nil, err
		}
		est.Sys = pgsim.New(sch.of(sp))
		est.Params = func(a dbms.Alloc) any { return cal.Params(a) }
		est.Renorm = cal.Renorm()
	} else {
		cal, err := calibrate.DB2For(m, calibrate.Options{})
		if err != nil {
			return nil, err
		}
		est.Sys = db2sim.New(sch.of(sp))
		est.Params = func(a dbms.Alloc) any { return cal.Params(a) }
		est.Renorm = cal.Renorm()
	}
	return est, nil
}

// advisorOptions are the enumerator options Server.Recommend derives
// from the tenants' QoS with default Options.
func advisorOptions(specs []*tenantSpec) core.Options {
	o := core.Options{Resources: 2, Gains: make([]float64, len(specs)), Limits: make([]float64, len(specs))}
	for i, sp := range specs {
		o.Gains[i] = gainOf(sp.qos)
		o.Limits[i] = 1e308
		if sp.qos.DegradationLimit >= 1 {
			o.Limits[i] = sp.qos.DegradationLimit
		}
	}
	return o
}

// timedEstimator wraps an estimator to time each Estimate call; the
// first call of a fresh system plans every statement (cold), later ones
// reprice cached plans (warm).
type timedEstimator struct {
	est   core.Estimator
	calls int
	cold  time.Duration
	warm  []time.Duration
	total time.Duration
}

func (t *timedEstimator) Estimate(a core.Allocation) (float64, string, error) {
	start := time.Now()
	sec, sig, err := t.est.Estimate(a)
	d := time.Since(start)
	if t.calls == 0 {
		t.cold = d
	} else {
		t.warm = append(t.warm, d)
	}
	t.calls++
	t.total += d
	return sec, sig, err
}

// allocDigest fingerprints a set of allocations bit for bit.
func allocDigest(allocs [][2]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range allocs {
		for _, x := range a {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// advisePass is everything one pass over the advise workload observed.
type advisePass struct {
	tally
	setup        []setupTimes
	recommend    []time.Duration // CPU times
	refined      []time.Duration
	tenants      float64
	estCost      float64
	measuredCost float64
	heapMB       float64
	mem0, mem1   runtime.MemStats // around the traced phase
	recDigests   []uint64
	refDigests   []uint64
	layers       *adviseLayers
	// estimates counts the EstimatedSeconds checked; estMismatches those
	// not bit-equal to the benchmark's own estimate.
	estimates, estMismatches int
}

// adviseLayers is the traced pass's per-server figures.
type adviseLayers struct {
	search       []float64 // ms: Recommend minus its estimator calls
	calls        float64   // estimator calls, summed
	cold         []float64 // ms per fresh tenant's first estimate
	warmPG       []float64 // µs per warm PostgreSQL estimate
	warmDB2      []float64 // µs per warm DB2 estimate
	measureCalls float64
	measure      []float64 // ms per server
	refineSelf   []float64 // ms per server
}

// adviseSetup is the work before an advise run's first timed call:
// calibration, schemas, and registering a batch of fresh servers.
func adviseSetup(in *adviseInputs) (setupTimes, error) {
	var st setupTimes
	c := startClock()
	if err := calibrateAll(); err != nil {
		return st, err
	}
	st.calibrate, _ = c.since()
	sch := newSchemas()
	for i := 0; i < adviseSetupServers; i++ {
		s, err := in.next()
		if err != nil {
			return st, err
		}
		if _, err := register(s, sch, &st.parse); err != nil {
			return st, err
		}
	}
	_, st.cpu = c.since()
	return st, nil
}

// runAdvise runs the advise workload untraced. A cost phase first
// advises the cost servers, untimed, and reads est_cost_s,
// measured_cost_s and heap_mb; the timed phase then advises fresh
// servers from the first, each Recommend then Refined, until the
// duration is spent and at least minAdvised servers are done. The cost
// servers stay referenced until the heap is read, and a large live heap
// makes every collection dearer, so holding them during timed calls
// would tie the timed figures to how many calls fit in the run.
func runAdvise(in *adviseInputs, dur time.Duration) *advisePass {
	p := &advisePass{}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		st, err := adviseSetup(in.replay())
		if !p.op(err, "set-up") {
			return p
		}
		p.setup = append(p.setup, st)
	}
	sch := newSchemas()
	if !p.costPhase(in.replay(), sch) {
		return p
	}
	in = in.replay()
	runtime.GC()
	deadline := time.Now().Add(dur)
	for n := 0; n < minAdvised || time.Now().Before(deadline); n++ {
		a, ok := p.advise(in, sch)
		if !ok {
			return p
		}
		p.recommend = append(p.recommend, a.recCPU)
		p.refined = append(p.refined, a.refCPU)
		p.tenants += float64(len(a.s.specs))
		p.recDigests = append(p.recDigests, allocDigest(a.recShares))
		p.refDigests = append(p.refDigests, allocDigest(a.refShares))
	}
	return p
}

// costPhase advises the first adviseCostServers servers, untimed, and
// sets est_cost_s, measured_cost_s and heap_mb from them.
func (p *advisePass) costPhase(in *adviseInputs, sch schemas) bool {
	var kept []*advised
	for n := 0; n < adviseCostServers; n++ {
		a, ok := p.advise(in, sch)
		if !ok {
			return false
		}
		kept = append(kept, a)
		for i, h := range a.reg.handles {
			g := gainOf(a.s.specs[i].qos)
			p.estCost += g * a.rec.EstimatedSeconds(h)
			sec, err := a.reg.srv.MeasureSeconds(h, a.refShares[i][0], a.refShares[i][1])
			if !p.op(err, "MeasureSeconds") {
				return false
			}
			p.measuredCost += g * sec
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(kept)
	return true
}

// advised is one server through Recommend and Refined.
type advised struct {
	s                    *adviseServer
	reg                  *registered
	rec                  *vdesign.Recommendation
	recShares, refShares [][2]float64
	recCPU, refCPU       time.Duration
}

// advise deals the next server, registers it, and runs and checks
// Recommend and Refined, timing each call's CPU time.
func (p *advisePass) advise(in *adviseInputs, sch schemas) (*advised, bool) {
	s, err := in.next()
	if err != nil {
		p.fail("deal server %d: %v", in.n, err)
		return nil, false
	}
	var parse time.Duration
	reg, err := register(s, sch, &parse)
	if !p.op(err, "register server") {
		return nil, false
	}
	a := &advised{s: s, reg: reg}
	c := startClock()
	a.rec, err = reg.srv.Recommend(nil)
	_, a.recCPU = c.since()
	if !p.op(err, "Recommend") {
		return nil, false
	}
	a.recShares, err = p.checkRecommendation(s, reg, a.rec, sch)
	if err != nil {
		p.fail("%v", err)
	}
	c = startClock()
	ref, err := reg.srv.Refined(a.rec)
	_, a.refCPU = c.since()
	if !p.op(err, "Refined") {
		return nil, false
	}
	for _, h := range reg.handles {
		cpu, mem := ref.Shares(h)
		a.refShares = append(a.refShares, [2]float64{cpu, mem})
	}
	if err := checkAdvice(&adviceView{delta: defaultDelta, shares: a.refShares, limited: true}); err != nil {
		p.fail("refined: %v", err)
	}
	return a, true
}

// checkRecommendation checks one Recommend result against the
// benchmark's own what-if estimates and returns its shares.
func (p *advisePass) checkRecommendation(s *adviseServer, reg *registered, rec *vdesign.Recommendation, sch schemas) ([][2]float64, error) {
	v := &adviceView{delta: defaultDelta}
	for _, h := range reg.handles {
		cpu, mem := rec.Shares(h)
		v.shares = append(v.shares, [2]float64{cpu, mem})
		v.est = append(v.est, rec.EstimatedSeconds(h))
	}
	m := reg.srv.Machine()
	equal := core.Allocation{1 / float64(len(s.specs)), 1 / float64(len(s.specs))}
	for i, sp := range s.specs {
		v.gains = append(v.gains, gainOf(sp.qos))
		v.limited = v.limited || sp.qos.DegradationLimit >= 1
		own, err := ownEstimator(sp, sch, reg.work[i], m)
		if err != nil {
			return v.shares, err
		}
		at, _, err := own.Estimate(core.Allocation{v.shares[i][0], v.shares[i][1]})
		if err != nil {
			return v.shares, err
		}
		eq, _, err := own.Estimate(equal)
		if err != nil {
			return v.shares, err
		}
		v.own = append(v.own, at)
		v.equal = append(v.equal, eq)
	}
	p.estimates += len(v.est)
	p.estMismatches += estimateMismatches(v)
	return v.shares, checkAdvice(v)
}

// traceAdvise replays the first n servers of an advise run through the
// layer entry points Server.Recommend and Server.Refined call —
// core.Recommend over the benchmark's own timed what-if estimators, and
// refine.Run with a timed measurement — and returns the per-layer
// figures, the Recommend times and the allocation digests.
func traceAdvise(in *adviseInputs, n int) *advisePass {
	p := &advisePass{layers: &adviseLayers{}}
	sch := newSchemas()
	in = in.replay()
	lt := p.layers
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	for k := 0; k < n; k++ {
		s, err := in.next()
		if err != nil {
			p.fail("deal server %d: %v", k, err)
			return p
		}
		m := machineOf(s.profile)
		var parse time.Duration
		ests := make([]core.Estimator, len(s.specs))
		timed := make([]*timedEstimator, len(s.specs))
		systems := make([]dbms.System, len(s.specs))
		work := make([]*workload.Workload, len(s.specs))
		for i, sp := range s.specs {
			work[i] = sp.workload(&parse)
			own, err := ownEstimator(sp, sch, work[i], m)
			if !p.op(err, "estimator") {
				return p
			}
			systems[i] = own.Sys
			timed[i] = &timedEstimator{est: own}
			ests[i] = timed[i]
		}
		opts := advisorOptions(s.specs)
		c := startClock()
		res, err := core.Recommend(ests, opts)
		d, cpu := c.since()
		if !p.op(err, "core.Recommend") {
			return p
		}
		p.recommend = append(p.recommend, cpu)
		var inEst time.Duration
		for i, t := range timed {
			inEst += t.total
			lt.calls += float64(t.calls)
			lt.cold = append(lt.cold, ms(t.cold))
			for _, w := range t.warm {
				us := float64(w) / float64(time.Microsecond)
				if s.specs[i].flavor() == vdesign.PostgreSQL {
					lt.warmPG = append(lt.warmPG, us)
				} else {
					lt.warmDB2 = append(lt.warmDB2, us)
				}
			}
		}
		lt.search = append(lt.search, ms(d-inEst))
		p.recDigests = append(p.recDigests, allocDigest(pairs(res.Allocations)))

		var measured time.Duration
		calls := 0
		start := time.Now()
		out, err := refine.Run(res, refine.Config{
			Opts:     opts,
			MaxIters: refineIters,
			Measure: func(i int, a core.Allocation) (float64, error) {
				t0 := time.Now()
				sec, err := m.RunWorkload(systems[i], work[i], dbms.Alloc{CPU: a[0], Mem: a[1]}.Clamp(0.01))
				measured += time.Since(t0)
				calls++
				return sec, err
			},
		})
		d = time.Since(start)
		if !p.op(err, "refine.Run") {
			return p
		}
		lt.measureCalls += float64(calls)
		lt.measure = append(lt.measure, ms(measured))
		lt.refineSelf = append(lt.refineSelf, ms(d-measured))
		p.refDigests = append(p.refDigests, allocDigest(pairs(out.Allocations)))
	}
	runtime.ReadMemStats(&p.mem1)
	return p
}

func pairs(allocs []core.Allocation) [][2]float64 {
	out := make([][2]float64, len(allocs))
	for i, a := range allocs {
		out[i] = [2]float64{a[0], a[1]}
	}
	return out
}
