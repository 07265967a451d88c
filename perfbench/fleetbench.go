package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/calibrate"
	"repro/internal/db2sim"
	"repro/internal/dbms"
	"repro/internal/obs"
	"repro/internal/pgsim"
	"repro/internal/vmsim"

	vdesign "repro"
)

// Fleet shape shared by fleet-steady and fleet-churn.
const (
	fleetServers   = 96
	tenantsPerSrv  = 8
	cellSize       = 4
	migrationCost  = 5
	rebalanceMoves = 2
	// settleLimit bounds the unchanged periods run after the build.
	settleLimit = 40
	// settleRepeats is how many periods in a row must recompute the same
	// cells for the fleet to count as settled.
	settleRepeats = 3
	// costPeriods is how many timed periods est_cost_s and
	// measured_cost_s cover: a fixed count, so both repeat exactly for
	// a seed however fast the machine is.
	costPeriods = 16
	// setupReps is how many times a run sets up the system; setup_s is
	// the median over them.
	setupReps = 9
	// buildReps is how many of a fleet run's set-ups (the last ones) it
	// builds; build_s is the median over them. A build costs about 30
	// set-ups.
	buildReps = 2
	// restores is how many times fleet-steady restores its snapshot.
	restores = 3
)

// profileOf gives server i its hardware: every third server is the
// older generation.
func profileOf(i int) vdesign.MachineProfile {
	if i%3 == 2 {
		return oldGen
	}
	return vdesign.MachineProfile{}
}

// machineOf builds the benchmark's own simulated machine for a profile,
// for measuring deployed shares apart from the fleet.
func machineOf(p vdesign.MachineProfile) *vmsim.Machine {
	hw := vmsim.DefaultHardware()
	if p.CPUHz > 0 {
		hw.CPUHz = p.CPUHz
	}
	if p.MemoryBytes > 0 {
		hw.MemoryBytes = p.MemoryBytes
	}
	return vmsim.New(hw, 2.0)
}

// calibrateAll runs the §4.3 calibrations a fresh process pays for on
// the two profiles, bypassing the process-wide cache so every set-up
// does the same work.
func calibrateAll() error {
	for _, p := range []vdesign.MachineProfile{{}, oldGen} {
		m := machineOf(p)
		if _, err := calibrate.CalibratePG(m, calibrate.Options{}); err != nil {
			return err
		}
		if _, err := calibrate.CalibrateDB2(m, calibrate.Options{}); err != nil {
			return err
		}
	}
	return nil
}

// member is a live fleet tenant as the benchmark tracks it.
type member struct {
	spec *tenantSpec
	h    *vdesign.FleetTenant
}

// fleetRun is one fleet under test, with the benchmark's view of its
// tenants and, when traced, the trace sink's latest span tree.
type fleetRun struct {
	f    *vdesign.Fleet
	sch  schemas
	gen  *generator
	live []*member
	reg  *obs.Registry
	span *obs.Span
}

func fleetOptions(churn bool) *vdesign.FleetOptions {
	o := &vdesign.FleetOptions{
		MigrationCost: migrationCost,
		Parallelism:   1,
		Cells:         cellSize,
	}
	if churn {
		o.RebalanceBudget = rebalanceMoves
	}
	return o
}

// setupTimes is the split of one set-up: its CPU time, and the wall
// time of its calibration and SQL parse.
type setupTimes struct {
	cpu, calibrate, parse time.Duration
}

// newFleetRun calibrates, builds the schemas and registers every server
// and the population's tenants: the work before the first Period.
func newFleetRun(pop []*tenantSpec, gen *generator, churn, traced bool) (*fleetRun, setupTimes, error) {
	var st setupTimes
	c := startClock()
	if err := calibrateAll(); err != nil {
		return nil, st, err
	}
	st.calibrate, _ = c.since()
	r := &fleetRun{sch: newSchemas(), gen: gen}
	opts := fleetOptions(churn)
	if traced {
		r.reg = obs.NewRegistry()
		opts.Metrics = r.reg
		opts.TraceSink = func(s *obs.Span) { r.span = s }
	}
	r.f = vdesign.NewFleet(opts)
	for i := 0; i < fleetServers; i++ {
		if _, err := r.f.AddServer(profileOf(i)); err != nil {
			return nil, st, err
		}
	}
	for _, spec := range pop {
		if err := r.add(spec, &st.parse); err != nil {
			return nil, st, err
		}
	}
	_, st.cpu = c.since()
	return r, st, nil
}

func (r *fleetRun) add(s *tenantSpec, parse *time.Duration) error {
	h, err := r.f.AddTenantWorkload(s.id, s.flavor(), r.sch.of(s), s.workload(parse))
	if err != nil {
		return err
	}
	r.f.SetQoS(h, s.qos)
	r.live = append(r.live, &member{spec: s, h: h})
	return nil
}

// period runs one Period and returns its wall-clock and CPU time.
func (r *fleetRun) period() (rep *vdesign.FleetPeriodReport, wall, cpu time.Duration, err error) {
	c := startClock()
	rep, err = r.f.Period()
	wall, cpu = c.since()
	return rep, wall, cpu, err
}

// view reads a report back through the public API.
func (r *fleetRun) view(rep *vdesign.FleetPeriodReport, gone []*member) *periodView {
	v := &periodView{
		period:     rep.Period(),
		servers:    r.f.Servers(),
		cells:      r.f.Cells(),
		dirty:      rep.DirtyCells(),
		replayed:   rep.ReplayedCells(),
		arrivals:   rep.Arrivals(),
		departures: rep.Departures(),
		migrations: rep.Migrations(),
		rebalanced: rep.RebalanceMoves(),
		total:      rep.TotalCost(),
		cellOf:     make([]int, r.f.Servers()),
		live:       make(map[string]placed, len(r.live)),
		gone:       make(map[string]placed, len(gone)),
	}
	for i := range v.cellOf {
		v.cellOf[i] = r.f.CellOf(i)
	}
	read := func(m *member) placed {
		cpu, mem := rep.Shares(m.h)
		return placed{server: rep.ServerOf(m.h), cpu: cpu, mem: mem}
	}
	for _, m := range r.live {
		v.live[m.spec.id] = read(m)
	}
	for _, m := range gone {
		v.gone[m.spec.id] = read(m)
	}
	return v
}

// digest fingerprints everything a period reports, bit for bit, so the
// traced replay can be compared with the untraced run.
func digest(v *periodView) uint64 {
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(v.period))
	put(math.Float64bits(v.total))
	put(uint64(v.replayed))
	put(uint64(v.migrations))
	put(uint64(v.rebalanced))
	for _, c := range v.dirty {
		put(uint64(c))
	}
	for _, id := range sortedKeys(v.live) {
		p := v.live[id]
		h.Write([]byte(id))
		put(uint64(p.server))
		put(math.Float64bits(p.cpu))
		put(math.Float64bits(p.mem))
	}
	return h.Sum64()
}

// churnEdits makes one fleet-churn period's edits: a statement-mix
// drift on a TPC-H tenant (a major §6.1 change), a frequency drift on a
// TPC-C tenant (a minor change), one departure and one arrival. It
// returns the departed member.
func (r *fleetRun) churnEdits(rng *rand.Rand) (*member, error) {
	var parse time.Duration
	pick := func(want func(*tenantSpec) bool) *member {
		for {
			if m := r.live[rng.Intn(len(r.live))]; want(m.spec) {
				return m
			}
		}
	}
	m := pick(func(s *tenantSpec) bool { return s.kind != tpccDB2 })
	m.spec.queries = r.gen.querySet()
	if err := r.f.SetWorkload(m.h, m.spec.workload(&parse)); err != nil {
		return nil, err
	}
	m = pick(func(s *tenantSpec) bool { return s.kind == tpccDB2 })
	if rng.Intn(2) == 0 {
		m.spec.freq *= 1.25
	} else {
		m.spec.freq *= 0.8
	}
	if err := r.f.SetWorkload(m.h, m.spec.workload(&parse)); err != nil {
		return nil, err
	}
	i := rng.Intn(len(r.live))
	gone := r.live[i]
	r.live = append(r.live[:i], r.live[i+1:]...)
	r.f.RemoveTenant(gone.h)
	s, err := r.gen.tenant("a")
	if err != nil {
		return nil, err
	}
	return gone, r.add(s, &parse)
}

// measuredCost is Σ gain × measured seconds of every live tenant at its
// deployed server and shares, measured on the benchmark's own machines
// and simulated systems.
func (r *fleetRun) measuredCost(rep *vdesign.FleetPeriodReport, machines map[vdesign.MachineProfile]*vmsim.Machine) (float64, error) {
	var total float64
	for _, m := range r.live {
		cpu, mem := rep.Shares(m.h)
		mach := machines[profileOf(rep.ServerOf(m.h))]
		sec, err := measureOn(mach, m.spec, r.sch, cpu, mem)
		if err != nil {
			return 0, err
		}
		total += gainOf(m.spec.qos) * sec
	}
	return total, nil
}

// measureOn runs a tenant's workload on a fresh simulated system in a
// VM with the given shares, the way the fleet's managers measure.
func measureOn(m *vmsim.Machine, s *tenantSpec, sch schemas, cpu, mem float64) (float64, error) {
	var parse time.Duration
	var sys dbms.System
	if s.flavor() == vdesign.PostgreSQL {
		sys = pgsim.New(sch.of(s))
	} else {
		sys = db2sim.New(sch.of(s))
	}
	return m.RunWorkload(sys, s.workload(&parse), dbms.Alloc{CPU: cpu, Mem: mem}.Clamp(0.01))
}

func gainOf(q vdesign.QoS) float64 {
	if q.GainFactor >= 1 {
		return q.GainFactor
	}
	return 1
}

// fleetPass is everything one pass over a fleet workload observed.
type fleetPass struct {
	tally
	setup          []setupTimes
	builds         []time.Duration // build CPU times
	timed          []time.Duration // timed Period wall times
	timedCPU       []time.Duration // and their CPU times
	tenantPeriods  float64         // Σ live tenants over timed periods
	digests        []uint64        // every period after the build
	estCost        float64
	measuredCost   float64
	heapMB         float64
	mem0, mem1     runtime.MemStats // around the timed phase
	snapshotMB     float64
	restore        []time.Duration
	resume         []time.Duration
	layers         *layerTotals
	settlePeriods  int
	cachesAtTheEnd [2]int
	// unsettled counts the timed fleet-steady periods that fail the
	// strict steady check (see unsettled).
	unsettled int
	// dirtyCells sums the timed periods' dirty cells.
	dirtyCells int
}

// layerTotals accumulates the traced pass's per-period figures over the
// timed phase.
type layerTotals struct {
	spans    *spanTimes
	inputs   time.Duration
	dirty    int
	replayed int
	migr     int
	rebal    int
	ctr      counters
}

// tailPct is the percentile call_tail_ms reports: fleet-steady runs
// hundreds of cheap periods, fleet-churn about a hundred dear ones.
func tailPct(churn bool) float64 {
	if churn {
		return 90
	}
	return 95
}

// minTimedPeriods is the fewest timed periods a run makes: enough for
// the cost figures and for ten samples beyond the tail percentile.
func minTimedPeriods(churn bool) int {
	return max(costPeriods, samplesFor(tailPct(churn)))
}

// runFleet runs fleet-steady (churn false) or fleet-churn once. With
// periods ≤ 0 the timed phase runs for the given duration (and at least
// minTimedPeriods periods); otherwise it runs exactly that many
// periods, as the traced replay does.
func runFleet(seed int64, churn, traced bool, dur time.Duration, periods int) *fleetPass {
	p := &fleetPass{}
	// The inputs are dealt once per pass, outside the timed set-ups. On
	// fleet-steady the seed sets only the first server's TPC-C
	// parameters: how many managers never converge follows the draw (see
	// README), and a whole-fleet draw moved the steady period by a fifth
	// between seeds.
	fit := newFitter()
	n := fleetServers * tenantsPerSrv
	seeded := n
	if !churn {
		seeded = tenantsPerSrv
	}
	pop, err := population(n, seeded, seed, churn, fit, fleetQueries)
	if err != nil {
		p.fail("deal inputs: %v", err)
		return p
	}
	var r *fleetRun
	var buildDigest uint64
	for rep := 0; rep < setupReps; rep++ {
		r = nil // let the previous fleet go before the next set-up
		runtime.GC()
		run, st, err := newFleetRun(pop, newGenerator(seed, fit, fleetQueries), churn, traced)
		if !p.op(err, "set-up") {
			return p
		}
		r = run
		p.setup = append(p.setup, st)
		if rep < setupReps-buildReps {
			continue
		}
		b, _, cpu, err := r.period()
		if !p.op(err, "build period") {
			return p
		}
		p.builds = append(p.builds, cpu)
		v := r.view(b, nil)
		if err := checkPeriod(v, edits{arrivals: len(r.live)}); err != nil {
			p.fail("build: %v", err)
		}
		if dg := digest(v); len(p.builds) == 1 {
			buildDigest = dg
		} else if dg != buildDigest {
			p.fail("build %d differs from the first build", len(p.builds))
		}
	}
	p.digests = append(p.digests, buildDigest)

	// Settle: run unchanged periods until no cell recomputes, or the
	// set of recomputing cells has stopped changing (cells whose
	// managers never converge recompute every period; see the README).
	var prev *periodView
	same := 0
	for p.settlePeriods < settleLimit && same < settleRepeats {
		rep, _, _, err := r.period()
		if !p.op(err, "settle period") {
			return p
		}
		v := r.view(rep, nil)
		if err := checkPeriod(v, edits{}); err != nil {
			p.fail("settle: %v", err)
		}
		if prev != nil && slices.Equal(prev.dirty, v.dirty) {
			same++
		} else {
			same = 0
		}
		if len(v.dirty) == 0 {
			same = settleRepeats
		}
		prev = v
		p.digests = append(p.digests, digest(v))
		p.settlePeriods++
	}

	var rng *rand.Rand
	if churn {
		rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	}
	machines := map[vdesign.MachineProfile]*vmsim.Machine{{}: machineOf(vdesign.MachineProfile{}), oldGen: machineOf(oldGen)}
	var base counters
	if traced {
		p.layers = &layerTotals{spans: newSpanTimes()}
		base = readCounters(r.reg)
	}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	deadline := time.Now().Add(dur)
	for n := 0; ; n++ {
		if periods > 0 && n == periods {
			break
		}
		if periods <= 0 && n >= minTimedPeriods(churn) && time.Now().After(deadline) {
			break
		}
		want := edits{}
		var gone []*member
		if churn {
			m, err := r.churnEdits(rng)
			if !p.op(err, "churn edit") {
				return p
			}
			gone = []*member{m}
			want = edits{arrivals: 1, departures: 1}
		}
		rep, d, cpu, err := r.period()
		if !p.op(err, "timed period") {
			return p
		}
		p.timed = append(p.timed, d)
		p.timedCPU = append(p.timedCPU, cpu)
		p.tenantPeriods += float64(len(r.live))
		v := r.view(rep, gone)
		if err := checkPeriod(v, want); err != nil {
			p.fail("%v", err)
		}
		if err := checkReplayed(prev, v); err != nil {
			p.fail("%v", err)
		}
		if !churn && unsettled(prev, v) {
			p.unsettled++
		}
		p.dirtyCells += len(v.dirty)
		prev = v
		p.digests = append(p.digests, digest(v))
		if traced {
			lt := p.layers
			lt.spans.fold(fromSpan(r.span))
			lt.inputs += d - r.span.Duration()
			lt.dirty += len(v.dirty)
			lt.replayed += v.replayed
			lt.migr += v.migrations
			lt.rebal += v.rebalanced
		}
		if n < costPeriods {
			p.estCost += v.total / costPeriods
		}
		if n == costPeriods-1 && !traced {
			mc, err := r.measuredCost(rep, machines)
			if !p.op(err, "measure deployed shares") {
				return p
			}
			p.measuredCost = mc
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
		}
	}
	runtime.ReadMemStats(&p.mem1)
	if traced {
		p.layers.ctr = readCounters(r.reg).minus(base)
	}
	p.cachesAtTheEnd[0], p.cachesAtTheEnd[1] = r.f.CacheSizes()

	if !churn {
		p.snapshots(r, pop, traced)
	}
	return p
}

// snapshots snapshots the settled fleet, then restores it several times
// into freshly re-created fleets; each restored fleet's first period
// must equal the uninterrupted fleet's next one.
func (p *fleetPass) snapshots(r *fleetRun, pop []*tenantSpec, traced bool) {
	var buf bytes.Buffer
	if !p.op(r.f.Snapshot(&buf), "snapshot") {
		return
	}
	p.snapshotMB = float64(buf.Len()) / (1 << 20)
	snap := buf.Bytes()
	next, _, _, err := r.period()
	if !p.op(err, "uninterrupted period") {
		return
	}
	want := r.view(next, nil)
	p.digests = append(p.digests, digest(want))
	r = nil
	for i := 0; i < restores; i++ {
		runtime.GC()
		fresh, _, err := newFleetRun(pop, nil, false, traced)
		if !p.op(err, "re-create fleet") {
			return
		}
		start := time.Now()
		err = vdesign.RestoreFleet(bytes.NewReader(snap), fresh.f, nil)
		restored := time.Since(start)
		if !p.op(err, "restore") {
			return
		}
		rep, d, _, err := fresh.period()
		if !p.op(err, "resumed period") {
			return
		}
		p.restore = append(p.restore, restored)
		p.resume = append(p.resume, d)
		got := fresh.view(rep, nil)
		if err := checkPeriod(got, edits{}); err != nil {
			p.fail("restore %d: %v", i+1, err)
		}
		if got.period != want.period {
			p.fail("restore %d resumed at period %d, want %d", i+1, got.period, want.period)
		}
		if err := sameOutcome(want, got); err != nil {
			p.fail("restore %d: resumed period differs from the uninterrupted one: %v", i+1, err)
		}
	}
}
