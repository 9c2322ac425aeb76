package traffic

import (
	"fmt"

	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/sim"
)

// TenantPrefix returns tenant i's stats namespace ("traffic.t0007").
func TenantPrefix(i int) string { return fmt.Sprintf("traffic.t%04d", i) }

// TenantLatStat returns the name of tenant i's latency histogram.
func TenantLatStat(i int) string { return TenantPrefix(i) + ".lat" }

// pendingOp is one arrived-but-not-yet-executed operation. Its parameters
// are drawn from the tenant's RNG at arrival time, so the random streams
// advance on the arrival schedule regardless of execution order.
type pendingOp struct {
	arrival sim.Cycles
	kind    OpKind
	off     uint64
	size    uint64
}

// tenant is one load-generating gemOS process plus its samplers and queue.
type tenant struct {
	id      int
	proc    *gemos.Process
	area    uint64 // base VA of the mmap'd working area
	areaLen uint64
	nvm     bool

	arrivals arrivalSampler
	keys     keySampler
	sizes    sizeSampler
	mix      mixPicker

	lat *sim.Histogram

	queue []pendingOp
	qhead int

	// nextArrival is armed (the tenant is on Engine.armed) while a future
	// arrival is scheduled: always in the open loop until the op budget is
	// issued; in the closed loop only between an op's completion and the
	// next issue.
	nextArrival sim.Cycles

	issued, done int
}

func (t *tenant) queued() int { return len(t.queue) - t.qhead }

func (t *tenant) push(op pendingOp) { t.queue = append(t.queue, op) }

func (t *tenant) pop() pendingOp {
	op := t.queue[t.qhead]
	t.qhead++
	if t.qhead == len(t.queue) {
		t.queue = t.queue[:0]
		t.qhead = 0
	}
	return op
}

// arrivalHeap is a min-heap of armed tenants keyed by (nextArrival, id).
type arrivalHeap []*tenant

func (h arrivalHeap) less(i, j int) bool {
	if h[i].nextArrival != h[j].nextArrival {
		return h[i].nextArrival < h[j].nextArrival
	}
	return h[i].id < h[j].id
}

// push adds t, keyed by its current nextArrival.
func (h *arrivalHeap) push(t *tenant) {
	*h = append(*h, t)
	h.up(len(*h) - 1)
}

// popMin removes the earliest tenant.
func (h *arrivalHeap) popMin() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	h.down(0)
}

// up sifts slot i toward the root.
func (h arrivalHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down sifts slot i toward the leaves; after the root's key grows it
// restores the heap in place of a pop and push.
func (h arrivalHeap) down(i int) {
	for {
		least := 2*i + 1
		if least >= len(h) {
			return
		}
		if r := least + 1; r < len(h) && h.less(r, least) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Engine drives a fleet of tenants through the kernel's scheduler. Build
// with New, run with Run; one Engine per run.
type Engine struct {
	k    *gemos.Kernel
	m    *machine.Machine
	spec Spec

	sched   *gemos.Scheduler
	tenants []*tenant
	byPID   []*tenant   // indexed by PID; nil for non-tenant processes
	armed   arrivalHeap // tenants with a scheduled arrival

	aggLat  *sim.Histogram
	kindLat [numOpKinds]*sim.Histogram

	done, total int

	// OnOp, when non-nil, is called after every completed operation with
	// the running completion count (progress reporting).
	OnOp func(done, total int)
}

// New validates spec, spawns the tenant processes (each with a demand-paged
// working area, NVM-backed per Spec.NVMFraction), registers their latency
// histograms and enrolls them with a fresh round-robin scheduler. Tenants
// start blocked; arrivals unblock them.
func New(k *gemos.Kernel, spec Spec) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		k:     k,
		m:     k.M,
		spec:  spec,
		sched: gemos.NewScheduler(k, sim.FromDuration(spec.Quantum)),
	}
	e.aggLat = e.m.Stats.Hist("traffic.lat")
	for kind := OpPoint; kind < numOpKinds; kind++ {
		e.kindLat[kind] = e.m.Stats.Hist("traffic.lat." + kind.String())
	}
	// Every tenant draws Zipfian keys over the same (keys, theta), so the
	// engine builds the table once and each tenant samples through a copy
	// bound to its own RNG.
	var zipf *sim.Zipf
	if spec.Keys == KeysZipf {
		zipf = sim.NewZipf(nil, keyCount(spec), spec.Theta)
	}
	for i := 0; i < spec.Tenants; i++ {
		p, err := k.Spawn(fmt.Sprintf("tenant-%04d", i))
		if err != nil {
			return nil, fmt.Errorf("traffic: spawn tenant %d: %w", i, err)
		}
		var flags uint32
		nvm := nvmTenant(i, spec.NVMFraction)
		if nvm {
			flags = gemos.MapNVM
		}
		area, err := k.Mmap(p, 0, spec.Footprint, gemos.ProtRead|gemos.ProtWrite, flags)
		if err != nil {
			return nil, fmt.Errorf("traffic: map tenant %d area: %w", i, err)
		}
		rng := sim.NewRNG(deriveSeed(spec.Seed, i))
		t := &tenant{
			id:       i,
			proc:     p,
			area:     area,
			areaLen:  spec.Footprint,
			nvm:      nvm,
			arrivals: newArrivalSampler(spec, rng),
			keys:     newKeySampler(spec, zipf, rng),
			sizes:    newSizeSampler(spec, rng),
			mix:      newMixPicker(spec.Mix, rng),
			lat:      e.m.Stats.Hist(TenantLatStat(i)),
		}
		p.State = gemos.ProcBlocked
		e.sched.Add(p)
		e.tenants = append(e.tenants, t)
		for len(e.byPID) <= p.PID {
			e.byPID = append(e.byPID, nil)
		}
		e.byPID[p.PID] = t
	}
	return e, nil
}

// Run executes the workload to completion: spec.Ops operations per tenant,
// scheduled round-robin with quantum preemption at op boundaries, idling
// (event-aware) between arrivals. It returns the run summary; the same
// numbers are published into the machine's stats registry under traffic.*.
func (e *Engine) Run() (*Result, error) {
	e.total = e.spec.Tenants * e.spec.Ops
	idleTick := sim.FromDuration(e.spec.IdleTick)
	e.sched.Start()
	defer e.sched.Stop()
	now := e.m.Clock.Now()
	for _, t := range e.tenants {
		if e.spec.Ops > 0 {
			t.nextArrival = now + t.arrivals.next()
			e.armed.push(t)
		}
	}
	for e.done < e.total {
		e.admit()
		var t *tenant
		if p := e.k.Current(); p != nil {
			t = e.tenantOf(p)
		}
		if t == nil || t.queued() == 0 || e.sched.NeedsResched() {
			p := e.sched.Resched()
			if p == nil {
				// Every tenant is blocked: park until the earliest
				// scheduled arrival, firing timer events along the way.
				if len(e.armed) == 0 {
					return nil, fmt.Errorf("traffic: engine stalled with %d/%d ops done", e.done, e.total)
				}
				if target, now := e.armed[0].nextArrival, e.m.Clock.Now(); target > now {
					e.k.Park(target-now, idleTick)
				}
				continue
			}
			t = e.tenantOf(p)
		}
		if err := e.exec(t, t.pop()); err != nil {
			return nil, err
		}
	}
	return e.finalize(), nil
}

// tenantOf returns p's tenant, or nil when p is not one.
func (e *Engine) tenantOf(p *gemos.Process) *tenant {
	if p.PID < len(e.byPID) {
		return e.byPID[p.PID]
	}
	return nil
}

// admit materializes every arrival due by now, earliest first. Each
// tenant draws from its own RNG and queues into its own queue, so the
// order across tenants is invisible to the simulation. Open-loop tenants
// immediately re-arm their next arrival, so a backlogged tenant keeps
// queueing work (the open-loop tail-latency regime).
func (e *Engine) admit() {
	now := e.m.Clock.Now()
	for len(e.armed) > 0 && e.armed[0].nextArrival <= now {
		t := e.armed[0]
		at := t.nextArrival
		t.push(pendingOp{arrival: at, kind: t.mix.next(), off: t.keys.next(), size: t.sizes.next()})
		t.issued++
		if t.issued < e.spec.Ops && e.spec.Loop == LoopOpen {
			t.nextArrival = at + t.arrivals.next()
			e.armed.down(0)
		} else {
			// Budget issued, or closed loop: re-armed at completion.
			e.armed.popMin()
		}
		e.sched.Wake(t.proc)
	}
}

// exec runs one operation on the core as tenant t, records its latency
// (completion minus arrival, so queueing delay under contention counts)
// and fires due machine events.
func (e *Engine) exec(t *tenant, op pendingOp) error {
	core := e.m.Core
	var err error
	switch op.kind {
	case OpWrite:
		_, err = core.Access(t.area+op.off, true, 8)
	case OpScan:
		size := op.size
		if size > t.areaLen {
			size = t.areaLen
		}
		if size < 1 {
			size = 1
		}
		if first := t.areaLen - op.off; first >= size {
			_, err = core.Access(t.area+op.off, false, int(size))
		} else {
			// The scan wraps at the end of the area.
			if _, err = core.Access(t.area+op.off, false, int(first)); err == nil {
				_, err = core.Access(t.area, false, int(size-first))
			}
		}
	default: // OpPoint
		_, err = core.Access(t.area+op.off, false, 8)
	}
	if err != nil {
		return fmt.Errorf("traffic: tenant %s %s at +%#x: %w", t.proc.Name, op.kind, op.off, err)
	}
	lat := uint64(e.m.Clock.Now() - op.arrival)
	t.lat.Observe(lat)
	e.kindLat[op.kind].Observe(lat)
	e.aggLat.Observe(lat)
	t.done++
	e.done++
	if e.spec.Loop == LoopClosed && t.issued < e.spec.Ops {
		// A closed-loop tenant left the heap when this op arrived, so it
		// is pushed back exactly once.
		t.nextArrival = e.m.Clock.Now() + t.arrivals.next()
		e.armed.push(t)
	}
	if t.queued() == 0 {
		t.proc.State = gemos.ProcBlocked
	}
	e.k.Tick()
	if e.OnOp != nil {
		e.OnOp(e.done, e.total)
	}
	return nil
}

// Result summarizes a traffic run. Every field is also published as a
// traffic.* stat, so stats dumps carry the whole summary.
type Result struct {
	Spec Spec
	// Ops is the total operations completed across tenants.
	Ops uint64
	// P50/P95/P99 are log2-bucket upper bounds on the aggregate latency
	// quantiles, in cycles.
	P50, P95, P99 uint64
	// MeanLat is the aggregate mean operation latency in cycles.
	MeanLat float64
	// Jain is Jain's fairness index over per-tenant mean latencies:
	// 1.0 when every tenant sees the same mean, approaching 1/n under
	// maximal skew.
	Jain    float64
	Tenants []TenantResult
}

// TenantResult is one tenant's slice of the run.
type TenantResult struct {
	ID      int
	Name    string
	PID     int
	NVM     bool
	Ops     uint64
	MeanLat float64
	P99     uint64
	Acct    gemos.Acct
}

// finalize settles CPU accounting and publishes the deterministic summary
// (fixed names, tenant-index order) into the stats registry.
func (e *Engine) finalize() *Result {
	e.k.AccountNow()
	st := e.m.Stats
	res := &Result{
		Spec:    e.spec,
		Ops:     uint64(e.done),
		P50:     e.aggLat.Quantile(0.50),
		P95:     e.aggLat.Quantile(0.95),
		P99:     e.aggLat.Quantile(0.99),
		MeanLat: e.aggLat.Mean(),
	}
	var sum, sumsq float64
	sampled := 0
	for _, t := range e.tenants {
		if t.lat.Count() == 0 {
			continue
		}
		m := t.lat.Mean()
		sum += m
		sumsq += m * m
		sampled++
	}
	if sampled > 0 && sumsq > 0 {
		res.Jain = sum * sum / (float64(sampled) * sumsq)
	}
	st.Set("traffic.tenants", uint64(len(e.tenants)))
	st.Set("traffic.ops", res.Ops)
	st.Set("traffic.lat_p50", res.P50)
	st.Set("traffic.lat_p95", res.P95)
	st.Set("traffic.lat_p99", res.P99)
	st.Set("traffic.fairness_jain_x1e6", uint64(res.Jain*1e6+0.5))
	for _, t := range e.tenants {
		acct := t.proc.Accounting()
		pfx := TenantPrefix(t.id)
		st.Set(pfx+".ops", uint64(t.done))
		st.Set(pfx+".faults", acct.Faults)
		st.Set(pfx+".resident_pages", acct.ResidentPages)
		st.Set(pfx+".cpu_cycles", uint64(acct.CPUCycles))
		st.Set(pfx+".switches", acct.Switches)
		st.Set(pfx+".migrations", acct.Migrations)
		res.Tenants = append(res.Tenants, TenantResult{
			ID:      t.id,
			Name:    t.proc.Name,
			PID:     t.proc.PID,
			NVM:     t.nvm,
			Ops:     uint64(t.done),
			MeanLat: t.lat.Mean(),
			P99:     t.lat.Quantile(0.99),
			Acct:    acct,
		})
	}
	return res
}
