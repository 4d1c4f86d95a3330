package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"nezha/internal/controller"
	"nezha/internal/fabric"
	"nezha/internal/monitor"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
)

// benchWorkload is one of the four named benchmark workloads. A rep
// builds a fresh world from the seed, runs the fixed-work measured
// region and checks its outputs; everything the program sees is
// generated from the seed, so a seed's simulated statistics repeat
// exactly.
type benchWorkload interface {
	name() string
	rep(rc repCtx) (*rep, error)
	// probeInputs describes the workload to the isolated layer probes:
	// its rule set, flow population and burst size.
	probeInputs() probeInputs
}

type repCtx struct {
	seed int64
	// size scales the fixed work; 1 is the benchmark, anything else is
	// for the smoke test and is not comparable.
	size float64
	// tr is the span recorder on the traced rep, nil otherwise.
	tr *tracer
	// telemetryOff builds the world without obs/prof/slo: the
	// reference rep of telemetry.overhead_share.
	telemetryOff bool
	// deep runs the checks that are too slow for every rep and whose
	// result cannot differ between reps of one seed (the monolithic
	// twin of offloaded_steady, the Hist-instrumented chaos pass).
	deep bool
}

// rep is what one repetition reports.
type rep struct {
	setupS     float64
	wallS      float64 // wall clock over the measured region
	simS       float64 // virtual seconds the region advanced
	pkts       uint64  // vSwitch packets (FromVM+FromNet) the region gained; 0 = not counted
	mallocs    uint64
	heapLiveMB float64
	rt         values // runtime.* of the region

	sim        values // simulated end-to-end metrics, exact for a seed
	latSamples uint64 // samples behind sim_lat_*; 0 when latency does not apply
	counts     counts // exported counters gained in the region
	have       countSet
	gauges     values // per-layer values that are not region deltas
	digest     uint64 // over the end-of-rep counters and the simulated metrics

	attempted, failed uint64 // contract operations, see README
}

// region measures host cost between open and close. Both ends read
// MemStats (a stop-the-world) outside the timed interval.
type region struct {
	start time.Time
	ms    runtime.MemStats
	cpu   time.Duration
	gcCPU float64
}

func openRegion() *region {
	r := &region{}
	runtime.GC()
	runtime.ReadMemStats(&r.ms)
	r.cpu = processCPU()
	r.gcCPU = gcCPUSeconds()
	r.start = time.Now()
	return r
}

// close stops the clock, then forces a GC so heap_live_mb is what the
// still-referenced world keeps alive. keep is that world.
func (r *region) close(out *rep, keep any) {
	wall := time.Since(r.start)
	cpu := processCPU() - r.cpu
	gcCPU := gcCPUSeconds() - r.gcCPU
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.wallS = wall.Seconds()
	out.mallocs = ms.Mallocs - r.ms.Mallocs
	out.rt = values{
		"runtime.gc_cycles":        float64(ms.NumGC - r.ms.NumGC),
		"runtime.gc_pause_ms":      float64(ms.PauseTotalNs-r.ms.PauseTotalNs) / 1e6,
		"runtime.peak_heap_sys_mb": float64(ms.HeapSys) / (1 << 20),
		"runtime.cpu_s":            cpu.Seconds(),
	}
	if cpu > 0 {
		out.rt["runtime.gc_cpu_share"] = gcCPU / cpu.Seconds()
		out.rt["runtime.wall_cpu_ratio"] = wall.Seconds() / cpu.Seconds()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.heapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(keep)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// medianSetup times build k times and returns the median; the last
// build is the one the rep runs, the others are garbage by the time the
// measured region opens. Set-up is short next to the region, so timing
// it once per rep is too noisy to hold a bound. Each build starts from
// a collected heap, or it would share the processor with the sweep of
// the previous rep's world. A traced rep builds once: its wrappers
// belong on one world.
func medianSetup(k int, tr *tracer, build func() error) (float64, error) {
	if tr != nil {
		k = 1
	}
	secs := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		runtime.GC()
		t := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return quantile(secs, 0.5), nil
}

// --- exported counters ---------------------------------------------------

// Counter slots. Every one is an exported field or method of
// internal/*, read from outside at the region's boundaries.
const (
	cEvents = iota
	cFromVM
	cFromNet
	cDelivered
	cSent
	cAbsorbed
	cSlow
	cFast
	cNotifySent
	cProbes
	cDrops
	cACLDrops
	// cTouches counts session-state updates: at a switch that homes a
	// vNIC, every TX packet a VM hands in and every RX packet delivered
	// or ACL-denied went through TouchState once. Packets dropped for
	// overload after the touch are not counted, so it is a lower bound.
	cTouches
	cFcHits
	cFcMisses
	cFcEvict
	cCPUJobs
	cCPUDrops
	cFabSends
	cFabDelivered
	cFabLost
	cFabBytes
	cRPCSent
	cRPCRetries
	cRPCExpired
	cOffloads
	cScaleOuts
	cFailovers
	cAborts
	cMonProbes
	cMonDeclared
	cJournalAppends
	cJournalSnaps
	cConnsStarted
	cConnsCompleted
	cKernelDrops
	cPoolGets
	cTraceHops
	numCounts
)

type counts [numCounts]uint64

// countSet marks which slots a world can fill.
type countSet uint64

func (s countSet) has(i int) bool { return s&(1<<uint(i)) != 0 }

func slots(is ...int) countSet {
	var s countSet
	for _, i := range is {
		s |= 1 << uint(i)
	}
	return s
}

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

var (
	haveSwitches = slots(cEvents, cFromVM, cFromNet, cDelivered, cSent, cAbsorbed, cSlow, cFast, cNotifySent,
		cProbes, cDrops, cACLDrops, cTouches, cFcHits, cFcMisses, cFcEvict, cCPUJobs, cCPUDrops,
		cFabSends, cFabDelivered, cFabLost, cFabBytes)
	haveControl = slots(cRPCSent, cRPCRetries, cRPCExpired, cOffloads, cScaleOuts, cFailovers, cAborts,
		cMonProbes, cMonDeclared)
)

// readSwitches fills the datapath slots of a zero counts from a world's
// loop, fabric and vSwitches.
func (c *counts) readSwitches(loop *sim.Loop, fab *fabric.Fabric, sw []*vswitch.VSwitch) {
	c[cEvents] = loop.Fired()
	c[cFabSends], c[cFabDelivered] = fab.Sends, fab.Delivered
	c[cFabLost], c[cFabBytes] = fab.Lost+fab.ChaosLost, fab.BytesSent
	for _, vs := range sw {
		s := &vs.Stats
		c[cFromVM] += s.FromVM
		c[cFromNet] += s.FromNet
		c[cDelivered] += s.Delivered
		c[cSent] += s.Sent
		c[cAbsorbed] += s.Absorbed
		c[cSlow] += s.SlowPath
		c[cFast] += s.FastPath
		c[cNotifySent] += s.NotifySent
		c[cProbes] += s.ProbesSeen
		c[cDrops] += s.TotalDrops()
		c[cACLDrops] += s.Drops[vswitch.DropACL]
		if vs.NumVNICs() > 0 {
			c[cTouches] += s.FromVM + s.Delivered + s.Drops[vswitch.DropACL]
		}
		t := vs.Sessions()
		c[cFcHits] += t.Hits
		c[cFcMisses] += t.Misses
		c[cFcEvict] += t.Evictions
		c[cCPUJobs] += vs.CPU().Processed()
		c[cCPUDrops] += vs.CPU().Dropped()
	}
}

func (c *counts) readControl(ctrl *controller.Controller, mon *monitor.Monitor) {
	rs := ctrl.RPCStats()
	c[cRPCSent], c[cRPCRetries], c[cRPCExpired] = rs.Sent, rs.Retries, rs.Expired
	e := ctrl.Stats
	c[cOffloads], c[cScaleOuts], c[cFailovers], c[cAborts] = e.Offloads, e.ScaleOuts, e.Failovers, e.Aborts
	c[cMonProbes], c[cMonDeclared] = mon.ProbesSent.Load(), mon.Declared.Load()
}

// conservation checks the two packet ledgers of a world at an event
// boundary; the residue is what the ledgers cannot account for.
func conservation(fab *fabric.Fabric, sw []*vswitch.VSwitch) (residue uint64, err error) {
	if got := fab.Delivered + fab.Lost + fab.ChaosLost + fab.InFlight(); got != fab.Sends {
		residue += absDiff(got, fab.Sends)
		err = fmt.Errorf("fabric ledger: Sends %d != Delivered %d + Lost %d + ChaosLost %d + InFlight %d",
			fab.Sends, fab.Delivered, fab.Lost, fab.ChaosLost, fab.InFlight())
	}
	for _, vs := range sw {
		s := &vs.Stats
		in := s.FromVM + s.FromNet
		out := s.Sent + s.Delivered + s.TotalDrops() + s.Absorbed + uint64(vs.InFlightCPU())
		if in != out {
			residue += absDiff(in, out)
			err = fmt.Errorf("vSwitch %v ledger: in %d != out %d", vs.Addr(), in, out)
		}
	}
	return residue, err
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// --- digest --------------------------------------------------------------

// digest is FNV-1a 64 over a stream of words: the fingerprint that
// must be identical across the reps of a seed, traced or not.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			*d ^= digest(v & 0xff)
			*d *= 1099511628211
			v >>= 8
		}
	}
}

func (d *digest) addValues(v values, names ...string) {
	for _, n := range names {
		d.add(math.Float64bits(v[n]))
	}
}

// --- latency histogram ------------------------------------------------------

// latHist counts simulated latencies in fixed-width buckets, so the
// sinks stay allocation-free and the quantiles repeat exactly.
type latHist struct {
	res    sim.Time // bucket width
	counts []uint32
	n      uint64
}

func newLatHist(res sim.Time, buckets int) *latHist {
	return &latHist{res: res, counts: make([]uint32, buckets)}
}

func (h *latHist) observe(lat sim.Time) {
	i := int(lat / h.res)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// quantileUS returns the lower edge of the bucket holding the q-th
// sample, in microseconds.
func (h *latHist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum >= target {
			return (sim.Time(i) * h.res).Micros()
		}
	}
	return (sim.Time(len(h.counts)-1) * h.res).Micros()
}

// minLatSamples is ten samples beyond the 99th percentile.
const minLatSamples = 1000

func (h *latHist) fill(r *rep) error {
	r.latSamples = h.n
	if h.n < minLatSamples {
		return fmt.Errorf("latency: %d samples, need %d for a p99", h.n, minLatSamples)
	}
	r.sim["sim_lat_p50_us"] = h.quantileUS(0.50)
	r.sim["sim_lat_p99_us"] = h.quantileUS(0.99)
	return nil
}

// scaled applies the smoke-test size to a full-size quantity.
func scaled(full int, size float64) int {
	n := int(math.Round(float64(full) * size))
	if n < 1 {
		n = 1
	}
	return n
}
