package nic

import (
	"sync/atomic"

	"nezha/internal/sim"
	"nezha/internal/slab"
)

// CPU is a multi-core queueing server on the simulation loop. Work is
// submitted in cycles; each item is serviced by the earliest-free
// core. If the queueing delay an item would experience exceeds the
// configured bound, it is dropped instead — the SmartNIC's finite
// buffering under overload.
type CPU struct {
	loop     *sim.Loop
	cores    []sim.Time // each core's busy-until time
	hz       uint64
	maxDelay sim.Time

	busy      sim.Time   // cumulative busy time across cores
	coreBusy  []sim.Time // cumulative busy time per core
	processed uint64
	dropped   uint64

	// order is a binary min-heap over the cores, each node packing a
	// core's placement key (busyUntil << orderShift) | coreIndex into
	// one integer (typed sim.Time only so that cores, coreBusy and
	// order share one backing array): order[0] is always the next core
	// to pick, and a plain integer compare is the full
	// (busyUntil, index)-lexicographic order. Every submission raises
	// exactly one core's busy-until time (the root's), so one sift-down
	// per placement keeps the heap exact — O(log cores) contiguous
	// compares instead of the linear scan that used to dominate burst
	// profiles.
	order      []sim.Time
	orderShift uint

	waves slab.Pool[waveTask] // recycled wave events for SubmitBurstTo
}

// pickCore returns the earliest-free core. Ties resolve to the LOWEST
// core index: the heap key is (busyUntil, index)-lexicographic, so an
// earlier core with the same busy-until time always wins. This
// tie-break is part of the placement contract — per-worker burst
// planning and the scalar/burst differential both depend on
// submission order mapping to the same lexicographic core choice —
// and is pinned by TestPickCoreTieBreak.
func (c *CPU) pickCore() int { return int(c.order[0] & (1<<c.orderShift - 1)) }

// orderKey packs a core's placement key. Packing is exact as long as
// busy-until times stay below 2^(63-shift) ns — even with 256 cores
// (shift 8) that is over a simulated year, far beyond any run.
func (c *CPU) orderKey(i int, busy sim.Time) sim.Time {
	return busy<<c.orderShift | sim.Time(i)
}

// fixTop restores the heap invariant after the root core's busy-until
// time was raised by a placement: the caller overwrites order[0] with
// the core's new key, and the key sifts down to its place.
func (c *CPU) fixTop() {
	o := c.order
	key := o[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= len(o) {
			break
		}
		if r := l + 1; r < len(o) && o[r] < o[l] {
			l = r
		}
		if o[l] >= key {
			break
		}
		o[i] = o[l]
		i = l
	}
	o[i] = key
}

// reheap rebuilds the order heap from the cores array. Only tests that
// poke busy-until times directly need it; the submit paths maintain
// the heap incrementally.
func (c *CPU) reheap() {
	o := c.order
	for i := range o {
		o[i] = c.orderKey(i, c.cores[i])
	}
	for i := len(o)/2 - 1; i >= 0; i-- {
		j := i
		key := o[j]
		for {
			l := 2*j + 1
			if l >= len(o) {
				break
			}
			if r := l + 1; r < len(o) && o[r] < o[l] {
				l = r
			}
			if o[l] >= key {
				break
			}
			o[j] = o[l]
			j = l
		}
		o[j] = key
	}
}

// NewCPU builds a CPU with the given core count and clock.
func NewCPU(loop *sim.Loop, cores int, hz uint64, maxDelay sim.Time) *CPU {
	c := new(CPU)
	c.Init(loop, cores, hz, maxDelay)
	return c
}

// Init builds the CPU in place — NewCPU for an owner that holds its
// CPU by value. The per-core arrays share one allocation.
func (c *CPU) Init(loop *sim.Loop, cores int, hz uint64, maxDelay sim.Time) {
	if cores < 1 {
		cores = 1
	}
	if hz == 0 {
		hz = DefaultCoreHz
	}
	if maxDelay <= 0 {
		maxDelay = DefaultMaxQueueDelay
	}
	buf := make([]sim.Time, 3*cores)
	*c = CPU{
		loop: loop, cores: buf[:cores:cores],
		coreBusy: buf[cores : 2*cores : 2*cores],
		order:    buf[2*cores:],
		hz:       hz, maxDelay: maxDelay,
	}
	for c.orderShift = 1; 1<<c.orderShift < cores; c.orderShift++ {
	}
	// All-idle cores in index order already satisfy the heap invariant.
	for i := range c.order {
		c.order[i] = sim.Time(i)
	}
}

// Cores returns the core count.
func (c *CPU) Cores() int { return len(c.cores) }

// ServiceTime converts cycles to time on one core.
func (c *CPU) ServiceTime(cycles uint64) sim.Time {
	return sim.Time(cycles * uint64(sim.Second) / c.hz)
}

// admit places cycles of work on the earliest-free core and returns
// its queueing delay plus service time. With bounded set, work that
// would wait longer than the queueing-delay bound is refused instead
// (ok false, nothing charged) — the one admission body behind every
// single-item submit.
func (c *CPU) admit(cycles uint64, bounded bool) (total sim.Time, ok bool) {
	now := c.loop.Now()
	best := c.pickCore()
	start := c.cores[best]
	if start < now {
		start = now
	}
	if bounded && start-now > c.maxDelay {
		c.dropped++
		return 0, false
	}
	st := c.ServiceTime(cycles)
	end := start + st
	c.cores[best] = end
	c.order[0] = c.orderKey(best, end)
	c.fixTop()
	c.busy += st
	c.coreBusy[best] += st
	c.processed++
	return end - now, true
}

// SubmitTask enqueues cycles of work and schedules t.Run for the
// instant it completes, returning the queueing delay plus service time
// the work will have experienced. Work refused at admission (the
// queueing-delay bound) returns ok false with t not scheduled. Callers
// pool their tasks, so a submission allocates nothing.
func (c *CPU) SubmitTask(cycles uint64, t sim.Task) (delay sim.Time, ok bool) {
	delay, ok = c.admit(cycles, true)
	if ok {
		c.loop.AtTask(c.loop.Now()+delay, t)
	}
	return delay, ok
}

// Submit is SubmitTask with a plain callback: done(true, total) fires
// when the work completes, where total is queueing delay plus service
// time; done(false, 0) fires immediately (synchronously) if the work is
// dropped for exceeding the queueing-delay bound. done may be nil. It
// allocates a closure per call; hot paths use SubmitTask.
func (c *CPU) Submit(cycles uint64, done func(ok bool, delay sim.Time)) {
	total, ok := c.admit(cycles, true)
	if done == nil {
		return
	}
	if !ok {
		done(false, 0)
		return
	}
	c.loop.At(c.loop.Now()+total, func() { done(true, total) })
}

// BurstSink receives a burst submission's outcomes. Callers pool their
// sink implementations and pass them by pointer, so submitting a burst
// allocates nothing for its callbacks.
type BurstSink interface {
	// Complete fires per item: (i, false, 0) synchronously, in
	// submission order, for items dropped at admission; (i, true,
	// total) at the item's completion instant.
	Complete(i int, ok bool, delay sim.Time)
	// WaveEnd fires after a completion wave's Complete calls with the
	// indices that just completed — the flush hook burst pipelines use
	// to emit coalesced output. The members slice is owned by the
	// callback for the duration of the call only.
	WaveEnd(members []int32)
}

// SubmitBurstTo enqueues a batch of work items in one call, equivalent
// to len(costs) Submit calls item by item: the same earliest-free-core
// placement, the same queueing-delay drop decision, the same counters,
// and the same completion order (waves only merge *consecutive* equal
// end times, which is exactly the set of events FIFO ordering already
// glues together). What it amortizes is the event machinery: accepted
// items whose completions land at consecutive identical instants share
// one scheduled event — a "wave" — instead of one event each.
func (c *CPU) SubmitBurstTo(costs []uint64, sink BurstSink) {
	now := c.loop.Now()
	wave := c.newWave(sink)
	var waveAt sim.Time
	for i, cycles := range costs {
		best := c.pickCore()
		start := c.cores[best]
		if start < now {
			start = now
		}
		if start-now > c.maxDelay {
			c.dropped++
			sink.Complete(i, false, 0)
			continue
		}
		st := c.ServiceTime(cycles)
		end := start + st
		c.cores[best] = end
		c.order[0] = c.orderKey(best, end)
		c.fixTop()
		c.busy += st
		c.coreBusy[best] += st
		c.processed++
		if len(wave.members) > 0 && end != waveAt {
			c.scheduleWave(wave, waveAt-now)
			wave = c.newWave(sink)
		}
		waveAt = end
		wave.members = append(wave.members, int32(i))
	}
	if len(wave.members) > 0 {
		c.scheduleWave(wave, waveAt-now)
	} else {
		c.waves.Put(wave)
	}
}

// waveTask is one completion wave's scheduled event payload, members
// buffer included. Tasks are pooled on the CPU and scheduled via
// sim.Loop.AtTask, so a wave costs no closure, no event and no buffer
// allocation.
type waveTask struct {
	cpu     *CPU
	sink    BurstSink
	members []int32
	total   sim.Time
}

func (c *CPU) newWave(sink BurstSink) *waveTask {
	t := c.waves.Get()
	t.cpu, t.sink, t.members = c, sink, t.members[:0]
	return t
}

func (c *CPU) scheduleWave(t *waveTask, total sim.Time) {
	t.total = total
	c.loop.AtTask(c.loop.Now()+total, t)
}

// Run fires the wave: per-item completions, then the wave-end flush.
// The task returns to the pool only after the sink is done with its
// members; a burst the sink submits meanwhile takes another task.
func (t *waveTask) Run() {
	for _, i := range t.members {
		t.sink.Complete(int(i), true, t.total)
	}
	t.sink.WaveEnd(t.members)
	t.sink = nil
	t.cpu.waves.Put(t)
}

// SubmitPriority enqueues cycles of work that is never dropped at
// admission (it bypasses the queueing-delay bound). Used for work
// that rides the datapath with priority, such as Sirius-style in-line
// state replication.
func (c *CPU) SubmitPriority(cycles uint64, done func(delay sim.Time)) {
	total, _ := c.admit(cycles, false)
	if done != nil {
		c.loop.At(c.loop.Now()+total, func() { done(total) })
	}
}

// BusyTime returns cumulative busy core-time.
func (c *CPU) BusyTime() sim.Time { return c.busy }

// CoreBusyTimes appends each core's cumulative busy time to out and
// returns it — the sampler behind per-core utilization timelines.
func (c *CPU) CoreBusyTimes(out []sim.Time) []sim.Time {
	return append(out, c.coreBusy...)
}

// Processed and Dropped return the admission counters.
func (c *CPU) Processed() uint64 { return c.processed }
func (c *CPU) Dropped() uint64   { return c.dropped }

// UtilMeter measures CPU utilization over sampling windows.
type UtilMeter struct {
	cpu      *CPU
	lastBusy sim.Time
	lastAt   sim.Time
}

// NewUtilMeter starts a meter at the current time.
func NewUtilMeter(cpu *CPU) *UtilMeter {
	m := new(UtilMeter)
	m.Start(cpu)
	return m
}

// Start (re)starts the meter on cpu at the current time — NewUtilMeter
// for an owner that holds its meter by value.
func (m *UtilMeter) Start(cpu *CPU) {
	*m = UtilMeter{cpu: cpu, lastBusy: cpu.busy, lastAt: cpu.loop.Now()}
}

// Sample returns the utilization (0..1) since the previous sample and
// resets the window.
func (m *UtilMeter) Sample() float64 {
	now := m.cpu.loop.Now()
	dt := now - m.lastAt
	if dt <= 0 {
		return 0
	}
	db := m.cpu.busy - m.lastBusy
	m.lastAt = now
	m.lastBusy = m.cpu.busy
	u := float64(db) / (float64(dt) * float64(len(m.cpu.cores)))
	if u > 1 {
		u = 1
	}
	return u
}

// Memory is a byte-accounted budget. Mutations happen on the sim
// goroutine, but monitor/controller code (and tests running them on
// other goroutines) read Used/Utilization concurrently, so the
// accounting is atomic.
type Memory struct {
	total int64
	used  atomic.Int64
}

// Init sets an unused budget to total bytes. The owner holds its
// budget by value.
func (m *Memory) Init(total int) { m.total = int64(total) }

// Alloc charges n bytes, reporting false (and charging nothing) if
// the budget cannot fit them.
func (m *Memory) Alloc(n int) bool {
	if n < 0 {
		return false
	}
	for {
		used := m.used.Load()
		if used+int64(n) > m.total {
			return false
		}
		if m.used.CompareAndSwap(used, used+int64(n)) {
			return true
		}
	}
}

// Free refunds n bytes.
func (m *Memory) Free(n int) {
	for {
		used := m.used.Load()
		next := used - int64(n)
		if next < 0 {
			next = 0
		}
		if m.used.CompareAndSwap(used, next) {
			return
		}
	}
}

// Used and Total return the accounting.
func (m *Memory) Used() int  { return int(m.used.Load()) }
func (m *Memory) Total() int { return int(m.total) }
