package workload

import (
	"nezha/internal/packet"
	"nezha/internal/sim"
)

// ClosedCRR drives netperf TCP_CRR-style traffic in closed loop: a
// fixed number of workers each run connect / request / response /
// close transactions back to back, reopening as soon as the previous
// transaction completes (or times out). Closed-loop measurement is
// how CPS *capability* is obtained — throughput converges to the
// bottleneck's capacity instead of collapsing under overload the way
// an open-loop stream without retransmissions would.
type ClosedCRR struct {
	loop    *sim.Loop
	vm      *VM
	dst     packet.IPv4
	workers int
	timeout sim.Time
	sport   uint16
	done    bool

	// Abandoned counts transactions given up after the timeout.
	Abandoned uint64
}

// NewClosedCRR builds a closed-loop generator with the given worker
// count. timeout bounds one transaction before the worker abandons it
// and opens a fresh connection.
func NewClosedCRR(loop *sim.Loop, vm *VM, dst packet.IPv4, workers int, timeout sim.Time) *ClosedCRR {
	if workers < 1 {
		workers = 1
	}
	if timeout <= 0 {
		timeout = 100 * sim.Millisecond
	}
	return &ClosedCRR{loop: loop, vm: vm, dst: dst, workers: workers, timeout: timeout, sport: 1024}
}

// Start launches the workers.
func (g *ClosedCRR) Start() {
	g.done = false
	ws := make([]closedWorker, g.workers)
	for i := range ws {
		w := &ws[i]
		w.g = g
		w.onDone = w.complete
		g.next(w)
	}
}

// Stop finishes after in-flight transactions settle; workers do not
// reopen.
func (g *ClosedCRR) Stop() { g.done = true }

// closedWorker is one worker's transaction loop. The worker is its own
// timeout task and its completion callback is bound once, so a
// transaction schedules no closure; a completion cancels its timeout.
type closedWorker struct {
	g       *ClosedCRR
	sport   uint16
	timeout sim.EventRef
	onDone  func()
}

func (g *ClosedCRR) next(w *closedWorker) {
	if g.done {
		return
	}
	g.sport++
	if g.sport < 1024 {
		g.sport = 1024
	}
	w.sport = g.sport
	g.vm.OpenCB(w.sport, g.dst, ServerPort, w.onDone)
	w.timeout = g.loop.AtTask(g.loop.Now()+g.timeout, w)
}

func (w *closedWorker) complete() {
	w.timeout.Cancel()
	w.g.next(w)
}

// Run abandons the transaction at its timeout and opens a fresh one.
func (w *closedWorker) Run() {
	g := w.g
	g.vm.Abort(w.sport)
	g.Abandoned++
	g.next(w)
}

// Completed proxies the client VM's completed-transaction counter.
func (g *ClosedCRR) Completed() uint64 { return g.vm.Completed }
