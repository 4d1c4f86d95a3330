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
	// ws is the worker table: a completed port finds its worker here.
	ws []*closedWorker

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

// Start launches the workers. The generator takes the VM's completion
// hook, so one VM drives one ClosedCRR. A restart reuses idle workers
// and adds new ones beside any whose transaction is still settling, so
// the worker table is bounded by the most workers ever busy at once.
func (g *ClosedCRR) Start() {
	g.done = false
	g.vm.onClosed = g.closed
	n := g.workers
	for _, w := range g.ws {
		if n > 0 && w.sport == 0 {
			g.next(w)
			n--
		}
	}
	for ; n > 0; n-- {
		w := &closedWorker{g: g}
		g.ws = append(g.ws, w)
		g.next(w)
	}
}

// Stop finishes after in-flight transactions settle; workers do not
// reopen.
func (g *ClosedCRR) Stop() { g.done = true }

// closedWorker is one worker's transaction loop. The worker is its own
// timeout task, so a transaction schedules no closure; a completion
// cancels its timeout.
type closedWorker struct {
	g       *ClosedCRR
	sport   uint16
	timeout sim.EventRef
}

func (g *ClosedCRR) next(w *closedWorker) {
	if g.done {
		w.sport = 0 // idle: generators open ports from 1024 up
		return
	}
	g.sport++
	if g.sport < 1024 {
		g.sport = 1024
	}
	w.sport = g.sport
	g.vm.Open(w.sport, g.dst, ServerPort)
	w.timeout = g.loop.AtTask(g.loop.Now()+g.timeout, w)
}

// closed is the VM's completion hook: the worker whose transaction
// ran on sport cancels its timeout and opens the next one.
func (g *ClosedCRR) closed(sport uint16) {
	for _, w := range g.ws {
		if w.sport == sport {
			w.timeout.Cancel()
			g.next(w)
			return
		}
	}
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
