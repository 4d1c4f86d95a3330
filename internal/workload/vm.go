// Package workload provides the traffic side of the evaluation: a VM
// model whose kernel stack has finite connection-handling capacity
// (the bottleneck CPS shifts to once Nezha removes the vSwitch limit,
// Fig 10), a netperf TCP_CRR-style short-connection generator (the
// paper's CPS workload), a concurrent-flow prober, and a SYN-flood
// generator (§7.3).
package workload

import (
	"nezha/internal/metrics"
	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/slab"
	"nezha/internal/vswitch"
)

// VM kernel calibration. MaxCPS follows Amdahl's law in the vCPU
// count: per-core throughput discounted by a serial fraction standing
// in for kernel locks and connection-table contention (§6.2.2).
const (
	DefaultPerCoreCPS     = 15000.0
	DefaultSerialFraction = 0.02
	// ServerPort is the well-known port the server role answers on.
	ServerPort = 80
	// kernelQueue bounds how long a connection may wait in the
	// kernel backlog before being dropped.
	kernelQueue = 10 * sim.Millisecond
)

// MaxCPS returns the kernel-limited connections/sec for a VM with
// vcpus cores.
func MaxCPS(vcpus int) float64 {
	if vcpus < 1 {
		vcpus = 1
	}
	n := float64(vcpus)
	return DefaultPerCoreCPS * n / (1 + DefaultSerialFraction*(n-1))
}

// The VM's port table holds one slot per client source port, grown
// lazily to the highest port opened, so it is bounded by maxPorts
// slots (512 KiB); noConn marks a slot with no connection open.
const (
	maxPorts          = 1 << 16
	noConn   sim.Time = -1
)

// VM models a guest's network endpoint: a client/server state machine
// over the simulated TCP handshake plus a kernel-capacity model.
type VM struct {
	loop *sim.Loop
	vs   *vswitch.VSwitch

	VNIC uint32
	VPC  uint32
	IP   packet.IPv4

	kernel    *nic.CPU
	connCost  uint64
	pktCost   uint64
	idGen     *uint64
	reqBytes  int
	respBytes int

	// starts is the port table: the start time of the client connection
	// open on each source port, or noConn. open counts the ports holding
	// one. onClosed, when set (by ClosedCRR), hears each
	// completed connection's port.
	starts   []sim.Time
	open     int
	onClosed func(sport uint16)

	tasks slab.Pool[kernelTask] // recycled server-side kernel completions

	// Counters.
	Started     uint64 // client connections initiated
	Completed   uint64 // client connections fully closed
	Accepted    uint64 // server connections accepted
	KernelDrops uint64 // connections dropped by the kernel backlog
	Latency     *metrics.Histogram
	// OnComplete, when set, observes every completed client
	// connection's latency — scenario harnesses use it to bucket
	// latencies by phase (e.g. p99 during load ramps) without a second
	// histogram inside the VM.
	OnComplete func(lat sim.Time)
}

// NewVM attaches a VM with the given vCPU count to a vSwitch-resident
// vNIC. idGen supplies unique packet IDs across the simulation.
func NewVM(loop *sim.Loop, vs *vswitch.VSwitch, vnic, vpc uint32, ip packet.IPv4, vcpus int, idGen *uint64) *VM {
	maxCPS := MaxCPS(vcpus)
	vm := &VM{
		loop: loop,
		vs:   vs,
		VNIC: vnic,
		VPC:  vpc,
		IP:   ip,
		// Kernel modeled as a 1 GHz single server: one connection
		// costs 1e9/maxCPS cycles.
		kernel:    nic.NewCPU(loop, 1, 1_000_000_000, kernelQueue),
		connCost:  uint64(1e9 / maxCPS),
		idGen:     idGen,
		reqBytes:  128,
		respBytes: 512,
		Latency:   metrics.NewHistogramCap("conn-latency-us", 1<<18),
	}
	vm.pktCost = vm.connCost / 10
	return vm
}

// ScaleKernel multiplies the VM's kernel capacity by factor (<1
// shrinks it). Scaled-down rigs use it so the VM-to-vSwitch
// capability ratio matches production despite the smaller vSwitches.
func (vm *VM) ScaleKernel(factor float64) {
	if factor <= 0 {
		return
	}
	vm.connCost = uint64(float64(vm.connCost) / factor)
	vm.pktCost = vm.connCost / 10
}

func (vm *VM) nextID() uint64 {
	*vm.idGen++
	return *vm.idGen
}

func (vm *VM) send(ft packet.FiveTuple, flags packet.TCPFlags, payload int, sentAt int64) {
	p := packet.GetStamped(sentAt, vm.nextID(), vm.VPC, vm.VNIC, ft, packet.DirTX, flags, payload)
	vm.vs.FromVM(p)
}

// Open initiates one client connection to dst:dstPort from the given
// source port. Each in-flight connection needs a distinct sport;
// opening on a port still in flight replaces its connection.
func (vm *VM) Open(sport uint16, dst packet.IPv4, dstPort uint16) {
	vm.Started++
	if int(sport) >= len(vm.starts) {
		vm.growPorts(int(sport))
	}
	if vm.starts[sport] == noConn {
		vm.open++
	}
	vm.starts[sport] = vm.loop.Now()
	ft := packet.FiveTuple{
		SrcIP: vm.IP, DstIP: dst,
		SrcPort: sport, DstPort: dstPort, Proto: packet.ProtoTCP,
	}
	vm.send(ft, packet.FlagSYN, 0, int64(vm.loop.Now()))
}

// growPorts extends the port table to hold slot i: doubling, capped at
// maxPorts, new slots empty.
func (vm *VM) growPorts(i int) {
	n := min(max(2*len(vm.starts), i+1), maxPorts)
	grown := make([]sim.Time, n)
	copy(grown, vm.starts)
	for j := len(vm.starts); j < n; j++ {
		grown[j] = noConn
	}
	vm.starts = grown
}

// start returns the start time of the connection open on sport, or
// noConn.
func (vm *VM) start(sport uint16) sim.Time {
	if int(sport) < len(vm.starts) {
		return vm.starts[sport]
	}
	return noConn
}

// Abort abandons an in-flight client connection (timeout); any
// residual vSwitch state ages out on its own. Aborting a port with no
// connection is a no-op.
func (vm *VM) Abort(sport uint16) {
	if vm.start(sport) != noConn {
		vm.starts[sport] = noConn
		vm.open--
	}
}

// OnDeliver is the vSwitch delivery callback target. The VM is the
// packet's terminal consumer: it is released back to the pool here,
// after the handlers copy out what they need.
func (vm *VM) OnDeliver(vnic uint32, p *packet.Packet, lat sim.Time) {
	if vnic != vm.VNIC {
		return
	}
	if p.Tuple.DstPort == ServerPort {
		vm.serverHandle(p)
	} else if p.Tuple.SrcPort == ServerPort {
		vm.clientHandle(p)
	}
	p.Release()
}

// serverHandle implements the passive side: accept, respond, close.
// The kernel completions fire after OnDeliver releases p, so they
// carry copies of its fields, never p itself.
func (vm *VM) serverHandle(p *packet.Packet) {
	reply := p.Tuple.Reverse()
	switch {
	case p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK):
		// New connection: charge the kernel; beyond capacity the
		// backlog drops it (the Fig 10 VM bottleneck).
		vm.kernelReply(vm.connCost, reply, packet.FlagSYN|packet.FlagACK, 0, p.SentAt, true)
	case p.Flags.Has(packet.FlagFIN):
		vm.kernelReply(vm.pktCost, reply, packet.FlagFIN|packet.FlagACK, 0, p.SentAt, false)
	case p.PayloadLen > 0:
		// Request: produce the response.
		vm.kernelReply(vm.pktCost, reply, packet.FlagACK, vm.respBytes, p.SentAt, false)
	}
}

// kernelTask is one server-side kernel completion: the reply to send
// once the kernel has spent the packet's cycles. Tasks are pooled per
// VM, so the server side of a connection allocates nothing.
type kernelTask struct {
	vm      *VM
	reply   packet.FiveTuple
	flags   packet.TCPFlags
	payload int
	sentAt  int64
	accept  bool // the reply accepts a new connection
}

// kernelReply charges cost cycles on the VM's kernel and sends the
// reply when they complete. A kernel over its backlog bound drops the
// work; for a new connection (accept) that is a counted kernel drop.
func (vm *VM) kernelReply(cost uint64, reply packet.FiveTuple, flags packet.TCPFlags, payload int, sentAt int64, accept bool) {
	t := vm.tasks.Get()
	t.vm, t.reply, t.flags, t.payload, t.sentAt, t.accept = vm, reply, flags, payload, sentAt, accept
	if _, ok := vm.kernel.SubmitTask(cost, t); !ok {
		vm.tasks.Put(t)
		if accept {
			vm.KernelDrops++
		}
	}
}

// Run fires the completion; the task recycles itself first, since the
// send can reenter the VM.
func (t *kernelTask) Run() {
	vm, reply, flags, payload, sentAt, accept := t.vm, t.reply, t.flags, t.payload, t.sentAt, t.accept
	vm.tasks.Put(t)
	if accept {
		vm.Accepted++
	}
	vm.send(reply, flags, payload, sentAt)
}

// clientHandle advances the active side's per-connection state
// machine: SYNACK → request, response → FIN, FINACK → complete.
func (vm *VM) clientHandle(p *packet.Packet) {
	sport := p.Tuple.DstPort
	start := vm.start(sport)
	if start == noConn {
		return
	}
	reply := p.Tuple.Reverse()
	switch {
	case p.Flags.Has(packet.FlagSYN) && p.Flags.Has(packet.FlagACK):
		vm.send(reply, packet.FlagACK, vm.reqBytes, int64(start))
	case p.Flags.Has(packet.FlagFIN):
		vm.Completed++
		lat := vm.loop.Now() - start
		vm.Latency.Observe(lat.Micros())
		if vm.OnComplete != nil {
			vm.OnComplete(lat)
		}
		vm.Abort(sport)
		if vm.onClosed != nil {
			vm.onClosed(sport)
		}
	case p.PayloadLen > 0:
		vm.send(reply, packet.FlagFIN|packet.FlagACK, 0, int64(start))
	}
}
