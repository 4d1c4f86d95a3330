package main

import (
	"io"
	"runtime"
	"time"

	"nezha/internal/cluster"
	"nezha/internal/fabric"
	"nezha/internal/flowcache"
	"nezha/internal/journal"
	"nezha/internal/nic"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/state"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

// probeInputs is what a workload hands the isolated probes, so each
// layer's exported functions are timed on that workload's inputs.
type probeInputs struct {
	rules   func() *tables.RuleSet // the workload's busiest rule set
	flows   []packet.FiveTuple     // its flow population, TX-oriented for rules' vNIC
	vnic    uint32
	vpc     uint32
	burst   int // packets per injection
	payload int
	feList  int // addresses Learner.Pick chooses among (0 = one)
	pending int // mean Loop.Pending() of the traced rep
}

// probeBurst is the burst size of the *_burst_* probes.
const probeBurst = 128

// A probe sets up its subject and returns a function doing n
// operations on it, plus how many units (packets, entries) one
// operation covers.
type probe struct {
	metric string
	setup  func(in *probeInputs) (run func(n int), unitsPerOp float64)
}

type probeResult struct {
	ns     float64 // median wall ns per unit
	allocs float64 // heap allocations per unit
}

const probeSamples = 5

// measure times run in probeSamples samples of about sample each and
// reports the median.
func measure(run func(n int), units float64, sample time.Duration) probeResult {
	n := 16
	for {
		t := time.Now()
		run(n)
		d := time.Since(t)
		if d >= sample/8 || n >= 1<<28 {
			if d > 0 {
				n = int(float64(n)*float64(sample)/float64(d)) + 1
			}
			break
		}
		n *= 4
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	per := make([]float64, probeSamples)
	for i := range per {
		t := time.Now()
		run(n)
		per[i] = float64(time.Since(t)) / float64(n) / units
	}
	runtime.ReadMemStats(&ms1)
	return probeResult{
		ns:     quantile(per, 0.5),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(n*probeSamples) / units,
	}
}

// runProbes times every probe on a workload's inputs, spending about
// budget in all, and returns the sample length that allowed.
func runProbes(in probeInputs, budget time.Duration) (map[string]probeResult, time.Duration) {
	// Calibration and set-up cost about two samples more per probe.
	sample := budget / time.Duration(len(probes)*(probeSamples+2))
	if sample < 200*time.Microsecond {
		sample = 200 * time.Microsecond
	}
	out := make(map[string]probeResult, len(probes))
	for _, p := range probes {
		run, units := p.setup(&in)
		out[p.metric] = measure(run, units, sample)
	}
	return out, sample
}

var sinkWord uint64 // keeps probe results live

type nopTask struct{}

func (nopTask) Run() {}

type nopSink struct{}

func (nopSink) Complete(int, bool, sim.Time) {}
func (nopSink) WaveEnd([]int32)              {}

func drain(loop *sim.Loop) {
	for loop.Step() {
	}
}

func (in *probeInputs) flow(i int) packet.FiveTuple { return in.flows[i%len(in.flows)] }

// keys returns the session key and hash of every flow.
func (in *probeInputs) keys() ([]packet.SessionKey, []uint64) {
	ks, hs := make([]packet.SessionKey, len(in.flows)), make([]uint64, len(in.flows))
	for i, ft := range in.flows {
		ks[i], _ = packet.SessionKeyOf(in.vnic, in.vpc, ft)
		hs[i] = ks[i].Hash()
	}
	return ks, hs
}

// schedProbe times AtTask + pop at the workload's queue depth, with
// deadlines ahead of now.
func schedProbe(ahead, spread sim.Time) func(in *probeInputs) (func(int), float64) {
	return func(in *probeInputs) (func(int), float64) {
		loop := sim.NewLoop(1)
		depth := in.pending
		if depth < 1 {
			depth = 1
		}
		for i := 0; i < depth; i++ {
			loop.AtTask(ahead+sim.Time(i)*spread/sim.Time(depth), nopTask{})
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				loop.AtTask(loop.Now()+ahead+sim.Time(i&15)*spread/16, nopTask{})
				loop.Step()
			}
		}, 1
	}
}

// switchRig is one vSwitch whose every peer is a raw fabric node that
// keeps what it receives, for the vswitch.* probes.
type switchRig struct {
	loop *sim.Loop
	vs   *vswitch.VSwitch
	id   uint64
	in   *probeInputs
	buf  []*packet.Packet
}

func newSwitchRig(in *probeInputs, establish bool) *switchRig {
	r := &switchRig{loop: sim.NewLoop(1), in: in, buf: make([]*packet.Packet, 0, probeBurst)}
	fab := fabric.New(r.loop)
	gw := fabric.NewGateway(r.loop)
	self, peer := packet.MakeIP(192, 168, 9, 1), packet.MakeIP(192, 168, 9, 2)
	r.vs = vswitch.New(r.loop, fab, gw, vswitch.Config{Addr: self, Cores: fastCores, CoreHz: fastCoreHz})
	fab.Register(peer, 0, func(p *packet.Packet) { p.Release() })
	must(fab.SetBurstHandler(peer, func(ps []*packet.Packet) {
		for _, p := range ps {
			p.Release()
		}
	}))
	must(r.vs.AddVNIC(in.rules(), false))
	// Every vNIC id the workloads route to lives at the raw node.
	for v := uint32(1); v <= 16; v++ {
		gw.Set(v, peer)
	}
	gw.Set(crrServerVNIC, peer)
	gw.Set(in.vnic, self)
	if establish {
		for lo := 0; lo < len(in.flows); lo += probeBurst {
			ps := r.buf[:0]
			for _, ft := range in.flows[lo:min(lo+probeBurst, len(in.flows))] {
				ps = append(ps, r.get(ft, packet.FlagSYN))
			}
			r.vs.FromVMBurst(ps)
			drain(r.loop)
		}
	}
	return r
}

func (r *switchRig) get(ft packet.FiveTuple, flags packet.TCPFlags) *packet.Packet {
	r.id++
	return packet.GetStamped(int64(r.loop.Now()), r.id, r.in.vpc, r.in.vnic, ft, packet.DirTX, flags, r.in.payload)
}

var probes = []probe{
	{"sim.sched_near_ns", schedProbe(100*sim.Microsecond, 4*sim.Millisecond)},
	{"sim.sched_far_ns", schedProbe(200*sim.Millisecond, 16*sim.Millisecond)},

	{"packet.get_release_ns", func(in *probeInputs) (func(int), float64) {
		return func(n int) {
			for i := 0; i < n; i++ {
				packet.Get(uint64(i), in.vpc, in.vnic, in.flow(i), packet.DirTX, packet.FlagACK, in.payload).Release()
			}
		}, 1
	}},
	{"packet.hash_ns", func(in *probeInputs) (func(int), float64) {
		p := packet.New(1, in.vpc, in.vnic, in.flow(0), packet.DirTX, packet.FlagACK, in.payload)
		return func(n int) {
			for i := 0; i < n; i++ {
				p.InvalidateHashes() // cold memo
				_, h, _ := p.SessionKeyHashed()
				sinkWord += h
			}
		}, 1
	}},
	{"packet.marshal_ns", func(in *probeInputs) (func(int), float64) {
		p := nezhaPacket(in)
		return func(n int) {
			for i := 0; i < n; i++ {
				packet.PutBuf(p.Marshal())
			}
		}, 1
	}},
	{"packet.unmarshal_ns", func(in *probeInputs) (func(int), float64) {
		b := nezhaPacket(in).Marshal()
		return func(n int) {
			for i := 0; i < n; i++ {
				q, err := packet.Unmarshal(b)
				must(err)
				q.Release()
			}
		}, 1
	}},

	{"tables.lookup_ns", func(in *probeInputs) (func(int), float64) {
		return lookupLoop(in, in.rules())
	}},
	{"tables.lookup_adv_ns", func(in *probeInputs) (func(int), float64) {
		// The Table A1 shape: every advanced table on, 1 000 ACL rules
		// that the workload's flows walk past.
		rs := in.rules()
		rs.EnableAdvanced()
		for i := 0; i < 1000; i++ {
			rs.ACL.Add(tables.ACLRule{
				Priority: 10 + i,
				Dst:      tables.MakePrefix(packet.MakeIP(172, 16, byte(i>>8), byte(i)), 32),
				DstPorts: tables.PortRange{Lo: 7000, Hi: 7999},
				Verdict:  tables.VerdictDeny,
			})
		}
		rs.Bump()
		return lookupLoop(in, rs)
	}},
	{"tables.compile_ns", func(in *probeInputs) (func(int), float64) {
		rs := in.rules()
		var res tables.LookupResult
		return func(n int) {
			for i := 0; i < n; i++ {
				rs.Bump()
				rs.LookupInto(in.flow(i), &res) // first lookup after a change recompiles
			}
			sinkWord += res.Cycles
		}, 1
	}},

	{"state.touch_ns", func(in *probeInputs) (func(int), float64) {
		var st state.State
		return func(n int) {
			for i := 0; i < n; i++ {
				st.Touch(packet.DirTX, packet.FlagACK, in.payload, int64(i))
			}
			sinkWord += st.Pkts
		}, 1
	}},
	{"state.codec_ns", func(in *probeInputs) (func(int), float64) {
		st := establishedState()
		var buf []byte
		return func(n int) {
			for i := 0; i < n; i++ {
				buf = st.AppendWire(buf[:0])
				got, err := state.Decode(buf)
				must(err)
				sinkWord += uint64(got.TCP)
			}
		}, 1
	}},

	{"flowcache.lookup_hit_ns", func(in *probeInputs) (func(int), float64) {
		t, ks, hs := filledTable(in)
		return func(n int) {
			for i := 0; i < n; i++ {
				j := i % len(ks)
				if t.LookupH(ks[j], hs[j], int64(i)) == nil {
					panic("flowcache probe: established flow missed")
				}
			}
		}, 1
	}},
	{"flowcache.insert_delete_ns", func(in *probeInputs) (func(int), float64) {
		t, _, _ := filledTable(in)
		// Fresh keys beside the live population: the first packet of a
		// connection inserts, its close deletes.
		fresh := make([]packet.SessionKey, 4096)
		hashes := make([]uint64, len(fresh))
		for i := range fresh {
			ft := in.flow(0)
			ft.SrcPort, ft.DstPort = uint16(40000+i), 9
			fresh[i], _ = packet.SessionKeyOf(in.vnic, in.vpc, ft)
			hashes[i] = fresh[i].Hash()
		}
		var pre tables.PreActions
		return func(n int) {
			for i := 0; i < n; i++ {
				j := i % len(fresh)
				e, err := t.GetOrCreateH(fresh[j], hashes[j], in.vnic, int64(i))
				must(err)
				must(t.SetPre(e, pre, 1))
				t.Delete(fresh[j])
			}
		}, 1
	}},
	{"flowcache.sweep_ns_per_entry", func(in *probeInputs) (func(int), float64) {
		// A sweep that finds nothing expired: the scan every entry pays
		// once per sweep interval.
		t, ks, _ := filledTable(in)
		return func(n int) {
			for i := 0; i < n; i++ {
				if t.Sweep(0) != 0 {
					panic("flowcache probe: sweep evicted a live entry")
				}
			}
		}, float64(len(ks))
	}},

	{"nic.submit_ns", func(in *probeInputs) (func(int), float64) {
		loop := sim.NewLoop(1)
		cpu := nic.NewCPU(loop, offCores, offCoreHz, nic.DefaultMaxQueueDelay)
		done := func(bool, sim.Time) {}
		return func(n int) {
			for i := 0; i < n; i++ {
				cpu.Submit(nic.FastPathCycles, done)
				loop.Step()
			}
		}, 1
	}},
	{"nic.submit_burst_ns_per_pkt", func(in *probeInputs) (func(int), float64) {
		loop := sim.NewLoop(1)
		cpu := nic.NewCPU(loop, fastCores, fastCoreHz, nic.DefaultMaxQueueDelay)
		costs := make([]uint64, probeBurst)
		for i := range costs {
			costs[i] = nic.FastPathCycles
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				cpu.SubmitBurstTo(costs, nopSink{})
				drain(loop)
			}
		}, probeBurst
	}},

	{"fabric.send_ns", func(in *probeInputs) (func(int), float64) {
		loop, fab, src, dst := rawFabric()
		p := packet.New(1, in.vpc, in.vnic, in.flow(0), packet.DirRX, packet.FlagACK, in.payload)
		p.Encap(src, dst)
		return func(n int) {
			for i := 0; i < n; i++ {
				fab.Send(src, dst, p)
				loop.Step()
			}
		}, 1
	}},
	{"fabric.send_burst_ns_per_pkt", func(in *probeInputs) (func(int), float64) {
		loop, fab, src, dst := rawFabric()
		ps := make([]*packet.Packet, probeBurst)
		for i := range ps {
			ps[i] = packet.New(uint64(i), in.vpc, in.vnic, in.flow(i), packet.DirRX, packet.FlagACK, in.payload)
			ps[i].Encap(src, dst)
		}
		buf := make([]*packet.Packet, probeBurst)
		return func(n int) {
			for i := 0; i < n; i++ {
				copy(buf, ps)
				fab.SendBurst(src, dst, buf)
				drain(loop)
			}
		}, probeBurst
	}},
	{"fabric.gw_pick_ns", func(in *probeInputs) (func(int), float64) {
		loop := sim.NewLoop(1)
		gw := fabric.NewGateway(loop)
		addrs := []packet.IPv4{cluster.ServerAddr(0)}
		for i := 1; i < in.feList; i++ {
			addrs = append(addrs, cluster.ServerAddr(i))
		}
		gw.Set(in.vnic, addrs...)
		l := fabric.NewLearner(loop, gw)
		_, hs := in.keys()
		return func(n int) {
			for i := 0; i < n; i++ {
				a, ok := l.Pick(in.vnic, hs[i%len(hs)])
				if !ok {
					panic("fabric probe: gateway entry missing")
				}
				sinkWord += uint64(a)
			}
		}, 1
	}},

	{"vswitch.scalar_ns_per_pkt", func(in *probeInputs) (func(int), float64) {
		r := newSwitchRig(in, true)
		return func(n int) {
			for i := 0; i < n; i++ {
				for j := 0; j < probeBurst; j++ {
					r.vs.FromVM(r.get(in.flow(i*probeBurst+j), packet.FlagACK))
				}
				drain(r.loop)
			}
		}, probeBurst
	}},
	{"vswitch.burst_ns_per_pkt", func(in *probeInputs) (func(int), float64) {
		r := newSwitchRig(in, true)
		return func(n int) {
			for i := 0; i < n; i++ {
				ps := r.buf[:0]
				for j := 0; j < probeBurst; j++ {
					ps = append(ps, r.get(in.flow(i*probeBurst+j), packet.FlagACK))
				}
				r.vs.FromVMBurst(ps)
				drain(r.loop)
			}
		}, probeBurst
	}},
	{"vswitch.slowpath_ns_per_pkt", func(in *probeInputs) (func(int), float64) {
		// Every packet a fresh SYN; 32 at a time so their slow-path
		// walks fit the CPU queue bound.
		const batch = 32
		r := newSwitchRig(in, false)
		fresh := uint32(0)
		return func(n int) {
			r.vs.Sessions().Clear() // bound the table; no flow here is ever reused
			for i := 0; i < n; i++ {
				for j := 0; j < batch; j++ {
					ft := in.flow(0)
					ft.SrcPort, ft.DstPort = uint16(fresh), uint16(20000+fresh>>16)
					fresh++
					r.vs.FromVM(r.get(ft, packet.FlagSYN))
				}
				drain(r.loop)
			}
		}, batch
	}},

	{"journal.append_ns", func(in *probeInputs) (func(int), float64) {
		j := journal.NewMem()
		fes := []packet.IPv4{cluster.ServerAddr(1), cluster.ServerAddr(2), cluster.ServerAddr(3), cluster.ServerAddr(4)}
		return func(n int) {
			for i := 0; i < n; i++ {
				must(j.Append(journal.Record{Kind: journal.KindPlacement, VNIC: in.vnic, Epoch: uint64(i), Offloaded: true, FEs: fes}))
			}
		}, 1
	}},

	{"obs.counter_inc_ns", func(in *probeInputs) (func(int), float64) {
		c := obs.NewRegistry().GetCounter("probe_total", obs.L("node", "10.0.0.1"))
		return func(n int) {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		}, 1
	}},
	{"obs.snap_ns", func(in *probeInputs) (func(int), float64) {
		// One registry snapshot of a nine-server cluster with all three
		// telemetry layers attached: what a publisher pays per second.
		ob := obs.New(obs.Options{Seed: 1, SampleRate: offSample})
		cluster.New(cluster.Options{Servers: offServers, Seed: 1, Obs: ob, Prof: prof.New(), SLO: slo.NewTracker(slo.Config{})})
		return func(n int) {
			for i := 0; i < n; i++ {
				sinkWord += uint64(len(ob.Snap(sim.Time(i)*sim.Second, 10).Points))
			}
		}, 1
	}},
	{"prof.charge_ns", func(in *probeInputs) (func(int), float64) {
		slot := prof.New().Node("10.0.0.1", offCores).Slot(in.vnic, prof.RoleLocal)
		return func(n int) {
			for i := 0; i < n; i++ {
				slot.Charge(prof.DirTX, prof.StageFastpath, nic.FastPathCycles)
			}
		}, 1
	}},
	{"prof.write_profile_ms", func(in *probeInputs) (func(int), float64) {
		// A profile of nine nodes × five vNICs × every stage.
		p := prof.New()
		for node := 0; node < offServers; node++ {
			np := p.Node(cluster.ServerAddr(node).String(), offCores)
			for v := uint32(1); v <= 5; v++ {
				for s := prof.Stage(0); s < prof.NumStages; s++ {
					np.Slot(v, prof.RoleLocal).Charge(prof.DirTX, s, 1000)
					np.Slot(v, prof.RoleLocal).Charge(prof.DirRX, s, 1000)
				}
			}
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				must(p.WriteProfile(io.Discard, sim.Second, sim.Second))
			}
		}, 1
	}},
	{"slo.record_deliver_ns", func(in *probeInputs) (func(int), float64) {
		t := slo.NewTracker(slo.Config{})
		ks, hs := in.keys()
		return func(n int) {
			for i := 0; i < n; i++ {
				j := i % len(ks)
				t.RecordDeliver(int64(i)*1000, in.vnic, packet.PathFast, packet.DirRX, 20_000, hs[j], ks[j], 128)
			}
		}, 1
	}},
	{"slo.record_drop_ns", func(in *probeInputs) (func(int), float64) {
		t := slo.NewTracker(slo.Config{})
		return func(n int) {
			for i := 0; i < n; i++ {
				t.RecordDrop(int64(i)*1000, in.vnic, uint8(vswitch.DropOverload))
			}
		}, 1
	}},
	{"slo.view_ns", func(in *probeInputs) (func(int), float64) {
		t := slo.NewTracker(slo.Config{})
		ks, hs := in.keys()
		for i := range ks {
			t.RecordDeliver(int64(i)*1000, in.vnic, packet.PathFast, packet.DirRX, 20_000, hs[i], ks[i], 128)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				sinkWord += uint64(len(t.View().VNICs))
			}
		}, 1
	}},
}

func lookupLoop(in *probeInputs, rs *tables.RuleSet) (func(int), float64) {
	var res tables.LookupResult
	return func(n int) {
		for i := 0; i < n; i++ {
			rs.LookupInto(in.flow(i), &res)
		}
		sinkWord += res.Cycles
	}, 1
}

func establishedState() state.State {
	var st state.State
	st.Touch(packet.DirTX, packet.FlagSYN, 0, 1)
	st.Touch(packet.DirRX, packet.FlagSYN|packet.FlagACK, 0, 2)
	st.Touch(packet.DirTX, packet.FlagACK, 0, 3)
	st.Policy = tables.StatsPackets
	st.Pkts = 3
	return st
}

// nezhaPacket is a TX packet as the BE relays it: Nezha header with
// the session state attached.
func nezhaPacket(in *probeInputs) *packet.Packet {
	p := packet.New(1, in.vpc, in.vnic, in.flow(0), packet.DirTX, packet.FlagACK, in.payload)
	st := establishedState()
	p.AttachNezha(&packet.NezhaHeader{Type: packet.NezhaCarryState, VNIC: in.vnic, Dir: packet.DirTX, StateBlob: st.Encode()})
	p.Encap(cluster.ServerAddr(0), cluster.ServerAddr(1))
	return p
}

// filledTable is a session table holding the workload's flows, each
// with pre-actions and established state.
func filledTable(in *probeInputs) (*flowcache.Table, []packet.SessionKey, []uint64) {
	t := flowcache.New(flowcache.Config{})
	ks, hs := in.keys()
	var pre tables.PreActions
	for i := range ks {
		e, err := t.GetOrCreateH(ks[i], hs[i], in.vnic, 0)
		must(err)
		must(t.SetPre(e, pre, 1))
		must(t.SetState(e, establishedState()))
	}
	return t, ks, hs
}

func rawFabric() (*sim.Loop, *fabric.Fabric, packet.IPv4, packet.IPv4) {
	loop := sim.NewLoop(1)
	fab := fabric.New(loop)
	src, dst := cluster.ServerAddr(0), cluster.ServerAddr(1)
	fab.Register(src, 0, func(*packet.Packet) {})
	fab.Register(dst, 0, func(*packet.Packet) {})
	must(fab.SetBurstHandler(dst, func([]*packet.Packet) {}))
	return loop, fab, src, dst
}
