package obs_test

import (
	"strconv"
	"testing"

	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/slo"
)

// campaignObs builds an Obs bundle shaped like one chaos campaign's at
// steady state, about 520 series: eleven vSwitch nodes of counter,
// func and histogram series, a controller-style collector with per-vNIC
// and per-node gauges, the prof collector over eight nodes, and the SLO
// collector over four vNICs, whose 1 024 flows' counts are Zipf-skewed.
func campaignObs() *obs.Obs {
	ob := obs.New(obs.Options{})
	r := ob.Reg
	for n := 0; n < 11; n++ {
		node := obs.L("node", packet.MakeIP(10, 0, byte(n), 1).String())
		for i, name := range []string{
			"vswitch_from_vm_total", "vswitch_from_net_total", "vswitch_delivered_total",
			"vswitch_sent_total", "vswitch_absorbed_total", "vswitch_slowpath_total",
			"vswitch_fastpath_total", "vswitch_notify_sent_total", "vswitch_probes_seen_total",
			"fabric_sends_total", "fabric_delivered_total", "fabric_bytes_total",
			"vswitch_acl_hits_total",
		} {
			r.GetCounter(name, node).Add(uint64((n + 1) * (i + 1) * 1000))
		}
		for _, reason := range []string{"acl", "overload", "no-route", "ttl"} {
			r.GetCounter("vswitch_drops_total", append(obs.L("reason", reason), node...)).Add(7)
		}
		v := uint64(n)
		r.CounterFunc("vswitch_sessions_created_total", node, func() uint64 { return v })
		for _, name := range []string{"vswitch_sessions", "vswitch_vnics", "vswitch_cpu_util", "vswitch_mem_util"} {
			r.GaugeFunc(name, node, func() float64 { return float64(v) / 2 })
		}
		wait := new(slo.Hist)
		wait.Observe(uint64(1000 * (n + 1)))
		r.HistVar("vswitch_queue_wait_ns", node, wait)
	}
	r.Collect(func(emit obs.Emit) {
		for vnic := 1; vnic <= 4; vnic++ {
			l := obs.L("vnic", strconv.Itoa(vnic))
			for _, name := range []string{"controller_vnic_offloaded", "controller_vnic_fes", "controller_vnic_epoch", "controller_vnic_degraded", "controller_vnic_dirty"} {
				emit(name, l, obs.KindGauge, float64(vnic))
			}
		}
		for n := 0; n < 11; n++ {
			l := obs.L("node", packet.MakeIP(10, 0, byte(n), 1).String())
			for _, name := range []string{"controller_node_down", "controller_node_cpu_util", "controller_node_mem_util", "controller_node_remote_share", "controller_node_fronted_vnics"} {
				emit(name, l, obs.KindGauge, float64(n))
			}
		}
	})

	p := prof.New()
	p.SetClock(func() sim.Time { return sim.Second })
	for n := 0; n < 8; n++ {
		np := p.Node(packet.MakeIP(10, 0, byte(n), 1).String(), 2)
		for vnic := uint32(1); vnic <= 2; vnic++ {
			slot := np.Slot(vnic, prof.RoleLocal)
			for _, d := range []prof.Dir{prof.DirTX, prof.DirRX} {
				for _, s := range []prof.Stage{prof.StageFastpath, prof.StageSlowpath, prof.StageEncap, prof.StageNotify, prof.StageSessionInstall} {
					slot.Charge(d, s, 1000)
				}
			}
		}
		np.Slot(1, prof.RoleLocal).MemAlloc(prof.CauseSessionTable, 4096)
	}
	p.Attach(r)

	t := slo.NewTracker(slo.Config{})
	ob.AttachSLO(t)
	for i := 0; i < 1024; i++ {
		ft := packet.FiveTuple{
			SrcIP: packet.IPv4(0x0a000000 + uint32(i)), SrcPort: uint16(1000 + i),
			DstIP: packet.MakeIP(10, 0, 0, 1), DstPort: 80, Proto: packet.ProtoTCP,
		}
		key, _ := packet.SessionKeyOf(uint32(1+i%4), 1, ft)
		for c := 0; c <= 4096/(i+1); c++ { // Zipf-skewed: the top ten are distinct
			t.RecordDeliver(int64(i)*1000, key.VNIC, packet.PathFast, packet.DirRX, 20_000, key.Hash(), key, 128)
		}
	}
	return ob
}

// BenchmarkSnapshot is one publisher tick of a campaign-sized bundle:
// Obs.Snap with the SLO view and its top-10 hot flows.
func BenchmarkSnapshot(b *testing.B) {
	ob := campaignObs()
	series := len(ob.Snap(0, 0).Points)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob.Snap(sim.Time(i+1)*sim.Second, 0)
	}
	b.ReportMetric(float64(series), "series")
}

// TestCampaignObsSize keeps BenchmarkSnapshot's registry campaign-sized.
func TestCampaignObsSize(t *testing.T) {
	if n := len(campaignObs().Snap(sim.Second, 0).Points); n < 480 || n > 560 {
		t.Fatalf("campaignObs snapshots %d series, want about 520", n)
	}
}
