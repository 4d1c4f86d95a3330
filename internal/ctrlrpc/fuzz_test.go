package ctrlrpc

import (
	"errors"
	"slices"
	"testing"

	"nezha/internal/fabric"
	"nezha/internal/packet"
)

// agentModel is the reference an agent's vSwitch must match for one
// vNIC: the home side (resident, its FE-set epoch, offloaded, rules
// held) and a hosted FE instance (present, its epoch).
type agentModel struct {
	resident, offloaded, rules bool
	feSetEpoch                 uint64
	hasFE                      bool
	feEpoch                    uint64
}

// apply is the model's transition for one operation; it reports
// whether the vSwitch must refuse it.
func (m *agentModel) apply(op Op, epoch uint64) (refused bool) {
	switch op {
	case OpInstallFE:
		if m.hasFE && epoch < m.feEpoch {
			return true
		}
		m.hasFE, m.feEpoch = true, epoch
	case OpRemoveFE:
		if m.hasFE && m.feEpoch <= epoch {
			m.hasFE, m.feEpoch = false, 0
		}
	case OpSetFEs, OpOffloadStart:
		if !m.resident || epoch < m.feSetEpoch {
			return true
		}
		m.feSetEpoch = epoch
		m.offloaded = m.offloaded || op == OpOffloadStart
	case OpOffloadAbort, OpFallbackFinalize:
		if !m.resident {
			return true
		}
		m.offloaded = false
	case OpOffloadFinalize:
		if !m.resident || !m.offloaded {
			return true
		}
		m.rules = false
	case OpFallbackStart:
		if !m.resident {
			return true
		}
		m.rules, m.offloaded = true, false
	}
	return false
}

// agentOps are the agent's control ops FuzzAgentOps draws from.
var agentOps = []Op{
	OpInstallFE, OpRemoveFE, OpSetFEs, OpOffloadStart, OpOffloadAbort,
	OpOffloadFinalize, OpFallbackStart, OpFallbackFinalize,
}

// opAddVNIC and opRemoveVNIC install and remove the resident vNIC on
// the vSwitch directly (no agent op does), which exercises its vNIC
// table on removal and reinstall.
const (
	opAddVNIC    = Op(200)
	opRemoveVNIC = Op(201)
)

// agentDraws is every op FuzzAgentOps draws from: the control ops, the
// direct vNIC table changes, and the OpQueryVNIC recovery reads.
var agentDraws = append(slices.Clone(agentOps), opAddVNIC, opRemoveVNIC, OpQueryVNIC)

func opName(op Op) string {
	switch op {
	case opAddVNIC:
		return "add-vnic"
	case opRemoveVNIC:
		return "remove-vnic"
	}
	return op.String()
}

// FuzzAgentOps drives one agent and its vSwitch through random
// sequences of control ops on four vNICs, each sent through the
// transport at a fresh or a stale epoch, with resident vNICs installed
// and removed between them and OpQueryVNIC reads among them. It
// requires no panic, every op's outcome (applied or refused) as the
// reference model predicts, every query's reply (resident, offloaded,
// FE-set epoch, hosted FE and its epoch) equal to the model, and the
// vSwitch's HasVNIC, FESetEpoch, FEEpoch, Offloaded and CanServe to
// agree with the model after every op — so epochs never regress.
func FuzzAgentOps(f *testing.F) {
	f.Add([]byte{8, 1, 0, 1, 3, 1, 5, 1, 9, 1, 6, 1})
	f.Add([]byte{0, 2, 0, 6, 1, 2, 1, 6, 0, 2, 8, 3, 2, 7, 3, 3})
	f.Add([]byte{8, 4, 3, 8, 2, 11, 9, 4, 8, 4, 2, 4, 4, 4, 7, 4})
	// Add, push, offload, query; host an FE, query; a stale push, query.
	f.Add([]byte{8, 1, 2, 1, 3, 1, 10, 1, 0, 2, 10, 2, 2, 13, 10, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRig(t)
		var models [5]agentModel // by vNIC ID; 0 unused
		var epoch uint64
		for len(data) >= 2 {
			b0, b1 := data[0], data[1]
			data = data[2:]
			vnic := uint32(1 + b1%4)
			m := &models[vnic]
			op := agentDraws[int(b0)%len(agentDraws)]
			// Most pushes carry the next epoch; one in four replays an
			// older one, as a retried or reordered push does.
			epoch++
			e := epoch
			if b1>>2%4 == 3 {
				e -= uint64(1 + b1>>4)
				if e > epoch {
					e = 0
				}
			}

			switch op {
			case opAddVNIC:
				if err := r.vs.AddVNIC(mkRules(vnic), false); (err != nil) != m.resident {
					t.Fatalf("AddVNIC(%d): err %v, resident %v", vnic, err, m.resident)
				}
				if !m.resident {
					*m = agentModel{resident: true, rules: true, hasFE: m.hasFE, feEpoch: m.feEpoch}
				}
			case opRemoveVNIC:
				r.vs.RemoveVNIC(vnic)
				*m = agentModel{hasFE: m.hasFE, feEpoch: m.feEpoch}
			case OpQueryVNIC:
				done := false
				var rep *Reply
				var err error
				r.t.Query(r.vs.Addr(), &Request{Op: op, VNIC: vnic}, func(got *Reply, e error) { done, rep, err = true, got, e })
				for !done {
					if !r.loop.Step() {
						t.Fatalf("query on vNIC %d never completed", vnic)
					}
				}
				switch {
				case err != nil || rep == nil:
					t.Fatalf("query vNIC %d: reply %+v, err %v", vnic, rep, err)
				case rep.Resident != m.resident || rep.Offloaded != (m.resident && m.offloaded) || rep.Epoch != m.feSetEpoch:
					t.Fatalf("query vNIC %d: resident %v offloaded %v FE-set epoch %d, model %+v",
						vnic, rep.Resident, rep.Offloaded, rep.Epoch, *m)
				case rep.HasFE != m.hasFE || rep.FEEpoch != m.feEpoch:
					t.Fatalf("query vNIC %d: FE %v at epoch %d, model %+v", vnic, rep.HasFE, rep.FEEpoch, *m)
				}
			default:
				req := &Request{Op: op, VNIC: vnic, Epoch: e, BE: ip(10, 0, 0, 2),
					FEs: []packet.IPv4{ip(10, 0, 0, 3)}}
				if op == OpInstallFE || op == OpFallbackStart {
					req.Rules = mkRules(vnic)
				}
				done := false
				var err error
				r.t.Call(r.vs.Addr(), req, func(e error) { done, err = true, e })
				for !done {
					if !r.loop.Step() {
						t.Fatalf("%v on vNIC %d never completed", op, vnic)
					}
				}
				want := m.apply(op, e)
				if (err != nil) != want {
					t.Fatalf("%v vNIC %d epoch %d: err %v, model refuses %v (%+v)", op, vnic, e, err, want, *m)
				}
			}

			for v := uint32(1); v <= 4; v++ {
				m := &models[v]
				fe, hasFE := r.vs.FEEpoch(v)
				switch {
				case r.vs.HasVNIC(v) != m.resident:
					t.Fatalf("after %s: HasVNIC(%d) %v, model %v", opName(op), v, r.vs.HasVNIC(v), m.resident)
				case hasFE != m.hasFE || fe != m.feEpoch:
					t.Fatalf("after %s: FEEpoch(%d) %d,%v, model %d,%v", opName(op), v, fe, hasFE, m.feEpoch, m.hasFE)
				case r.vs.FESetEpoch(v) != m.feSetEpoch:
					t.Fatalf("after %s: FESetEpoch(%d) %d, model %d", opName(op), v, r.vs.FESetEpoch(v), m.feSetEpoch)
				case r.vs.Offloaded(v) != (m.resident && m.offloaded):
					t.Fatalf("after %s: Offloaded(%d) %v, model %+v", opName(op), v, r.vs.Offloaded(v), *m)
				case r.vs.CanServe(v) != (m.hasFE || m.resident && m.rules):
					t.Fatalf("after %s: CanServe(%d) %v, model %+v", opName(op), v, r.vs.CanServe(v), *m)
				}
			}
		}
	})
}

// gatewayModel is the reference the gateway's entry for one vNIC must
// match: whether it is set, its epoch and its FE set.
type gatewayModel struct {
	set   bool
	epoch uint64
	fes   []packet.IPv4
}

// opUnknown is an op no agent defines; the gateway must refuse it.
const opUnknown = Op(250)

// FuzzGatewayOps drives a gateway agent through random sequences of
// OpGatewaySet pushes on four vNICs — at a fresh epoch, the entry's own
// epoch (a retry) or a stale one, each with some subset of three FE
// addresses — interleaved with OpQueryGateway queries and pushes of ops
// the gateway does not apply. It requires no panic, every push applied
// or refused as a per-vNIC (epoch, FE set) model predicts, every query
// reply equal to the model, and the gateway's table equal to the model
// after every op.
func FuzzGatewayOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 28, 2, 0}) // a push one epoch stale, then a query
	f.Add([]byte{0, 1, 1, 1, 0, 13, 1, 13, 2, 2, 0, 6})
	f.Add([]byte{0, 0, 0, 0x19, 0, 0x3d, 1, 1, 0, 0x2a, 1, 2, 2, 3, 1, 3})
	f.Add([]byte{0, 0x41, 0, 0xc1, 1, 1, 0, 0xe5, 1, 1, 0, 0x09, 1, 1})
	fes := []packet.IPv4{ip(10, 0, 1, 1), ip(10, 0, 1, 2), ip(10, 0, 1, 3)}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRig(t)
		ga := NewGatewayAgent(r.loop, r.fab, r.t, r.gw, ip(10, 0, 0, 252))
		var models [5]gatewayModel // by vNIC ID; 0 unused
		var epoch uint64
		// wait steps the loop until the op's callback has fired.
		wait := func(op Op, vnic uint32, done *bool) {
			for !*done {
				if !r.loop.Step() {
					t.Fatalf("%v on vNIC %d never completed", op, vnic)
				}
			}
		}
		for len(data) >= 2 {
			b0, b1 := data[0], data[1]
			data = data[2:]
			vnic := uint32(1 + b1%4)
			m := &models[vnic]
			op := []Op{OpGatewaySet, OpGatewaySet, OpQueryGateway, opUnknown}[b0%4]
			// Most pushes carry the next epoch; some retry the entry's
			// own, and some replay an older one, as a reordered push does.
			epoch++
			e := epoch
			switch b1 >> 2 % 4 {
			case 2:
				e = m.epoch
			case 3:
				e -= uint64(1 + b1>>4)
				if e > epoch {
					e = 0
				}
			}
			var set []packet.IPv4
			for i, a := range fes {
				if b0>>(2+i)&1 != 0 {
					set = append(set, a)
				}
			}

			done := false
			switch op {
			case OpQueryGateway:
				var rep *Reply
				var err error
				r.t.Query(ga.Addr(), &Request{Op: op, VNIC: vnic}, func(got *Reply, e error) { done, rep, err = true, got, e })
				wait(op, vnic, &done)
				if err != nil || rep == nil {
					t.Fatalf("query vNIC %d: reply %+v, err %v", vnic, rep, err)
				}
				if rep.Resident != m.set || rep.Epoch != m.epoch || !slices.Equal(rep.Addrs, m.fes) {
					t.Fatalf("query vNIC %d: reply resident %v epoch %d FEs %v, model %+v", vnic, rep.Resident, rep.Epoch, rep.Addrs, *m)
				}
			default:
				var err error
				r.t.Call(ga.Addr(), &Request{Op: op, VNIC: vnic, Epoch: e, FEs: set}, func(e error) { done, err = true, e })
				wait(op, vnic, &done)
				refused := op == opUnknown || m.set && e < m.epoch
				if (err != nil) != refused {
					t.Fatalf("%v vNIC %d epoch %d: err %v, model refuses %v (%+v)", op, vnic, e, err, refused, *m)
				}
				if op == OpGatewaySet && refused && !errors.Is(err, fabric.ErrStaleEpoch) {
					t.Fatalf("stale push on vNIC %d at epoch %d: err %v, want ErrStaleEpoch", vnic, e, err)
				}
				if !refused {
					*m = gatewayModel{set: true, epoch: e, fes: set}
				}
			}

			for v := uint32(1); v <= 4; v++ {
				m := &models[v]
				addrs, ok := r.gw.Lookup(v)
				if ok != m.set || r.gw.Epoch(v) != m.epoch || !slices.Equal(addrs, m.fes) {
					t.Fatalf("after %v on vNIC %d: vNIC %d entry %v at epoch %d (set %v), model %+v",
						op, vnic, v, addrs, r.gw.Epoch(v), ok, *m)
				}
			}
		}
	})
}
