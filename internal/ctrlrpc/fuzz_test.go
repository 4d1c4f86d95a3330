package ctrlrpc

import (
	"testing"

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
// and removed between them. It requires no panic, every op's outcome
// (applied or refused) as the reference model predicts, and the
// vSwitch's HasVNIC, FESetEpoch, FEEpoch, Offloaded and CanServe to
// agree with the model after every op — so epochs never regress.
func FuzzAgentOps(f *testing.F) {
	f.Add([]byte{8, 1, 0, 1, 3, 1, 5, 1, 9, 1, 6, 1})
	f.Add([]byte{0, 2, 0, 6, 1, 2, 1, 6, 0, 2, 8, 3, 2, 7, 3, 3})
	f.Add([]byte{8, 4, 3, 8, 2, 11, 9, 4, 8, 4, 2, 4, 4, 4, 7, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRig(t)
		var models [5]agentModel // by vNIC ID; 0 unused
		var epoch uint64
		for len(data) >= 2 {
			b0, b1 := data[0], data[1]
			data = data[2:]
			vnic := uint32(1 + b1%4)
			m := &models[vnic]
			var op Op
			switch k := int(b0) % (len(agentOps) + 2); k {
			case len(agentOps):
				op = opAddVNIC
			case len(agentOps) + 1:
				op = opRemoveVNIC
			default:
				op = agentOps[k]
			}
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
