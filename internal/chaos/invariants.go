package chaos

import (
	"fmt"

	"nezha/internal/flowcache"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/vswitch"
)

// RegisterStandard installs the built-in invariants: packet
// conservation, single-copy session-state residency, the failover
// detection bound, no-duplicate-delivery, and — when the system
// carries a gateway — no-blackhole.
func RegisterStandard(e *Engine) {
	e.Register(PacketConservation(e.sys))
	e.Register(StateResidency(e.sys))
	e.Register(FailoverBound(e))
	e.Register(NoDuplicateDelivery(e.sys))
	if e.sys.GW != nil {
		e.Register(NoBlackhole(e.sys))
	}
	if e.sys.Ctrl != nil {
		e.Register(NoDuplicateReplay(e.sys))
		e.Register(CtrlRecoveryBound(e))
		if e.sys.GW != nil {
			e.Register(CtrlEpochMonotonic(e.sys))
		}
	}
}

// --- Packet conservation ---------------------------------------------

type packetConservation struct{ sys System }

// PacketConservation checks that nothing vanishes silently: the
// fabric's send ledger balances against deliveries, losses, and
// in-flight packets, and every vSwitch's ingress balances against
// forwards, VM deliveries, absorbed control packets, accounted drops,
// and packets queued in its CPU model. Both equations hold at every
// event boundary, so the check may run at any time.
func PacketConservation(sys System) Invariant { return &packetConservation{sys} }

func (c *packetConservation) Name() string { return "packet-conservation" }

func (c *packetConservation) Check(now sim.Time) error {
	f := c.sys.Fab
	if got := f.Delivered + f.Lost + f.ChaosLost + f.InFlight(); got != f.Sends {
		return fmt.Errorf(
			"fabric ledger: sends=%d != delivered=%d + lost=%d + chaos-lost=%d + in-flight=%d (=%d); %d packet(s) unaccounted",
			f.Sends, f.Delivered, f.Lost, f.ChaosLost, f.InFlight(), got, int64(f.Sends)-int64(got))
	}
	for _, vs := range c.sys.Switches {
		s := vs.Stats
		in := s.FromVM + s.FromNet
		out := s.Sent + s.Delivered + s.TotalDrops() + s.Absorbed + uint64(vs.InFlightCPU())
		if in != out {
			return fmt.Errorf(
				"vswitch %v ledger: in=%d (vm=%d net=%d) != out=%d (sent=%d delivered=%d drops=%d absorbed=%d cpu=%d)",
				vs.Addr(), in, s.FromVM, s.FromNet, out,
				s.Sent, s.Delivered, s.TotalDrops(), s.Absorbed, vs.InFlightCPU())
		}
	}
	return nil
}

// --- Single-copy session-state residency -----------------------------

type stateResidency struct {
	sys System
	// holders is the cross-switch key → first-holder map, kept between
	// walks and consulted only for multiply-resident vNICs.
	holders map[packet.SessionKey]packet.IPv4
}

// StateResidency checks the zero-state-sync design invariant: every
// session's state lives on exactly one vSwitch, and that vSwitch is
// the session's vNIC home (its BE). FEs may cache stateless
// pre-actions anywhere, but a second state copy — or a state copy on
// a frontend — would mean Nezha silently became a state-replicating
// system.
//
// The check runs every CheckEvery, so it reads each table's count of
// stateful entries per (vNIC, VPC) scope (flowcache.Table.StateCounts)
// instead of its entries: a session key names its vNIC (a flowcache
// entry belongs to its key's vNIC, which the simdebug build checks at
// creation), so a violation needs state for a vNIC on a switch where
// it is not resident, or state for one vNIC on two switches. Only when
// the counts show one of those — never, in a healthy world — does it
// walk the entries, and the walk alone decides the verdict and names
// the first offending session.
func StateResidency(sys System) Invariant {
	return &stateResidency{sys: sys, holders: make(map[packet.SessionKey]packet.IPv4)}
}

func (c *stateResidency) Name() string { return "single-copy-state-residency" }

func (c *stateResidency) Check(now sim.Time) error {
	for _, vs := range c.sys.Switches {
		suspect := false
		vs.Sessions().StateCounts(func(vnic, _ uint32) bool {
			suspect = !vs.HasVNIC(vnic) || c.statefulElsewhere(vs, vnic)
			return !suspect
		})
		if suspect {
			return c.walk()
		}
	}
	return nil
}

// statefulElsewhere reports whether vnic has state on a switch other
// than home.
func (c *stateResidency) statefulElsewhere(home *vswitch.VSwitch, vnic uint32) bool {
	for _, vs := range c.sys.Switches {
		if vs == home {
			continue
		}
		found := false
		vs.Sessions().StateCounts(func(v, _ uint32) bool {
			found = v == vnic
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// walk finds the first violating session in sweep order: switches in
// order, each table's entries in slab order.
func (c *stateResidency) walk() error {
	clear(c.holders)
	for _, vs := range c.sys.Switches {
		var err error
		// One-vNIC memo: a switch's stateful entries belong to the few
		// vNICs resident on it, mostly in runs.
		var memo struct {
			vnic            uint32
			valid           bool
			resident, multi bool
		}
		tab := vs.Sessions()
		tab.Range(func(e *flowcache.Entry) bool {
			if !e.HasState() {
				return true
			}
			key := tab.Key(e)
			if !memo.valid || memo.vnic != key.VNIC {
				memo.vnic, memo.valid = key.VNIC, true
				memo.resident = vs.HasVNIC(key.VNIC)
				memo.multi = memo.resident && c.residentElsewhere(vs, key.VNIC)
			}
			if !memo.resident {
				err = fmt.Errorf("session state for vNIC %d held at %v, where the vNIC is not resident (FE holding state)",
					key.VNIC, vs.Addr())
				return false
			}
			if !memo.multi {
				return true
			}
			if first, dup := c.holders[key]; dup {
				err = fmt.Errorf("session state for vNIC %d duplicated: copies at %v and %v", key.VNIC, first, vs.Addr())
				return false
			}
			c.holders[key] = vs.Addr()
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// residentElsewhere reports whether vnic is resident on a switch other
// than home.
func (c *stateResidency) residentElsewhere(home *vswitch.VSwitch, vnic uint32) bool {
	for _, vs := range c.sys.Switches {
		if vs != home && vs.HasVNIC(vnic) {
			return true
		}
	}
	return false
}

// --- Failover bound --------------------------------------------------

type failoverBound struct{ eng *Engine }

// FailoverBound checks the §4.4 claim: a vSwitch that stays crashed
// for the full detection window is declared down by the monitor, and
// the controller rebalances away from it, no later than crash time +
// Config.DetectWindow. Episodes overlapping a widespread-failure
// guard trip are exempt — the guard deliberately suspends automatic
// removal (§C.2). A declaration that predates the crash (the monitor
// had already isolated the target) satisfies the bound.
func FailoverBound(e *Engine) Invariant { return &failoverBound{eng: e} }

func (c *failoverBound) Name() string { return "failover-bound" }

func (c *failoverBound) Check(now sim.Time) error {
	mon, ctrl := c.eng.sys.Mon, c.eng.sys.Ctrl
	window := c.eng.cfg.DetectWindow
	if mon == nil || window <= 0 {
		return nil
	}
	guard := mon.GuardActive()
	for _, ep := range c.eng.crashes {
		if ep.judged {
			continue
		}
		if guard && now <= ep.reviveAt {
			ep.exempt = true
		}
		deadline := ep.start + window
		if c.eng.sys.Ctrl != nil {
			// A controller outage overlapping the window buffers the
			// monitor's declaration; the rebalance clock restarts when
			// recovery drains it.
			adj, wait := c.eng.ctrlDeadline(ep.start, deadline, window)
			if wait {
				continue
			}
			deadline = adj
		}
		if now < deadline {
			continue
		}
		ep.judged = true
		switch {
		case ep.exempt:
			continue // guard suspended declarations during the window
		case ep.reviveAt < deadline:
			continue // short blip: detection optional
		case now > ep.reviveAt:
			continue // revived between checks: declaration may have cleared
		}
		at, ok := mon.DeclaredAt(ep.addr)
		if !ok || at > deadline {
			return fmt.Errorf("vswitch %v crashed at %v not declared down within %v (deadline %v)",
				ep.addr, ep.start, window, deadline)
		}
		if ctrl != nil {
			ft, ok := ctrl.FailoverTime(ep.addr)
			if !ok || ft > deadline {
				return fmt.Errorf("vswitch %v declared down at %v but controller had not rebalanced by deadline %v",
					ep.addr, at, deadline)
			}
		}
	}
	return nil
}

// --- No duplicate delivery -------------------------------------------

// dupPageBits is log2 of the packet IDs one page of the delivered set
// covers: 4096 IDs, one bit each, in 64 words.
const dupPageBits = 12

// dupPage marks which IDs of one page were delivered.
type dupPage [1 << dupPageBits / 64]uint64

type dupDelivery struct {
	// pages is the set of delivered packet IDs as a paged bitset keyed by
	// id>>dupPageBits. The world issues IDs densely from one counter, so
	// this costs about a bit per ID.
	pages map[uint64]*dupPage
	err   error
}

// NoDuplicateDelivery checks that a packet reaches a VM at most once,
// across dual-running, rebalancing, and failover. It taps every
// vSwitch's delivery path; packet IDs are simulation-unique for VM
// traffic. (Traffic mirroring to a VM-bearing sink would clone IDs —
// campaigns do not enable it.)
func NoDuplicateDelivery(sys System) Invariant {
	d := &dupDelivery{pages: make(map[uint64]*dupPage)}
	for _, vs := range sys.Switches {
		vs.SetDeliveryObserver(func(vnic uint32, p *packet.Packet, _ sim.Time) {
			d.deliver(p.ID, vnic, vs.Addr())
		})
	}
	return d
}

// deliver records packet id's delivery to vnic at the switch at; the
// first repeat of any ID is the invariant's error.
func (d *dupDelivery) deliver(id uint64, vnic uint32, at packet.IPv4) {
	key := id >> dupPageBits
	pg := d.pages[key]
	if pg == nil {
		pg = new(dupPage)
		d.pages[key] = pg
	}
	w, bit := &pg[id%(1<<dupPageBits)/64], uint64(1)<<(id%64)
	if *w&bit != 0 {
		if d.err == nil {
			d.err = fmt.Errorf("packet id=%d (vNIC %d) delivered twice, second copy at %v", id, vnic, at)
		}
		return
	}
	*w |= bit
}

func (d *dupDelivery) Name() string { return "no-duplicate-delivery" }

func (d *dupDelivery) Check(now sim.Time) error { return d.err }

// --- No blackhole -----------------------------------------------------

type noBlackhole struct {
	sys       System
	byAddr    map[packet.IPv4]*vswitch.VSwitch
	lastEpoch map[uint32]uint64
}

// NoBlackhole checks the transactional control plane's commit
// guarantee: the gateway never routes a vNIC at an address that has no
// committed rule tables for it (neither an installed FE instance nor a
// resident vNIC still holding its tables), never at an empty address
// list, and a vNIC entry's config epoch never regresses. A crashed
// vSwitch still counts as servable — it retains its configured tables,
// and routing at a crash victim is the failover bound's business, not
// a commit-ordering bug. The two-phase commit (prepare: install FE
// rules and gather acks; commit: flip the gateway) makes this hold by
// construction; the bypass knob in the controller exists to prove this
// invariant fires when it is violated.
func NoBlackhole(sys System) Invariant {
	byAddr := make(map[packet.IPv4]*vswitch.VSwitch, len(sys.Switches))
	for _, vs := range sys.Switches {
		byAddr[vs.Addr()] = vs
	}
	return &noBlackhole{sys: sys, byAddr: byAddr, lastEpoch: make(map[uint32]uint64)}
}

func (c *noBlackhole) Name() string { return "no-blackhole" }

func (c *noBlackhole) Check(now sim.Time) error {
	var err error
	c.sys.GW.Range(func(vnic uint32, addrs []packet.IPv4, epoch uint64) bool {
		if last := c.lastEpoch[vnic]; epoch < last {
			err = fmt.Errorf("gateway entry for vNIC %d regressed from epoch %d to %d", vnic, last, epoch)
			return false
		}
		c.lastEpoch[vnic] = epoch
		if len(addrs) == 0 {
			err = fmt.Errorf("gateway routes vNIC %d at an empty address list (epoch %d)", vnic, epoch)
			return false
		}
		for _, a := range addrs {
			vs, known := c.byAddr[a]
			if !known {
				err = fmt.Errorf("gateway routes vNIC %d at unknown address %v (epoch %d)", vnic, a, epoch)
				return false
			}
			if !vs.CanServe(vnic) {
				err = fmt.Errorf("gateway routes vNIC %d at %v, which has no committed rules for it (epoch %d)",
					vnic, a, epoch)
				return false
			}
		}
		return true
	})
	return err
}
