// Stateful decapsulation under Nezha — the §5.2 case study.
//
// A load balancer (LB) forwards a client's packet to a real server
// (RS), keeping the client's address as the inner source. The RS's
// vSwitch must remember the overlay source (the LB) when it
// decapsulates, so the RS's response goes back through the LB rather
// than directly to the client (who has no TCP connection with the
// RS). With the RS's vNIC offloaded, the FE would overwrite the outer
// source — so it preserves the original in the Nezha header and the
// BE initializes the decap state from it.
//
//	go run ./examples/stateful_decap
package main

import (
	"fmt"

	"nezha/internal/fabric"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
)

const (
	vpc     = 7
	lbVNIC  = 50
	rsVNIC  = 2
	cliPort = 33000
)

var (
	addrLB = packet.MakeIP(192, 168, 0, 1) // server hosting the LB
	addrRS = packet.MakeIP(192, 168, 0, 2) // server hosting the RS (BE)
	addrFE = packet.MakeIP(192, 168, 0, 3) // idle SmartNIC fronting the RS
	lbIP   = packet.MakeIP(10, 0, 9, 9)    // LB overlay address
	rsIP   = packet.MakeIP(10, 0, 2, 1)    // RS overlay address
	cliIP  = packet.MakeIP(203, 0, 113, 7) // external client
)

func rsRules() *tables.RuleSet {
	rs := tables.NewRuleSet(rsVNIC, vpc)
	// The RS can route to the LB's overlay address...
	rs.Route.Add(tables.MakePrefix(lbIP, 32), packet.IPv4(lbVNIC))
	// ...and (wrongly, for LB-mediated flows) directly to clients.
	rs.Route.Add(tables.MakePrefix(packet.MakeIP(203, 0, 113, 0), 24), 0)
	return rs
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	loop := sim.NewLoop(1)
	fab := fabric.New(loop)
	gw := fabric.NewGateway(loop)

	vsLB := vswitch.New(loop, fab, gw, vswitch.Config{Addr: addrLB})
	vsRS := vswitch.New(loop, fab, gw, vswitch.Config{Addr: addrRS})
	vsFE := vswitch.New(loop, fab, gw, vswitch.Config{Addr: addrFE})

	// The LB's vNIC lives on vsLB; responses arriving there are
	// "back at the LB".
	lbGot := 0
	must(vsLB.AddVNIC(tables.NewRuleSet(lbVNIC, vpc), false))
	vsLB.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		if vnic == lbVNIC {
			lbGot++
			fmt.Printf("  LB received RS response %v (inner %v)\n", p.ID, p.Tuple)
		}
	})

	// The RS vNIC has stateful decap enabled — offloaded to one FE.
	rsGot := 0
	must(vsRS.AddVNIC(rsRules(), true))
	vsRS.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
		rsGot++
		fmt.Printf("  RS received client packet %v (outer src was the LB)\n", p.ID)
	})
	must(vsFE.InstallFE(rsRules(), addrRS, true))
	must(vsRS.OffloadStart(rsVNIC, []packet.IPv4{addrFE}))
	gw.Set(rsVNIC, addrFE)
	must(vsRS.OffloadFinalize(rsVNIC))
	gw.Set(lbVNIC, addrLB)

	fmt.Println("stateful decap (§5.2): LB → RS → (must return via LB)")
	fmt.Println()

	// 1. The LB forwards the client's SYN to the RS: inner source is
	//    the CLIENT, outer source is the LB. The gateway sends it to
	//    the FE, which preserves the outer source in the Nezha header.
	ft := packet.FiveTuple{SrcIP: cliIP, DstIP: rsIP, SrcPort: cliPort, DstPort: 80, Proto: packet.ProtoTCP}
	p := packet.New(1, vpc, rsVNIC, ft, packet.DirRX, packet.FlagSYN, 64)
	p.Encap(lbIP, addrFE)
	fab.Send(lbIP, addrFE, p)
	loop.RunAll()

	// The BE recorded the LB address in the session state.
	key, _ := packet.SessionKeyOf(rsVNIC, vpc, ft)
	if e := vsRS.Sessions().Peek(key); e != nil {
		fmt.Printf("  BE state: DecapIP=%v (the LB) — kept in ONE local copy\n", vsRS.Sessions().State(e).DecapIP)
	}

	// 2. The RS responds to the client address; stateful decap
	//    reroutes the response to the LB.
	resp := packet.New(2, vpc, rsVNIC, ft.Reverse(), packet.DirTX, packet.FlagSYN|packet.FlagACK, 64)
	vsRS.FromVM(resp)
	loop.RunAll()

	fmt.Println()
	if rsGot == 1 && lbGot == 1 {
		fmt.Println("OK: the response traveled RS → FE → LB, not RS → client.")
		fmt.Println("Without stateful decap the client would have dropped it (no TCP session with the RS).")
	} else {
		fmt.Printf("UNEXPECTED: rsGot=%d lbGot=%d\n", rsGot, lbGot)
	}
}
