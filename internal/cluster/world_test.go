package cluster

import (
	"math"
	"strings"
	"testing"
)

func TestBuildRejectsSizesThePlanCannotHold(t *testing.T) {
	for _, c := range []struct {
		servers, clients int
		want             string
	}{
		{servers: 110, clients: 99, want: "99 clients: the address plan holds 1 to 98"},
		{servers: 110, clients: 100, want: "100 clients: the address plan holds 1 to 98"},
		{servers: 8, clients: 0, want: "0 clients"},
		{servers: 8, clients: 8, want: "8 clients need 9 servers, have 8"},
	} {
		s := DefaultSpec()
		s.Servers, s.Clients = c.servers, c.clients
		if _, err := Build(s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%d servers, %d clients: error %v, want one containing %q", c.servers, c.clients, err, c.want)
		}
	}
}

// TestBuildRejectsRatesThatNeverAdvance: a NaN, infinite or negative
// client rate is an error, not a generator that fires every connection
// at one instant.
func TestBuildRejectsRatesThatNeverAdvance(t *testing.T) {
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		s := DefaultSpec()
		s.ClientCPS = r
		if _, err := Build(s); err == nil || !strings.Contains(err.Error(), "client rate") {
			t.Errorf("ClientCPS %v: error %v, want a client-rate error", r, err)
		}
	}
}

// TestBuildLayout checks both placements at the plan's limit: every
// vNIC resolves at the gateway to the server hosting its VM, and the
// server VM keeps its identity.
func TestBuildLayout(t *testing.T) {
	for _, first := range []bool{false, true} {
		s := DefaultSpec()
		s.Servers, s.Clients, s.ServerFirst = 100, 98, first
		w, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		srv := 98
		if first {
			srv = 0
		}
		if w.ServerSwitch() != w.Switch(srv) || w.Server.VNIC != ServerVNIC || w.Server.IP != ServerIP {
			t.Fatalf("ServerFirst=%v: server VM misplaced", first)
		}
		if got, _ := w.GW.Lookup(ServerVNIC); len(got) != 1 || got[0] != ServerAddr(srv) {
			t.Fatalf("ServerFirst=%v: gateway sends the server vNIC to %v, want %v", first, got, ServerAddr(srv))
		}
		for i, vm := range w.Clients {
			host := i
			if first {
				host = i + 1
			}
			got, _ := w.GW.Lookup(vm.VNIC)
			if vm.VNIC != uint32(i+1) || vm.IP != ClientIP(i) || len(got) != 1 || got[0] != ServerAddr(host) {
				t.Fatalf("ServerFirst=%v: client %d is vNIC %d at %v on %v, want server %d", first, i, vm.VNIC, vm.IP, got, host)
			}
		}
		if len(w.Gens) != 98 || len(w.Pool()) != 1 || w.Pool()[0] != w.Switch(99) {
			t.Fatalf("ServerFirst=%v: %d generators, pool %d", first, len(w.Gens), len(w.Pool()))
		}
	}
}
