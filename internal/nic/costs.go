// Package nic models the SmartNIC's finite resources: a multi-core
// CPU served as a FIFO queueing system with bounded queueing delay
// (overload drops), and a byte-accounted memory budget. The paper's
// three bottlenecks all emerge from this model: CPS from slow-path
// cycles, #concurrent flows from fast-path memory, and #vNICs from
// slow-path (rule table) memory.
package nic

import "nezha/internal/sim"

// Calibration constants. The shipped values keep an 8-core vSwitch at
// O(100K) CPS for a five-table connection setup (§2.2.2) and put the
// vSwitch's session-table partition in the hundreds-of-MB band the
// paper describes.
const (
	// DefaultCores is the number of CPU cores the vSwitch gets on the
	// SmartNIC (the testbed allocates 8; the rest serve storage,
	// container networking and the VMM).
	DefaultCores = 8
	// DefaultCoreHz is cycles per second per core.
	DefaultCoreHz = 2_500_000_000
	// DefaultMaxQueueDelay bounds how long a packet may wait for a
	// core before the NIC drops it (finite buffering). Latency grows
	// toward this bound as load approaches capacity — Fig 12's
	// "without Nezha" blow-up.
	DefaultMaxQueueDelay = 2 * sim.Millisecond

	// Datapath cycle costs not tied to a specific rule table (those
	// live in internal/tables).
	FastPathCycles       = 2000  // exact-match session table hit + action
	ProcessPktCycles     = 1500  // process_pkt(pre-actions, states)
	SessionInstallCycles = 25000 // insert a session/cached-flow entry
	EncapCycles          = 1000  // underlay (VXLAN) encap/decap
	StateCarryCycles     = 800   // encode/decode state or pre-actions into header
	NotifyCycles         = 3000  // generate or absorb a notify packet
	PerByteCycles        = 8     // DMA/copy cost per packet byte

	// Control-plane cycle costs. These are attribution-only today:
	// flow-direct control packets bypass the CPU queue (absorbed at
	// the port check) and RPC applies run off the datapath, so these
	// constants feed the profiler's ctrl-stage accounting without
	// changing admission or timing.
	CtrlRPCCycles   = 4000  // parse/dispatch one control RPC
	CtrlApplyCycles = 20000 // apply a config mutation (table install/remove)
)

// DefaultSessionTableBytes is the default partition of vSwitch memory
// granted to the session table: "hundreds of MB to a few GB"
// (§2.2.2). The remainder is shared by rule tables and packet
// buffers.
const DefaultSessionTableBytes = 512 << 20

// DefaultRuleTableBytes is the default partition for per-vNIC rule
// tables ("a few GB" shared with everything else on the slow path).
const DefaultRuleTableBytes = 2 << 30
