// Package journal is the controller's write-ahead log: every control
// plane mutation — committed per-vNIC placements and epochs, two-phase
// transaction intents and their resolutions, node health transitions,
// parked FE removals, and policy cooldown state — is appended as one
// deterministic record before (or atomically with) the in-memory
// mutation it describes. A crashed controller rebuilds its entire
// world from snapshot + tail and then reconciles against the live
// agents; nothing the controller knows is allowed to live only in RAM.
//
// The journal is layered over a Store that holds encoded lines.
// MemStore backs deterministic simulation: a crash "loses" the process
// but the store survives, exactly like a file on disk would. Records are JSON-encoded
// structs with a fixed field order, so identical mutation sequences
// produce byte-identical journals — the same determinism contract the
// rest of the simulator keeps.
//
// Growth is bounded by periodic snapshots: every SnapshotEvery appends
// the journal asks its registered compactors for the minimal record
// set describing current state, writes it as the new snapshot, and
// truncates the tail. Replay is snapshot records followed by tail
// records, in append order; all record applications are idempotent
// full-state overwrites, so replaying a snapshot that already includes
// later tail records is harmless.
package journal

import (
	"encoding/json"
	"fmt"

	"nezha/internal/packet"
)

// Kind enumerates record types.
type Kind uint8

// Record kinds.
const (
	// KindPlacement is a committed per-vNIC placement: epoch, offload
	// state, FE pool. Written at every commit/abort resolution and at
	// every non-transactional epoch bump (pool repair pushes, scale-in,
	// failover evictions). Full-state overwrite: the latest placement
	// record for a vNIC wins.
	KindPlacement Kind = iota + 1
	// KindIntent is a two-phase transaction intent, written at prepare
	// time before the first InstallFE leaves the controller. An intent
	// with no matching KindResolve at replay time is exactly the
	// "prepared but unresolved" state recovery must reconcile.
	KindIntent
	// KindResolve closes the vNIC's open intent: Committed reports
	// whether the transaction committed (gateway flip pushed) or
	// aborted (targets rolled back).
	KindResolve
	// KindNode records a node health transition (Down true/false), so
	// recovery does not have to rediscover pre-crash failures from the
	// monitor.
	KindNode
	// KindRemoval tracks a parked FE-table removal: Done=false when the
	// removal is deferred (learner horizon, unreachable FE), Done=true
	// when the RemoveFE finally acked. Replay rebuilds the retry set.
	KindRemoval
	// KindPolicy is the policy engine's per-vNIC cooldown stamps and
	// pool model, appended after each decision so a recovered
	// controller resumes hysteresis where the dead one left off.
	KindPolicy
)

func (k Kind) String() string {
	switch k {
	case KindPlacement:
		return "placement"
	case KindIntent:
		return "intent"
	case KindResolve:
		return "resolve"
	case KindNode:
		return "node"
	case KindRemoval:
		return "removal"
	case KindPolicy:
		return "policy"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Txn kinds mirrored from the controller (the journal package must not
// import it).
const (
	TxnOffload uint8 = iota + 1
	TxnScaleOut
	TxnFallback
)

// Record is one journal entry. Which fields matter depends on Kind;
// unused fields stay zero and are omitted from the encoding. Times are
// sim.Time ticks stored as int64 so the package stays import-light.
type Record struct {
	Kind  Kind   `json:"k"`
	VNIC  uint32 `json:"v,omitempty"`
	Epoch uint64 `json:"e,omitempty"`
	// Txn is the transaction kind for intents (TxnOffload, ...).
	Txn uint8 `json:"x,omitempty"`
	// Committed reports commit vs abort on KindResolve.
	Committed bool `json:"c,omitempty"`
	// Offloaded / Pinned / FEs describe a placement (and the policy
	// view's offload state on KindPolicy).
	Offloaded bool          `json:"o,omitempty"`
	Pinned    bool          `json:"p,omitempty"`
	FEs       []packet.IPv4 `json:"f,omitempty"`
	// Stale is the placement's pending-rollback FE set (installs that
	// must be reconciled away before the vNIC can transact again).
	Stale []packet.IPv4 `json:"st,omitempty"`
	// Node is the subject of KindNode and KindRemoval records.
	Node packet.IPv4 `json:"n,omitempty"`
	Down bool        `json:"d,omitempty"`
	// Done closes a KindRemoval.
	Done bool `json:"dn,omitempty"`
	// RetryAt / LastScale are placement cooldown stamps; LastFlip and
	// the Flipped/Scaled bits are the policy cooldown stamps; Pool is
	// the policy's virtual pool size.
	RetryAt   int64 `json:"r,omitempty"`
	LastScale int64 `json:"ls,omitempty"`
	LastFlip  int64 `json:"lf,omitempty"`
	Flipped   bool  `json:"fl,omitempty"`
	Scaled    bool  `json:"sc,omitempty"`
	Pool      int   `json:"pl,omitempty"`
}

// Store is the durable layer under a Journal. It deals in encoded
// lines so implementations stay oblivious to record semantics.
type Store interface {
	// Append adds one encoded record to the tail.
	Append(line []byte) error
	// Snapshot atomically replaces the durable state with the given
	// snapshot lines and an empty tail.
	Snapshot(lines [][]byte) error
	// Load returns the current snapshot and tail lines.
	Load() (snap, tail [][]byte, err error)
	// SizeBytes is the durable footprint (snapshot + tail).
	SizeBytes() int64
}

// Stats counts journal activity.
type Stats struct {
	Appends   uint64
	Snapshots uint64
	Replays   uint64
	Errors    uint64
}

// Journal encodes records onto a Store and snapshots periodically.
type Journal struct {
	store      Store
	snapEvery  int
	sinceSnap  int
	compactors []func() []Record

	Stats Stats
}

// DefaultSnapshotEvery is the append count between snapshots.
const DefaultSnapshotEvery = 256

// New wraps a store. snapEvery <= 0 uses DefaultSnapshotEvery.
func New(store Store, snapEvery int) *Journal {
	if snapEvery <= 0 {
		snapEvery = DefaultSnapshotEvery
	}
	return &Journal{store: store, snapEvery: snapEvery}
}

// NewMem is the sim-mode convenience: a journal over a fresh MemStore.
func NewMem() *Journal { return New(NewMemStore(), 0) }

// AddCompactor registers a provider of current-state records. At
// snapshot time the journal concatenates every compactor's output (in
// registration order) into the new snapshot. The controller registers
// one for placements, intents, nodes, removals and the policy engine's
// cooldown tracks.
func (j *Journal) AddCompactor(fn func() []Record) {
	j.compactors = append(j.compactors, fn)
}

// Append encodes and durably appends one record, snapshotting when the
// tail has grown past the snapshot interval. Store errors are counted
// and returned but leave the journal usable — a controller with a
// sick disk keeps flying on its in-memory state.
func (j *Journal) Append(r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		j.Stats.Errors++
		return err
	}
	if err := j.store.Append(line); err != nil {
		j.Stats.Errors++
		return err
	}
	j.Stats.Appends++
	j.sinceSnap++
	if j.sinceSnap >= j.snapEvery && len(j.compactors) > 0 {
		return j.Compact()
	}
	return nil
}

// Compact writes a fresh snapshot from the registered compactors and
// truncates the tail.
func (j *Journal) Compact() error {
	var lines [][]byte
	for _, fn := range j.compactors {
		for _, r := range fn() {
			line, err := json.Marshal(r)
			if err != nil {
				j.Stats.Errors++
				return err
			}
			lines = append(lines, line)
		}
	}
	if err := j.store.Snapshot(lines); err != nil {
		j.Stats.Errors++
		return err
	}
	j.Stats.Snapshots++
	j.sinceSnap = 0
	return nil
}

// Replay decodes snapshot + tail in append order. A truncated or
// corrupt trailing line (torn write at crash time) ends the replay
// silently; a corrupt line in the middle is an error.
func (j *Journal) Replay() ([]Record, error) {
	snap, tail, err := j.store.Load()
	if err != nil {
		j.Stats.Errors++
		return nil, err
	}
	all := make([]Record, 0, len(snap)+len(tail))
	for seg, lines := range [][][]byte{snap, tail} {
		for i, line := range lines {
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				if seg == 1 && i == len(lines)-1 {
					// Torn tail write: the record never became durable.
					break
				}
				j.Stats.Errors++
				return nil, fmt.Errorf("journal: corrupt record %d: %w", i, err)
			}
			all = append(all, r)
		}
	}
	j.Stats.Replays++
	return all, nil
}

// SizeBytes is the durable footprint.
func (j *Journal) SizeBytes() int64 { return j.store.SizeBytes() }

// MemStore is the simulation store: encoded lines in memory. A
// controller "crash" abandons the process state; the MemStore plays
// the role of the disk that survives it.
type MemStore struct {
	snap [][]byte
	tail [][]byte
	size int64
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append adds a line to the tail.
func (m *MemStore) Append(line []byte) error {
	cp := make([]byte, len(line))
	copy(cp, line)
	m.tail = append(m.tail, cp)
	m.size += int64(len(line)) + 1
	return nil
}

// Snapshot replaces snapshot + tail.
func (m *MemStore) Snapshot(lines [][]byte) error {
	m.snap = make([][]byte, len(lines))
	m.size = 0
	for i, line := range lines {
		cp := make([]byte, len(line))
		copy(cp, line)
		m.snap[i] = cp
		m.size += int64(len(line)) + 1
	}
	m.tail = nil
	return nil
}

// Load returns the stored lines.
func (m *MemStore) Load() (snap, tail [][]byte, err error) {
	return m.snap, m.tail, nil
}

// SizeBytes is the stored byte count (with newline framing).
func (m *MemStore) SizeBytes() int64 { return m.size }
