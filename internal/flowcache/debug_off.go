//go:build !simdebug

package flowcache

import (
	"nezha/internal/packet"
	"nezha/internal/state"
)

// The lifecycle hooks compile to nothing in normal builds; -tags
// simdebug arms them.

func poison(*Entry)                       {}
func checkLive(*Entry)                    {}
func checkVNIC(packet.SessionKey, uint32) {}
func poisonState(*state.State)            {}
func checkState(*state.State)             {}
func poisonPre(*preSlot)                  {}
func checkPre(*preSlot)                   {}
func checkNone()                          {}
