//go:build !simdebug

package vswitch

// viewDebugState is empty in normal builds; the lifecycle hooks
// compile to nothing.
type viewDebugState struct{}

func (*viewDebugState) markLive(string)  {}
func (*viewDebugState) markFree(string)  {}
func (*viewDebugState) checkLive(string) {}

func poisonBox(*viewBox) {}
