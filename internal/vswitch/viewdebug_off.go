//go:build !simdebug

package vswitch

// viewDebugState is empty in normal builds; the lifecycle hooks
// compile to nothing.
type viewDebugState struct{}

func viewMarkLive(*viewBox)  {}
func viewMarkFree(*viewBox)  {}
func viewCheckLive(*viewBox) {}

func stageMarkLive(*stageTask)  {}
func stageMarkFree(*stageTask)  {}
func stageCheckLive(*stageTask) {}
