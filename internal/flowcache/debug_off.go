//go:build !simdebug

package flowcache

// The lifecycle hooks compile to nothing in normal builds; -tags
// simdebug arms them.

func poison(*Entry)    {}
func checkLive(*Entry) {}
