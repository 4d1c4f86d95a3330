//go:build simdebug

package lib

// mustLive is a tripwire only simdebug builds compile.
func mustLive(live bool) {
	if !live {
		panic("lib: used after free")
	}
}
