package lib

import "testing"

func TestLib(t *testing.T) {
	New(Config{TestOnly: 1, Planted: 2, Guarded: 3, Passed: 4})
}
