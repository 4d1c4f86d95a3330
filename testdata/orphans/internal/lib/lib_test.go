package lib

import "testing"

func TestLib(t *testing.T) {
	Planted()
	TestOnly{}.Method()
	Allowed()
}
