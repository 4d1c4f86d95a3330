package lib

import "testing"

func TestGuard(t *testing.T) {
	defer func() { _ = recover() }()
	panic("tests may panic")
}
