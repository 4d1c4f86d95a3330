package other

import (
	"testing"

	"example/internal/lib"
)

func TestLimit(t *testing.T) {
	if lib.Limit != 3 {
		t.Fatal("limit")
	}
}
