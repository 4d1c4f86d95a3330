package main

import (
	"fmt"

	"example/internal/lib"
)

func main() {
	lib.Used()
	var o lib.Other
	o.Called()
	q := lib.Queue{3, 1, 2}
	fmt.Println(lib.Node{}, lib.Drain(&q))
}
