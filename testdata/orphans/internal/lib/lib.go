// Package lib holds one exported identifier per case the orphan gate
// must tell apart.
package lib

import "container/heap"

// Planted is called only by this package's tests: an orphan.
func Planted() {}

// TestOnly and its method are used only by this package's tests.
type TestOnly struct{}

// Method is called only by this package's tests.
func (TestOnly) Method() {}

// Allowed is an orphan the controls put on an allow-list.
func Allowed() {}

// Node is printed through fmt: its String method is reached only
// through fmt.Stringer.
type Node struct{}

func (Node) String() string { return "node" }

// Queue is driven only through container/heap.
type Queue []int

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *Queue) Push(x any)        { *q = append(*q, x.(int)) }

func (q *Queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Drain pops q in order.
func Drain(q *Queue) []int {
	Internal()
	heap.Init(q)
	var out []int
	for len(*q) > 0 {
		out = append(out, heap.Pop(q).(int))
	}
	return out
}

// Internal is used only by this package's own non-test code.
func Internal() {}

// Used is called from cmd/.
func Used() {}

// BenchOnly is called only from the bench/ module.
func BenchOnly() {}

// ExampleOnly is called only from examples/.
func ExampleOnly() {}

// Other's method is called on a value in cmd/.
type Other struct{}

// Called is reached through a value, not a package selector.
func (Other) Called() {}

// Limit is read only by another package's tests.
const Limit = 3
