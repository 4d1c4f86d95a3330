package lib

import "errors"

// table panics in a package-level initializer.
var table = func() []int {
	t := make([]int, 4)
	if len(t) != 4 {
		panic("lib: table built wrong")
	}
	return t
}()

// Guard panics twice, once inside a function literal: both count
// toward the enclosing function.
func Guard(p *int) func() {
	if p == nil {
		panic("lib: Guard with nil")
	}
	return func() {
		if *p < 0 {
			panic("lib: negative")
		}
	}
}

// Ring is a fixed ring.
type Ring struct{ n int }

// Push panics when full.
func (r *Ring) Push() {
	if r.n == len(table) {
		panic("lib: full ring")
	}
	r.n++
}

// Planted is a panic nobody listed.
func Planted() { panic(errors.New("lib: planted")) }

type alarm struct{}

func (alarm) panic() {}

// Quiet calls a method named panic, which is not the builtin.
func Quiet() { alarm{}.panic() }
