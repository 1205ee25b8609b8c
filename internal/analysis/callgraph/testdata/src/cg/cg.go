// Package cg is the callgraph unit-test fixture: a small DAG, a method,
// a call through a function value (no edge), a two-function cycle, and
// the two dynamic resolutions: interface dispatch and a bound field.
package cg

func a() {
	b()
	c()
	b() // duplicate call site: still one edge
}

func b() { c() }

func c() {}

type t struct{}

func (t t) m() { c() }

func viaValue(f func()) { f() } // dynamic: no edge

func loop1() { loop2() }

func loop2() { loop1() }

// shape is a module interface with two implementations: a call through it
// resolves to both.
type shape interface{ area() int }

type sq struct{}
type tri struct{}

func (sq) area() int  { return 1 }
func (tri) area() int { return 2 }

func viaInterface(s shape) int { return s.area() }

// holder.fn is bound to c by a composite literal: a call through the field
// resolves to c.
type holder struct{ fn func() }

func viaField() {
	h := holder{fn: c}
	h.fn()
}
