// Package main exercises the deadcode analyzer: each live function
// below is reached from exactly one kind of root or edge, so dropping
// that root or edge kind from the rule makes the fixture fail; a
// helper only a dead function calls is dead too.
package main

import (
	"errors"
	"fmt"
)

// handlers names one in a package-level declaration: the graph has no
// edges out of var initializers, so the name itself is a root.
var handlers = map[string]func() int{"one": one}

func one() int { return viaVar() }

func viaVar() int { return 1 }

// init is a root, and setup is reached only from it.
func init() { setup() }

func setup() {}

type shape interface{ area() int }

type square struct{ side int }

// area is reached only by interface dispatch.
func (s square) area() int { return s.side * s.side }

type ticker struct{ n int }

// tick is reached only as a method value handed to run.
func (t *ticker) tick() { t.n++ }

func run(f func()) { f() }

func spawned() {}

func deferred() {}

type celsius float64

// String is called by fmt through fmt.Stringer, never by module code.
func (c celsius) String() string { return fmt.Sprintf("%.1f C", float64(c)) }

var errBase = errors.New("base")

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped" }

// Unwrap is found by errors.Is through an anonymous interface.
func (w wrapped) Unwrap() error { return w.err }

func main() {
	var s shape = square{side: 2}
	fmt.Println(s.area(), handlers["one"]())
	tk := &ticker{}
	run(tk.tick)
	go spawned()
	defer deferred()
	fmt.Println(celsius(21.5), errors.Is(wrapped{err: errBase}, errBase))
}

// orphan is reached from no root.
func orphan() int { return orphanHelper() } // want `orphan is dead code`

// orphanHelper is called only by the dead orphan, so it is dead too.
func orphanHelper() int { return 2 } // want `orphanHelper is dead code`

// kept is dead but deliberately kept: the suppression drops the
// finding, and is used, so it is not stale either.
//
//efdvet:ignore deadcode fixture: test support kept on purpose
func kept() {} // want `kept is dead code`
