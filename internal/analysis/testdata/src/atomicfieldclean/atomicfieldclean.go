// Package atomicfieldclean is the negative fixture for atomicfield:
// the exact shapes the real tree relies on — the engine's store-state
// snapshot behind a CAS-replaced atomic pointer
// (efd/monitor/health.go), the Int32 CAS ladder, and the obs kit's
// CAS-on-float64-bits loop (internal/obs) — must stay finding-free.
// If a future analyzer change flags any of this, the analyzer is
// wrong, not the tree.
package atomicfieldclean

import (
	"math"
	"sync/atomic"
)

const (
	modeNone int32 = iota
	modeRW
	modeDegraded
	modeReadonly
)

// snapshot is one immutable state of the monitor engine's store-mode
// ladder.
type snapshot struct {
	mode  int32
	cause error
}

// ladder models the engine's store-mode state machine: one snapshot
// behind a typed atomic pointer, replaced only by a CompareAndSwap
// from the snapshot the caller saw, so each transition's side effects
// run exactly once; readers Load the snapshot once.
type ladder struct {
	state       atomic.Pointer[snapshot]
	transitions atomic.Int64
}

func (l *ladder) transition(from, next *snapshot) bool {
	if !l.state.CompareAndSwap(from, next) {
		return false // lost the race; the winner logged and counted
	}
	l.transitions.Add(1)
	return true
}

func (l *ladder) degrade(err error) bool {
	s := l.state.Load()
	return s.mode == modeRW && l.transition(s, &snapshot{mode: modeDegraded, cause: err})
}

func (l *ladder) writable() bool {
	return l.state.Load().mode == modeRW
}

// engine models the same ladder as a bare mode word: a typed atomic
// Int32, transitions via CompareAndSwap, reads via Load.
type engine struct {
	storeMode atomic.Int32
	demotions atomic.Int64
}

func (e *engine) degrade() bool {
	if !e.storeMode.CompareAndSwap(modeRW, modeDegraded) {
		return false // lost the race; the winner logged and counted
	}
	e.demotions.Add(1)
	return true
}

func (e *engine) readonly() bool {
	return e.storeMode.CompareAndSwap(modeRW, modeReadonly)
}

func (e *engine) writable() bool {
	return e.storeMode.Load() == modeRW
}

func (e *engine) reset() {
	e.storeMode.Store(modeNone)
}

// gauge models the obs kit's float64 gauge: the value lives as bits
// in an atomic.Uint64, updated by a CAS loop.
type gauge struct {
	bits atomic.Uint64
}

func (g *gauge) add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

func (g *gauge) value() float64 {
	return math.Float64frombits(g.bits.Load())
}

// word models the pre-typed-atomic style still legal when every site
// is atomic: a plain int64 field whose accesses all go through
// sync/atomic word operations.
type word struct {
	n int64
}

func (w *word) incr() int64 { return atomic.AddInt64(&w.n, 1) }
func (w *word) get() int64  { return atomic.LoadInt64(&w.n) }
func (w *word) set(v int64) { atomic.StoreInt64(&w.n, v) }
func (w *word) cas(o, n int64) bool {
	return atomic.CompareAndSwapInt64(&w.n, o, n)
}

var (
	_ = (*ladder).degrade
	_ = (*ladder).writable
	_ = (*engine).degrade
	_ = (*engine).readonly
	_ = (*engine).writable
	_ = (*engine).reset
	_ = (*gauge).add
	_ = (*gauge).value
	_ = (*word).incr
	_ = (*word).get
	_ = (*word).set
	_ = (*word).cas
)
