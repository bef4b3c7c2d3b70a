package core

import (
	"sync"

	"repro/internal/apps"
)

// SharedDictionary is the concurrency contract for serving one
// Dictionary to many goroutines: any number of concurrent readers
// (recognition, stats, save) proceed in parallel, while mutation
// (online Learn, AddN) is exclusive. It is the coordination point the
// HTTP monitoring server uses so recognition polls of many jobs run
// concurrently and an online Learn briefly drains them.
//
// The contract, precisely:
//
//   - Read sections may call any non-mutating Dictionary method —
//     Recognize, Stats, Apps, Entries, Save — and may drive a
//     Recognizer or Stream bound to the dictionary. Reads take no
//     per-entry locks: inside a Read section the recognition hot path
//     is exactly the allocation-free interned lookup of the unshared
//     dictionary.
//   - Write sections get the dictionary exclusively and may call
//     anything, including Learn (which reuses dictionary-owned
//     extraction scratch — safe only because writers are exclusive).
//   - A Result borrows its Recognizer's scratch AND reads the
//     dictionary's interning tables through methods like Votes and
//     Top, so it must be consumed inside the Read section that
//     produced it; do not let a Result escape the closure.
//   - Recognizers and Streams are still single-goroutine objects; the
//     shared wrapper serializes them against writers, not against each
//     other.
//
// The zero value is not usable; wrap an existing dictionary with
// Share.
type SharedDictionary struct {
	mu sync.RWMutex
	d  *Dictionary
}

// Share wraps the dictionary in the read/write concurrency contract.
// The caller must stop using the raw pointer directly once shared.
func Share(d *Dictionary) *SharedDictionary {
	return &SharedDictionary{d: d}
}

// Read runs fn with shared (read) access: any number of Read sections
// run in parallel, and no writer runs concurrently. fn must not mutate
// the dictionary and must not retain d or a Result beyond the call.
func (s *SharedDictionary) Read(fn func(d *Dictionary)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.d)
}

// Write runs fn with exclusive access, excluding all readers and other
// writers. fn must not retain d beyond the call.
func (s *SharedDictionary) Write(fn func(d *Dictionary)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.d)
}

// Learn performs one exclusive online-learning step: it extracts the
// fingerprints of the labelled execution and adds them to the
// dictionary, excluding concurrent readers for the duration.
func (s *SharedDictionary) Learn(src WindowSource, label apps.Label) {
	s.Write(func(d *Dictionary) { d.Learn(src, label) })
}
