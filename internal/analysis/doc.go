// Package analysis hosts efdvet, the repo's custom static-analysis
// suite: a stdlib-only framework (go/parser + go/ast + go/types over
// a from-source importer, zero module dependencies) plus the eight
// analyzers that mechanically enforce invariants earlier PRs paid for
// in benchmarks and crash tests:
//
//	vfsseam        every internal/tsdb filesystem operation flows
//	               through the vfs.FS seam (PR 6) — otherwise fault
//	               injection and CrashAt sweeps silently lose
//	               coverage of it
//	lockdiscipline no fsync / record encoding / direct file writes
//	               inside the tsdb store-mutex critical sections —
//	               the off-lock group-commit rule (PR 4)
//	hotpath        functions marked //efd:hotpath — and, since PR 10,
//	               everything module-internal reachable from them
//	               through the call graph, minus //efd:coldpath —
//	               stay free of fmt, time.Now, slog, runtime string
//	               concatenation, and map allocation (PR 1/3
//	               allocation-free contract); transitive findings
//	               carry the full call chain from the marked root
//	atomicfield    a struct field accessed through sync/atomic
//	               anywhere is accessed atomically everywhere, and
//	               atomic.Int64-family values are never copied
//	               (PR 10, guarding the PR 6/8/9 lock-free state
//	               machines)
//	apilock        the exported surface of the pinned public packages
//	               matches its golden under testdata/api; intended
//	               changes regenerate with make api-golden (PR 10)
//	erris          sentinel errors are matched with errors.Is, not
//	               ==/!= (PR 5 typed-sentinel contract), excepting
//	               io.EOF from a direct Reader.Read
//	noexit         library packages never terminate or panic on
//	               error values; only cmd/* may (PR 5 embeddability)
//	deadcode       every function is reachable through the call graph
//	               from a main, an init, a package-level declaration,
//	               the pinned public API or a method the standard
//	               library calls; test support carries a suppression
//	               naming its tests
//
// Since PR 10 the engine is interprocedural: one run builds a
// type-resolved module-wide call graph (callgraph.go — static calls
// precise, interface and method-value dispatch via class-hierarchy
// analysis, go statements and deferred calls as edges), cached on the
// run's shared Module so every analyzer consumes one construction.
// Transitive rules only see edges between the packages loaded
// together; the driver loads ./... so the guarantees are
// module-wide.
//
// The cmd/efdvet driver loads ./..., runs the suite, and prints
// file:line:col: [rule] message (or -json), sorted by (file, line,
// col, rule) across packages. Findings are suppressed in place with
//
//	//efdvet:ignore <rule> <reason>
//
// on or directly above the offending line; the reason is mandatory,
// and a suppression whose finding has disappeared is itself reported
// (stale) so the gate cannot rot. LINTS.md at the repo root documents
// each rule, the invariant it guards, and the PR that established it.
//
// Test files are deliberately out of scope: the suite checks shipped
// code, and tests legitimately reach around seams (fault injection
// handles, sentinel identity assertions).
//
// The framework typechecks everything from source — module packages
// resolve against the module tree, the rest against GOROOT — so the
// suite needs no compiled export data, no go/packages, and no
// network. A full ./... pass over this repo costs a few seconds; the
// TestTreeClean dogfood gate runs exactly that on every make
// check, so the tree is always lint-clean by construction.
package analysis
