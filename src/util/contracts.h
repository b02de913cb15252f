// Machine-checked contract annotations.
//
// These macros mark the contracts that `tools/lint/dmt_lint` enforces at
// lint time (see tools/lint/README.md and the "Machine-checked contracts"
// section of docs/ARCHITECTURE.md). They are deliberately zero-cost: under
// GCC they expand to nothing (dmt_lint discovers them lexically and maps
// them onto the GENERIC AST), under Clang they additionally emit
// [[clang::annotate]] attributes so future Clang-based tooling can see
// them too. DMT_HOT_KERNEL, at the end, is the exception: a code-placement
// attribute the compiler acts on and dmt_lint ignores.
//
// Placement rules (the lint tool relies on these):
//  * DMT_NO_ALLOC / DMT_ALLOC_OK go on the function *definition*, on the
//    line of (or up to two lines above) the function's signature. Putting
//    them only on a header declaration documents intent but does not bind
//    the checker; annotate the definition.
//  * DMT_NOALIAS goes directly before the parameter name inside the
//    definition's parameter list (it expands to `__restrict__`, so it also
//    tells the optimizer).
//  * DMT_ATOMIC_PUBLISH / DMT_ATOMIC_COUNTER / DMT_GUARDED_BY go on the
//    field *declaration*, on the line of (or up to three lines above) the
//    field.
//  * DMT_WRITER_SIDE / DMT_UNTRUSTED_INPUT go on the function
//    *definition*, like DMT_NO_ALLOC.
#ifndef DMT_UTIL_CONTRACTS_H_
#define DMT_UTIL_CONTRACTS_H_

// DMT_NO_ALLOC: this function (and everything reachable from it, minus
// DMT_ALLOC_OK barriers) must not allocate: no operator new / malloc, no
// growing std::vector / std::string, no Matrix reallocation. Enforced by
// dmt_lint's `noalloc-violation` check via a transitive call-graph walk.
//
// DMT_ALLOC_OK("reason"): explicitly allowlisted cold/setup path. The
// call-graph walk stops here instead of descending; the reason string is
// mandatory and should say why allocation is acceptable (one-time setup,
// shape change, error path). dmt_lint rejects an empty reason.
#if defined(__clang__)
#define DMT_NO_ALLOC [[clang::annotate("dmt::no_alloc")]]
#define DMT_ALLOC_OK(reason) [[clang::annotate("dmt::alloc_ok:" reason)]]
#else
#define DMT_NO_ALLOC
#define DMT_ALLOC_OK(reason)
#endif

// DMT_NOALIAS: parameter annotation for kernel buffers with a documented
// no-alias contract ("`c` must not alias `a` or `b`"). Expands to
// `__restrict__`, so the compiler may assume — and dmt_lint's
// `noalias-duplicate-arg` check verifies at every call site — that two
// DMT_NOALIAS parameters of the same call never receive provably
// identical buffers where at least one side is written.
#if defined(_MSC_VER)
#define DMT_NOALIAS __restrict
#else
#define DMT_NOALIAS __restrict__
#endif

// Atomic-field classification (dmt_lint's atomics-discipline family).
//
// DMT_ATOMIC_PUBLISH: this std::atomic field carries synchronization — it
// publishes data another thread will read (RCU current pointer, epoch
// announcements, refcount pins, slot ownership flags). Every operation on
// it must name an explicit non-relaxed std::memory_order; dmt_lint's
// `atomic-publish-relaxed` check rejects relaxed operations, and
// `atomic-implicit-order` rejects defaulted (implicit seq_cst) orders and
// the operator forms (++/--/+=/=) that cannot name an order at all.
//
// DMT_ATOMIC_COUNTER: this std::atomic field is a pure statistic — it
// orders nothing and is only read for reporting after the threads that
// write it have joined (or where approximate values are acceptable).
// Operations must be explicitly memory_order_relaxed; anything stronger is
// an unjustified fence and dmt_lint's `atomic-counter-order` check rejects
// it. Every atomic field in the concurrency-scoped directories must carry
// exactly one of these two classifications (`atomic-unclassified`).
//
// DMT_GUARDED_BY(guard): this field may only be touched by code that holds
// `guard` — either a mutex member name (e.g. DMT_GUARDED_BY(mutex_)), or
// the reserved word `writer` meaning the single-writer role: only
// functions marked DMT_WRITER_SIDE (or reached exclusively from them) may
// touch the field. Enforced lexically by dmt_lint's
// `guard-unlocked-access` check over the per-TU call graph; constructors
// and the destructor of the owning class are exempt (no other thread can
// hold a reference yet / still).
//
// DMT_WRITER_SIDE: this function runs on the single writer thread of its
// data structure and may touch DMT_GUARDED_BY(writer) fields.
#if defined(__clang__)
#define DMT_ATOMIC_PUBLISH [[clang::annotate("dmt::atomic_publish")]]
#define DMT_ATOMIC_COUNTER [[clang::annotate("dmt::atomic_counter")]]
#define DMT_GUARDED_BY(guard) [[clang::annotate("dmt::guarded_by:" #guard)]]
#define DMT_WRITER_SIDE [[clang::annotate("dmt::writer_side")]]
#else
#define DMT_ATOMIC_PUBLISH
#define DMT_ATOMIC_COUNTER
#define DMT_GUARDED_BY(guard)
#define DMT_WRITER_SIDE
#endif

// DMT_UNTRUSTED_INPUT: this function parses bytes an adversary controls
// (wire frames, serialized messages). It must fail by returning an error —
// dmt_lint's `untrusted-input` family verifies that no path reachable from
// it calls an aborting function (`untrusted-abort-path`: the DMT_CHECK
// family, abort/exit/terminate), and that wire-derived sizes inside its
// body are clamped before they reach an allocation
// (`untrusted-unclamped-alloc`: a remaining()/FitsRemaining or kMax*
// bound, or a prior call to another DMT_UNTRUSTED_INPUT decoder that
// already validated the size).
#if defined(__clang__)
#define DMT_UNTRUSTED_INPUT [[clang::annotate("dmt::untrusted_input")]]
#else
#define DMT_UNTRUSTED_INPUT
#endif

// DMT_HOT_KERNEL: starts this function on a 64-byte boundary. Not a lint
// contract but a code-placement one: a hot kernel's alignment otherwise
// depends on how much code the linker happens to place ahead of it, so
// deleting unrelated code elsewhere can move a kernel from 0 to 32 mod 64
// and shift a benchmark rate by several percent with no instruction on
// its path changed. The attribute sits in the source, so every build of
// src/ carries it, including ones with their own build files. It pins the
// entry, not the loops inside: a kernel whose hot loop then lands across
// a 64-byte line also has to place that loop (see kernels::Rank1Update).
// Put it on the definition, like DMT_NO_ALLOC. Besides the linalg
// kernels it pins the serving query path (every out-of-line QueryEngine
// entry point and SnapshotReader::Acquire) and P2's per-arrival
// P2Threshold::SiteUpdate. GCC and Clang honour it; other compilers get
// nothing.
#if defined(__GNUC__) || defined(__clang__)
#define DMT_HOT_KERNEL __attribute__((aligned(64)))
#else
#define DMT_HOT_KERNEL
#endif

#endif  // DMT_UTIL_CONTRACTS_H_
