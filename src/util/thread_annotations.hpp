// Clang Thread Safety Analysis shims + the annotated mutex wrappers.
//
// The online engine's lock-free read path (a seqlock around one atomic
// view per commit), the sharded metrics registry and the sweep scheduler all carry
// locking contracts that TSan can only probe as far as test coverage
// reaches. Clang's -Wthread-safety proves them at compile time instead:
// every field names the mutex that guards it (RDT_GUARDED_BY), every
// helper names the mutex it expects held (RDT_REQUIRES), and the compiler
// rejects any access path that does not hold it. The CI `static-analysis`
// job builds the whole tree with -Wthread-safety -Werror=thread-safety;
// on GCC (which has no such analysis) every macro expands to nothing.
//
// House rules, machine-enforced by tools/rdt_lint.cpp (rule `bare-mutex`):
//  * never declare a bare std::mutex — use rdt::AnnotatedMutex;
//  * never lock with std::lock_guard/std::unique_lock — use rdt::MutexLock.
// std::call_once/std::once_flag remain allowed (TSA has no model for them,
// and the lazy-analysis caches in core/ rely on their exact semantics).
//
// Known analysis limits, and the house idioms for them:
//  * Lambdas are analyzed as separate functions: a capability held by the
//    enclosing scope is not visible inside the lambda body. Where a lambda
//    must touch guarded state (e.g. a seqlock read closure filling a
//    reader-cache scratch vector), bind a local reference to the guarded
//    field *outside* the lambda, under the lock, and capture that — the
//    alias documents the transfer and keeps the field itself checkable.
//  * Single-writer published state (PublishedLog, the engine's atomic
//    view) is deliberately *not* GUARDED_BY its writer mutex: readers
//    access it lock-free by design, and the seqlock and release/acquire
//    publication protocol — not the mutex — is what makes that safe. The
//    lint rule `ticket-atomics` checks the complementary invariant: every
//    member the feeder mutates in a seqlock TU is atomic, logged, or
//    feeder-private and GUARDED_BY (readers see it only through the view).
#pragma once

#include <mutex>

#if defined(__clang__)
#define RDT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RDT_THREAD_ANNOTATION(x)
#endif

// A type that acts as a lock (a "capability" in TSA terms).
#define RDT_CAPABILITY(x) RDT_THREAD_ANNOTATION(capability(x))
// An RAII type that acquires in its constructor and releases in its
// destructor (std::lock_guard shape).
#define RDT_SCOPED_CAPABILITY RDT_THREAD_ANNOTATION(scoped_lockable)

// Field annotations: which mutex protects this data (or the data behind
// this pointer).
#define RDT_GUARDED_BY(x) RDT_THREAD_ANNOTATION(guarded_by(x))
#define RDT_PT_GUARDED_BY(x) RDT_THREAD_ANNOTATION(pt_guarded_by(x))

// Function annotations: the caller must hold / must not hold the named
// capabilities, or the function itself acquires / releases them.
#define RDT_REQUIRES(...) \
  RDT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define RDT_REQUIRES_SHARED(...) \
  RDT_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define RDT_ACQUIRE(...) \
  RDT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RDT_ACQUIRE_SHARED(...) \
  RDT_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RDT_RELEASE(...) \
  RDT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RDT_RELEASE_SHARED(...) \
  RDT_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RDT_TRY_ACQUIRE(...) \
  RDT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define RDT_EXCLUDES(...) RDT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Declarative ordering between mutexes (deadlock-freedom hints).
#define RDT_ACQUIRED_BEFORE(...) \
  RDT_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define RDT_ACQUIRED_AFTER(...) \
  RDT_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// A function returning a reference to a capability.
#define RDT_RETURN_CAPABILITY(x) RDT_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch: disables the analysis for one function. Every use must
// carry a comment explaining why the contract cannot be expressed.
#define RDT_NO_TSA RDT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace rdt {

// std::mutex with the TSA capability attribute, so fields can be declared
// RDT_GUARDED_BY(mu_) and helpers RDT_REQUIRES(mu_). Same cost, same
// semantics; only the type carries meaning for the analysis.
class RDT_CAPABILITY("mutex") AnnotatedMutex {
 public:
  AnnotatedMutex() = default;
  AnnotatedMutex(const AnnotatedMutex&) = delete;
  AnnotatedMutex& operator=(const AnnotatedMutex&) = delete;

  void lock() RDT_ACQUIRE() { mu_.lock(); }
  void unlock() RDT_RELEASE() { mu_.unlock(); }
  bool try_lock() RDT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Scoped lock over an AnnotatedMutex (the std::lock_guard of this
// codebase). Declared RDT_SCOPED_CAPABILITY so the analysis tracks the
// acquire/release bracket through construction and destruction.
class RDT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(AnnotatedMutex& mu) RDT_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~MutexLock() RDT_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  AnnotatedMutex& mu_;
};

}  // namespace rdt
