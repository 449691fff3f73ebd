// Clang thread-safety annotations and the annotated lock vocabulary the
// concurrent layers are written in (ISSUE 9: the locking contract lives
// in the types, not in comments). Under Clang, `-Wthread-safety -Werror`
// turns every "touched a GUARDED_BY member without its mutex" and every
// "called a REQUIRES method unlocked" into a compile error; under other
// compilers the macros vanish and the wrappers are plain std::mutex /
// std::shared_mutex / condition_variable_any with zero added state.
//
// Conventions (docs/ARCHITECTURE.md "Correctness tooling"):
//  * every mutex-protected member is GUARDED_BY its mutex;
//  * private helpers that expect the lock held are REQUIRES(mutex_)
//    instead of taking a std::unique_lock& parameter;
//  * locking uses util::MutexLock / util::ReaderMutexLock (RAII,
//    SCOPED_CAPABILITY) — never bare lock()/unlock() pairs;
//  * condition waits use util::CondVar in an explicit `while (!pred)`
//    loop, because a predicate lambda is analyzed as a separate function
//    and would need its own annotation;
//  * data that is single-thread-confined instead of lock-protected (the
//    I/O-thread-only fields of net::Server::Conn) carries a comment
//    naming the owning thread — the analysis cannot express confinement.
#ifndef VOTEOPT_UTIL_THREAD_ANNOTATIONS_H_
#define VOTEOPT_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Attribute macros (no-ops outside Clang). Names follow the Clang
// documentation / Abseil capability vocabulary.
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define VOTEOPT_TS_ATTRIBUTE__(x) __attribute__((x))
#else
#define VOTEOPT_TS_ATTRIBUTE__(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) VOTEOPT_TS_ATTRIBUTE__(capability(x))
#define SCOPED_CAPABILITY VOTEOPT_TS_ATTRIBUTE__(scoped_lockable)
#define GUARDED_BY(x) VOTEOPT_TS_ATTRIBUTE__(guarded_by(x))
#define PT_GUARDED_BY(x) VOTEOPT_TS_ATTRIBUTE__(pt_guarded_by(x))
#define ACQUIRE(...) VOTEOPT_TS_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  VOTEOPT_TS_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) VOTEOPT_TS_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  VOTEOPT_TS_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  VOTEOPT_TS_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))
#define REQUIRES(...) \
  VOTEOPT_TS_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  VOTEOPT_TS_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) VOTEOPT_TS_ATTRIBUTE__(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) VOTEOPT_TS_ATTRIBUTE__(assert_capability(x))
#define RETURN_CAPABILITY(x) VOTEOPT_TS_ATTRIBUTE__(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  VOTEOPT_TS_ATTRIBUTE__(no_thread_safety_analysis)

namespace voteopt {

// ---------------------------------------------------------------------------
// Annotated lock types. libstdc++'s std::mutex carries no annotations, so
// the analysis cannot see a std::lock_guard acquire it; these thin
// wrappers put the capability attributes on the operations themselves.
// ---------------------------------------------------------------------------

/// Annotated exclusive mutex. Also BasicLockable (lowercase lock/unlock)
/// so CondVar can re-acquire it inside a wait.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

  /// Documents (to the analysis) that the caller knows the lock is held,
  /// for the rare spot the analysis cannot follow. Runtime no-op.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

  // BasicLockable, for std::condition_variable_any. Annotated the same
  // as Lock/Unlock so direct use is still visible to the analysis.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// Annotated shared (reader/writer) mutex.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void ReaderLock() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over Mutex — the std::lock_guard of this codebase.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII exclusive lock over SharedMutex (writer side).
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared lock over SharedMutex (reader side).
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable over util::Mutex. Waits release and re-acquire the
/// mutex internally (opaque to the analysis: the capability is held on
/// entry and on return, which is exactly the caller-visible contract).
/// Callers loop explicitly — `while (!pred()) cv.Wait(&mu);` — instead
/// of passing predicate lambdas, which the analysis treats as separate
/// unannotated functions.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) { cv_.wait(*mu); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace voteopt

#endif  // VOTEOPT_UTIL_THREAD_ANNOTATIONS_H_
