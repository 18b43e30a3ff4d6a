#pragma once

// Clang Thread Safety Analysis annotations and the annotated synchronization
// primitives the engine layers use. Compiling with clang and -Wthread-safety
// (the static-analysis CI job adds -Werror) turns the locking discipline of
// engine/serving.h and engine/sharded_learner.cc into compile-time errors:
// touching a WMS_GUARDED_BY member without holding its mutex, releasing a
// lock twice, or waiting on a condition variable without the lock held all
// fail the build. On gcc (and on clang without the warning) everything
// expands to nothing and the wrappers are zero-cost veneers over std::mutex
// and std::condition_variable.
//
// The wrappers exist because libstdc++'s std::mutex carries no analysis
// attributes, so `std::lock_guard<std::mutex>` is invisible to the checker.
// wmsketch::Mutex + wmsketch::MutexLock are the annotated equivalents.

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define WMS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define WMS_THREAD_ANNOTATION(x)
#endif

// A type that acts as a capability (lockable).
#define WMS_CAPABILITY(x) WMS_THREAD_ANNOTATION(capability(x))
// RAII types that acquire in the constructor and release in the destructor.
#define WMS_SCOPED_CAPABILITY WMS_THREAD_ANNOTATION(scoped_lockable)
// Data members readable/writable only while the capability is held.
#define WMS_GUARDED_BY(x) WMS_THREAD_ANNOTATION(guarded_by(x))
#define WMS_PT_GUARDED_BY(x) WMS_THREAD_ANNOTATION(pt_guarded_by(x))
// Functions that must be called with / without the capability held.
#define WMS_REQUIRES(...) WMS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define WMS_EXCLUDES(...) WMS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Functions that acquire / release the capability.
#define WMS_ACQUIRE(...) WMS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define WMS_RELEASE(...) WMS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// Escape hatch for code the analysis cannot model (document why at each use).
#define WMS_NO_THREAD_SAFETY_ANALYSIS WMS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace wmsketch {

class CondVar;

/// std::mutex with thread-safety-analysis attributes. Prefer MutexLock for
/// scoped acquisition; Lock/Unlock exist for the rare manual protocols.
class WMS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() WMS_ACQUIRE() { mu_.lock(); }
  void Unlock() WMS_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped lock over a wmsketch::Mutex (the annotated lock_guard/unique_lock).
class WMS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) WMS_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() WMS_RELEASE() {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable whose waits are checked against the mutex they
/// atomically release: callers must hold `mu` (the same mutex `lock` locked)
/// or the analysis rejects the call site. Waits re-acquire before returning,
/// so the capability is continuously held from the checker's point of view —
/// the one thing it cannot see is the unlock window inside the wait, which
/// is exactly the blind spot the guarded-member annotations cover (the
/// predicate re-checks after every wakeup).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu, MutexLock& lock) WMS_REQUIRES(mu) {
    static_cast<void>(mu);
    cv_.wait(lock.lock_);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace wmsketch
