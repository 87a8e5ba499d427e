// Clang Thread Safety Analysis annotations (HB_ prefix).
//
// Experiments run many simulator instances concurrently (exp::parallel_for)
// and contend on a small, explicit set of mutation surfaces: metric
// registration in telemetry and the error slot in exp::parallel_for.
// Those surfaces declare their locking contracts with
// the macros below, and the build treats -Wthread-safety as an error (see
// the top-level CMakeLists), so a forgotten lock is a compile failure on
// clang rather than a data race found in production.
//
// On compilers without the attribute (GCC) every macro expands to nothing;
// the annotations are pure documentation there and CI's clang leg keeps
// them honest.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define HB_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define HB_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Marks a type as a lockable capability (e.g. a mutex wrapper).
#define HB_CAPABILITY(x) HB_THREAD_ANNOTATION_(capability(x))

/// Data member readable/writable only while holding `x`.
#define HB_GUARDED_BY(x) HB_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define HB_PT_GUARDED_BY(x) HB_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function that must be called with the listed capabilities held.
#define HB_REQUIRES(...) \
  HB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function that must be called WITHOUT the listed capabilities (it takes
/// them itself; calling with them held would deadlock).
#define HB_EXCLUDES(...) HB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function that acquires the listed capabilities and returns holding them.
#define HB_ACQUIRE(...) HB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function that releases the listed capabilities.
#define HB_RELEASE(...) HB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function returning a reference to data guarded by `x` (caller must hold).
#define HB_RETURN_CAPABILITY(x) HB_THREAD_ANNOTATION_(lock_returned(x))

/// Marks a scoped-guard type (ctor acquires, dtor releases).
#define HB_SCOPED_CAPABILITY HB_THREAD_ANNOTATION_(scoped_lockable)

/// Escape hatch: the function's safety is established by reasoning the
/// analysis cannot follow (e.g. join() as a barrier). Use sparingly and
/// always with a comment saying why.
#define HB_NO_THREAD_SAFETY_ANALYSIS \
  HB_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Effect contract, checked by halfback-lint (docs/static-analysis.md).
///
/// Declares the complete set of effects a function may produce, directly
/// or through anything it calls: `alloc`, `throw`, `clock` (wall-clock
/// reads — Simulator::now() is virtual time and does not count), `rng`,
/// `io` (ambient I/O — writing to a caller-supplied stream does not
/// count), `global_mut`, `block`. `HB_EFFECTS()` with no arguments
/// declares the function pure in this sense.
///
/// The macro expands to nothing for every compiler; the analyzer's
/// `effects` rule gives it teeth, checking the contract in both
/// directions — an undeclared-but-reachable effect is a violation (with
/// the call chain that proves it), and a declared-but-unreachable effect
/// is stale breadth. Place it after the parameter list, next to where
/// noexcept would go:
///
///   void send(Packet p) HB_EFFECTS(alloc, global_mut);
#define HB_EFFECTS(...)

namespace halfback {

/// std::mutex with the capability attribute clang's analysis keys on
/// (libstdc++'s std::mutex carries none, so HB_GUARDED_BY(a std::mutex)
/// would be an -Wthread-safety-attributes error there). Same semantics and
/// cost; exists purely so guarded members can name their lock.
class HB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HB_ACQUIRE() { mu_.lock(); }
  void unlock() HB_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock over Mutex (std::lock_guard is unannotated for the same
/// reason std::mutex is).
class HB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HB_ACQUIRE(mu) : mu_{mu} { mu_.lock(); }
  ~MutexLock() HB_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace halfback
