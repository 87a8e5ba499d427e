// Tiny parallel-for over independent simulations.
//
// Each task builds and runs its own Simulator, so tasks share nothing; the
// only coordination is the work index and the failure slot below. The
// slot's locking contract is declared with the thread-safety annotations
// from sim/annotations.h and checked by clang's -Wthread-safety (an error
// in this build; see the top-level CMakeLists).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "sim/annotations.h"

namespace halfback::exp {

/// The lowest-index failure of a parallel_for. capture() races from worker
/// threads; rethrow_if_any() runs on the calling thread after every worker
/// has joined (it still takes the lock — join already ordered the stores,
/// but the annotated lock keeps the contract checkable rather than argued).
class FirstFailure {
 public:
  void capture(std::size_t index) HB_EXCLUDES(mu_) {
    MutexLock lock{mu_};
    if (error_ == nullptr || index < index_) {
      index_ = index;
      error_ = std::current_exception();
    }
  }

  /// Rethrows the kept failure, type intact; returns if no task failed.
  void rethrow_if_any() HB_EXCLUDES(mu_) {
    std::exception_ptr error;
    {
      MutexLock lock{mu_};
      error = error_;
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  Mutex mu_;
  std::size_t index_ HB_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ HB_GUARDED_BY(mu_);
};

/// Run `fn(i)` for i in [0, count) on up to `threads` workers (defaults to
/// hardware concurrency). `fn` must only touch data owned by index i.
///
/// If a task throws, the failure is kept, the remaining queue is drained
/// without running further tasks, and the calling thread rethrows after
/// all workers join — instead of std::terminate tearing the process down
/// mid-campaign. Tasks already in flight when the stop flag goes up may
/// fail too; the lowest-index failure is rethrown, so the exception's type
/// never depends on how many failed. The serial path (one worker)
/// propagates the first exception directly.
inline void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                         unsigned threads = 0) {
  if (count == 0) return;
  unsigned n = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 4;
  n = static_cast<unsigned>(std::min<std::size_t>(n, count));
  if (n <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  FirstFailure failure;
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    workers.emplace_back([&] {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          failure.capture(i);
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  failure.rethrow_if_any();
}

}  // namespace halfback::exp
