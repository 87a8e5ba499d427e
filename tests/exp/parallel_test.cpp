// parallel_for semantics, in particular worker-exception propagation: a
// throwing task used to escape its worker thread and std::terminate the
// whole process.
#include "exp/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

namespace halfback::exp {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 64;
  std::atomic<int> counts[kCount] = {};
  parallel_for(kCount, [&](std::size_t i) { ++counts[i]; }, /*threads=*/4);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelFor, PropagatesWorkerExceptionToCaller) {
  EXPECT_THROW(
      parallel_for(
          16,
          [](std::size_t i) {
            if (i == 5) throw std::runtime_error{"task 5 failed"};
          },
          /*threads=*/4),
      std::runtime_error);
}

TEST(ParallelFor, PropagatedExceptionCarriesTheOriginalMessage) {
  try {
    parallel_for(
        8,
        [](std::size_t i) {
          if (i == 3) throw std::runtime_error{"boom"};
        },
        /*threads=*/2);
    FAIL() << "parallel_for should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ParallelFor, FailureStopsHandingOutNewWork) {
  // After a task throws, workers must drain without starting fresh tasks;
  // with a failure on the very first index most of the queue stays unrun.
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(parallel_for(
                   1'000'000,
                   [&](std::size_t i) {
                     ++executed;
                     if (i == 0) throw std::runtime_error{"early"};
                   },
                   /*threads=*/2),
               std::runtime_error);
  EXPECT_LT(executed.load(), 1'000'000u);
}

TEST(ParallelFor, MultipleFailuresAggregateIntoOneIndexedError) {
  // Hold every worker at a barrier until all four have claimed a task, then
  // fail them all: the early stop cannot drain the queue first, so all four
  // fail, and the lowest-index failure is rethrown with its type intact —
  // not whichever one the scheduler happened to record first.
  std::atomic<int> started{0};
  try {
    parallel_for(
        4,
        [&](std::size_t i) {
          ++started;
          while (started.load() < 4) std::this_thread::yield();
          throw std::runtime_error{"shard " + std::to_string(i)};
        },
        /*threads=*/4);
    FAIL() << "parallel_for should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 0");
  }
}

TEST(ParallelFor, SingleThreadedPathAlsoPropagates) {
  EXPECT_THROW(parallel_for(
                   4, [](std::size_t) { throw std::logic_error{"serial"}; },
                   /*threads=*/1),
               std::logic_error);
}

}  // namespace
}  // namespace halfback::exp
