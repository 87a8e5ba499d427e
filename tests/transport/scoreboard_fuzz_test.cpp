// Randomized model-checking of the Scoreboard against a brute-force
// reference implementation: thousands of random send/ACK/loss interleavings
// must produce identical pipe counts, ACK deltas and completion state.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>

#include "sim/random.h"
#include "transport/scoreboard.h"

namespace halfback::transport {
namespace {

using namespace halfback::sim::literals;

/// Trial count, overridable via HALFBACK_FUZZ_ITERS so CI sanitizer jobs can
/// run a deeper sweep than the default local/developer run.
int fuzz_iterations(int fallback) {
  const char* env = std::getenv("HALFBACK_FUZZ_ITERS");
  if (env == nullptr) return fallback;
  const int parsed = std::atoi(env);
  return parsed > 0 ? parsed : fallback;
}

/// Straightforward O(n)-everything reference model.
class ReferenceScoreboard {
 public:
  explicit ReferenceScoreboard(std::uint32_t total) : total_{total} {}

  void on_sent(std::uint32_t seq, bool proactive) {
    if (seq < cum_) return;
    ++times_sent_[seq];
    if (proactive) ++proactive_[seq];
    if (lost_.contains(seq) && !proactive) retx_done_.insert(seq);
  }

  std::uint32_t apply_ack(std::uint32_t cum, const std::vector<net::SackBlock>& sacks) {
    std::uint32_t newly = 0;
    if (cum > cum_) {
      for (std::uint32_t s = cum_; s < cum; ++s) {
        if (!sacked_.contains(s)) ++newly;
      }
      cum_ = std::min(cum, total_);
    }
    for (const net::SackBlock& b : sacks) {
      for (std::uint32_t s = std::max(b.begin, cum_); s < b.end && s < total_; ++s) {
        if (sacked_.insert(s).second) ++newly;
      }
    }
    return newly;
  }

  std::vector<std::uint32_t> detect_losses(int threshold) {
    std::vector<std::uint32_t> newly;
    for (std::uint32_t seq = cum_; seq < total_; ++seq) {
      if (!times_sent_.contains(seq) || sacked_.contains(seq) || lost_.contains(seq)) {
        continue;
      }
      int above = 0;
      for (std::uint32_t s = seq + 1; s < total_; ++s) {
        if (sacked_.contains(s) && s >= cum_) ++above;
      }
      if (above >= threshold) {
        lost_.insert(seq);
        retx_done_.erase(seq);
        newly.push_back(seq);
      }
    }
    return newly;
  }

  std::uint32_t pipe() const {
    std::uint32_t count = 0;
    for (const auto& [seq, times] : times_sent_) {
      if (seq < cum_ || sacked_.contains(seq)) continue;
      if (lost_.contains(seq) && !retx_done_.contains(seq)) continue;
      ++count;
    }
    return count;
  }

  bool complete() const { return cum_ >= total_; }
  std::uint32_t cum() const { return cum_; }
  bool lost(std::uint32_t seq) const { return lost_.contains(seq); }

 private:
  std::uint32_t total_;
  std::uint32_t cum_ = 0;
  std::map<std::uint32_t, int> times_sent_;
  std::map<std::uint32_t, int> proactive_;
  std::set<std::uint32_t> sacked_;
  std::set<std::uint32_t> lost_;
  std::set<std::uint32_t> retx_done_;
};

TEST(ScoreboardFuzzTest, MatchesReferenceModelOnRandomTraces) {
  sim::Random rng{2024};
  const int trials = fuzz_iterations(200);
  for (int trial = 0; trial < trials; ++trial) {
    const auto total = static_cast<std::uint32_t>(rng.uniform_int(1, 60));
    Scoreboard real{total};
    ReferenceScoreboard ref{total};

    std::uint32_t receiver_cum = 0;
    std::set<std::uint32_t> receiver_has;
    std::uint64_t uid = 1;

    for (int step = 0; step < 300 && !real.complete(); ++step) {
      const double op = rng.uniform();
      if (op < 0.45) {
        // Send: next unsent, or a random earlier one (retransmission).
        std::uint32_t seq;
        if (auto next = real.next_unsent(); next.has_value() && rng.bernoulli(0.7)) {
          seq = *next;
        } else {
          seq = static_cast<std::uint32_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
        }
        const bool proactive = rng.bernoulli(0.2);
        real.on_sent(seq, uid++, 1_ms, proactive);
        ref.on_sent(seq, proactive);
        // The "network" delivers it with probability 0.7.
        if (rng.bernoulli(0.7)) {
          receiver_has.insert(seq);
          while (receiver_has.contains(receiver_cum)) ++receiver_cum;
        }
      } else if (op < 0.85) {
        // Deliver an ACK reflecting receiver state: cum + up to 3 blocks.
        std::vector<net::SackBlock> sacks;
        std::uint32_t s = receiver_cum;
        while (s < total && sacks.size() < 3) {
          while (s < total && !receiver_has.contains(s)) ++s;
          if (s >= total) break;
          net::SackBlock block{s, s};
          while (s < total && receiver_has.contains(s)) ++s;
          block.end = s;
          sacks.push_back(block);
        }
        AckUpdate update = real.apply_ack(receiver_cum, sacks);
        std::uint32_t ref_newly = ref.apply_ack(receiver_cum, sacks);
        ASSERT_EQ(update.newly_acked_total(), ref_newly) << "trial " << trial;
      } else {
        const std::size_t real_losses = real.detect_losses();
        const auto ref_losses = ref.detect_losses(3);  // the duplicate-ACK threshold
        ASSERT_EQ(real_losses, ref_losses.size()) << "trial " << trial;
      }
      ASSERT_EQ(real.pipe(), ref.pipe()) << "trial " << trial << " step " << step;
      ASSERT_EQ(real.cum_ack(), ref.cum()) << "trial " << trial;
      ASSERT_EQ(real.complete(), ref.complete()) << "trial " << trial;
      // The scoreboard forgets segments below the cumulative ACK.
      for (std::uint32_t seq = real.cum_ack(); seq < total; ++seq) {
        const SegmentState* s = real.state(seq);
        ASSERT_EQ(s != nullptr && s->lost, ref.lost(seq))
            << "trial " << trial << " step " << step << " seq " << seq;
      }
    }
  }
}

TEST(ScoreboardFuzzTest, NextLostNeedingRetxNeverReturnsAckedSegments) {
  sim::Random rng{77};
  const int trials = fuzz_iterations(100);
  for (int trial = 0; trial < trials; ++trial) {
    const auto total = static_cast<std::uint32_t>(rng.uniform_int(2, 40));
    Scoreboard sb{total};
    std::uint64_t uid = 1;
    for (std::uint32_t s = 0; s < total; ++s) sb.on_sent(s, uid++, 1_ms, false);
    for (int step = 0; step < 50; ++step) {
      const auto cum = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(total)));
      const auto lo = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
      const auto hi = static_cast<std::uint32_t>(
          rng.uniform_int(lo, static_cast<std::int64_t>(total)));
      sb.apply_ack(cum, {{lo, hi}});
      sb.detect_losses();
      if (auto lost = sb.next_lost_needing_retx()) {
        EXPECT_GE(*lost, sb.cum_ack());
        EXPECT_FALSE(sb.is_acked(*lost));
      }
    }
  }
}

}  // namespace
}  // namespace halfback::transport
