// DenseUidSet must answer exactly like any set of 64-bit keys: its bitmap,
// the bitmap's growth and the hashed fallback behind it never show in an
// insert or contains answer. Checked differentially against
// std::unordered_set on seeded key streams.
#include "transport/uid_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/random.h"

namespace halfback::transport {
namespace {

constexpr std::uint64_t kDense = DenseUidSet::kDenseKeys;

/// A seeded stream of keys around `base`: both edges of the dense range
/// and the first key past it, keys below the base (whose offsets wrap),
/// 0 and UINT64_MAX, then random draws from the dense range and beyond,
/// below the base, arbitrary 64-bit keys, and repeats of earlier keys.
std::vector<std::uint64_t> key_stream(std::uint64_t base, sim::Random& rng,
                                      std::size_t count) {
  std::vector<std::uint64_t> keys{base,     base + kDense - 1, base + kDense,
                                  base - 1, 0,                 UINT64_MAX};
  const auto draw = [&rng](std::uint64_t hi) {
    return static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(hi)));
  };
  while (keys.size() < count) {
    switch (rng.uniform_int(0, 4)) {
      case 0:
        keys.push_back(base + draw(2 * kDense));
        break;
      case 1:
        keys.push_back(base - 1 - draw(4096));
        break;
      case 2:
        keys.push_back(base + kDense - 64 + draw(128));
        break;
      case 3:
        keys.push_back(static_cast<std::uint64_t>(rng.uniform_int(INT64_MIN, INT64_MAX)));
        break;
      default:
        keys.push_back(keys[draw(keys.size() - 1)]);
        break;
    }
  }
  return keys;
}

void expect_matches_reference(std::uint64_t base, std::uint64_t seed) {
  sim::Random rng{seed};
  const std::vector<std::uint64_t> keys = key_stream(base, rng, 20'000);
  const std::vector<std::uint64_t> probes = key_stream(base, rng, 20'000);
  DenseUidSet set{base};
  std::unordered_set<std::uint64_t> reference;
  for (std::uint64_t key : keys) {
    ASSERT_EQ(set.contains(key), reference.contains(key)) << "key " << key;
    ASSERT_EQ(set.insert(key), reference.insert(key).second) << "key " << key;
    ASSERT_TRUE(set.contains(key)) << "key " << key;
  }
  for (std::uint64_t key : probes) {
    ASSERT_EQ(set.contains(key), reference.contains(key)) << "probe " << key;
  }
}

TEST(DenseUidSetTest, MatchesAReferenceSetAtAFlowPrefixBase) {
  expect_matches_reference(7ULL << 24, 1);
}

TEST(DenseUidSetTest, MatchesAReferenceSetAtBaseZero) {
  expect_matches_reference(0, 2);
}

TEST(DenseUidSetTest, MatchesAReferenceSetWhenTheDenseRangeWrapsPastZero) {
  expect_matches_reference(UINT64_MAX - 100, 3);
}

}  // namespace
}  // namespace halfback::transport
