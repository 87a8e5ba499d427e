// The trace hash is FNV-1a over each mixed word's eight little-endian
// bytes. audit::fnv1a_mix folds the multiplies of the word's high zero
// bytes into one; these tests hold it to the byte-serial definition on
// every byte width and on a million fixed-seed words.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "audit/invariant_auditor.h"

namespace halfback::audit {
namespace {

/// The definition: one XOR and one multiply per byte, low byte first.
std::uint64_t byte_serial_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

constexpr std::uint64_t kStartHashes[] = {
    kFnvOffsetBasis, 0, 1, UINT64_MAX, 0x0123456789abcdefULL,
};

TEST(TraceHashTest, FoldedStepMatchesByteSerialAtEveryByteWidth) {
  for (std::uint64_t start : kStartHashes) {
    EXPECT_EQ(fnv1a_mix(start, 0), byte_serial_mix(start, 0)) << start;
    EXPECT_EQ(fnv1a_mix(start, UINT64_MAX), byte_serial_mix(start, UINT64_MAX))
        << start;
    for (int k = 0; k < 64; ++k) {
      const std::uint64_t power = 1ULL << k;
      EXPECT_EQ(fnv1a_mix(start, power), byte_serial_mix(start, power))
          << "start " << start << ", 2^" << k;
      EXPECT_EQ(fnv1a_mix(start, power - 1), byte_serial_mix(start, power - 1))
          << "start " << start << ", 2^" << k << " - 1";
    }
  }
}

TEST(TraceHashTest, FoldedStepMatchesByteSerialOnAMillionRandomWords) {
  // Each word keeps a random number of low bits, so every byte width is
  // drawn; the hashes chain, as the auditor's do.
  std::mt19937_64 rng{20151201};
  std::uint64_t folded = kFnvOffsetBasis;
  std::uint64_t serial = kFnvOffsetBasis;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t word = rng() >> (rng() % 64);
    folded = fnv1a_mix(folded, word);
    serial = byte_serial_mix(serial, word);
    ASSERT_EQ(folded, serial) << "word " << i << " = " << word;
  }
}

}  // namespace
}  // namespace halfback::audit
