// Membership sets for wire uids: the exactly-once books.
//
// The delivery boundary inserts one key per accepted packet, so these sets
// are on the per-packet hot path. Every sender and receiver stamps its uids
// `(flow << 24) + counter`, so one flow's uids are dense just above
// `flow << 24`. DenseUidSet keeps such keys as bits over their offset from
// a base and sends every other key to UidSet, a flat open-addressing table:
// keys inline in a power-of-two slot array with linear probing, no
// allocation per insert. Determinism: membership answers are identical to
// any set, and iteration order is never observed.
//
// lint: hot-path — per-packet code; no per-packet allocation or type erasure.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace halfback::transport {

/// Insert-only set of 64-bit keys. Key 0 is handled out of band so the
/// slot array can use 0 as the empty marker.
class UidSet {
 public:
  UidSet() = default;

  /// Insert `key`; returns true if it was not present before.
  bool insert(std::uint64_t key) {
    if (key == 0) {
      const bool fresh = !has_zero_;
      has_zero_ = true;
      return fresh;
    }
    // Grow at 50% load: probes stay short even in the worst case.
    if (slots_.empty() || (size_ + 1) * 2 > slots_.size()) {
      rehash(slots_.empty() ? 64 : slots_.size() * 2);
    }
    std::size_t i = mix(key) & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const {
    if (key == 0) return has_zero_;
    if (slots_.empty()) return false;
    std::size_t i = mix(key) & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == key) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

 private:
  /// splitmix64 finalizer: full-avalanche mix so sequential uids spread
  /// across the table instead of clustering into one probe chain.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
    for (std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t i = mix(key) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  bool has_zero_ = false;
};

/// Insert-only set of 64-bit keys that cluster just above `base`: a bitmap
/// over `key - base` for offsets below kDenseKeys, grown by doubling, and a
/// UidSet for every other key (a key below the base wraps to a huge offset
/// and lands there too). No key costs memory proportional to its value.
class DenseUidSet {
 public:
  static constexpr std::uint64_t kDenseKeys = 1ULL << 20;

  explicit DenseUidSet(std::uint64_t base = 0) : base_{base} {}

  /// Insert `key`; returns true if it was not present before.
  bool insert(std::uint64_t key) {
    const std::uint64_t offset = key - base_;
    if (offset >= kDenseKeys) return beyond_.insert(key);
    const std::size_t word = offset / 64;
    if (word >= bits_.size()) {
      // Double, so keys walking upwards grow the bitmap O(log n) times.
      // lint: hot-ok(amortized bitmap growth, capped at kDenseKeys bits)
      bits_.resize(std::min<std::size_t>(std::max(word + 1, 2 * bits_.size()),
                                         kDenseKeys / 64));
    }
    const std::uint64_t bit = 1ULL << (offset % 64);
    const bool fresh = (bits_[word] & bit) == 0;
    bits_[word] |= bit;
    return fresh;
  }

  bool contains(std::uint64_t key) const {
    const std::uint64_t offset = key - base_;
    if (offset >= kDenseKeys) return beyond_.contains(key);
    const std::size_t word = offset / 64;
    return word < bits_.size() && (bits_[word] >> (offset % 64) & 1ULL) != 0;
  }

 private:
  std::uint64_t base_;
  std::vector<std::uint64_t> bits_;
  UidSet beyond_;  ///< keys outside [base, base + kDenseKeys)
};

}  // namespace halfback::transport
