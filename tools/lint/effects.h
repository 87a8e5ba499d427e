// The interprocedural effect-inference engine behind the `effects` rule.
//
// An effect is something a function does to the world beyond computing its
// result: allocate, throw, read a wall clock, draw randomness, touch
// ambient I/O, mutate process-wide state, or block the calling thread.
// The engine infers the effect set of every function in the model
// bottom-up over the call graph:
//
//   1. a local pass maps body evidence (model.h) to leaf effects, plus
//      bare-identifier writes intersected with the global inventory for
//      global_mut;
//   2. a fixpoint pass unions each function's set with its callees',
//      resolving every call site individually so propagation can stop at
//      the sanctioned seams (hot_seams.txt) — the same inventory the
//      hot-path rule consumes, so one file enumerates every tolerated
//      indirection for both engines.
//
// Indirect calls are handled the way the whole model is: a member call
// resolves to every definition sharing the name (the PR-7 VirtualMethod
// inventory makes the virtual set explicit, and name-union is a superset
// of any devirtualization), so inference over-approximates dispatch but
// never follows an edge the tokenizer cannot justify. Calls into code the
// model has no body for (std::, libc) contribute only what the leaf name
// tables already attribute to the call site itself — the engine misses
// unknown effects rather than inventing them, which is why contracts are
// checked in both directions (a too-narrow contract is a violation, a
// too-wide one is also a finding: inference exactness is the product).
//
// Every inferred bit carries a witness: the next hop (callee) or local
// evidence it came from, so findings print the full call chain down to
// the offending token.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "rules.h"
#include "model.h"

namespace halfback::lint {

/// The effect lattice: one bit each, joined by union.
enum class Effect : std::uint8_t {
  alloc,       ///< heap allocation (new/make_unique/growth/std::function)
  throw_,      ///< may throw
  clock,       ///< reads a wall clock (sim virtual time is NOT clock)
  rng,         ///< constructs or draws from an RNG
  io,          ///< ambient I/O: files, stdio streams, environment
  global_mut,  ///< mutates state with static storage duration
  block,       ///< blocks the thread: locks, joins, waits, sleeps
};

inline constexpr int kEffectCount = 7;

std::string_view to_string(Effect effect);

/// The contract-token spelling ("throw" is a keyword, so contracts write
/// the enumerator names below). Returns nullopt for an unknown token.
std::optional<Effect> effect_from_token(std::string_view token);

/// A small set-of-Effect bitmask.
class EffectSet {
 public:
  constexpr EffectSet() = default;

  void add(Effect e) { bits_ |= bit(e); }
  bool contains(Effect e) const { return (bits_ & bit(e)) != 0; }
  bool subset_of(EffectSet other) const {
    return (bits_ & ~other.bits_) == 0;
  }
  bool operator==(const EffectSet&) const = default;
  std::uint8_t bits() const { return bits_; }

  /// Comma-joined effect tokens in enum order; "pure" when empty.
  std::string to_string() const;

 private:
  static constexpr std::uint8_t bit(Effect e) {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(e));
  }
  std::uint8_t bits_ = 0;
};

/// Where one inferred effect bit came from.
struct EffectOrigin {
  static constexpr std::size_t kLocal = static_cast<std::size_t>(-1);
  std::size_t next_hop = kLocal;  ///< callee function index, or kLocal
  int line = 0;                   ///< evidence line / call-site line
  std::string detail;             ///< evidence detail, e.g. "make_unique"
};

/// Inferred effects for every function in a ProjectModel.
class EffectAnalysis {
 public:
  /// Runs local inference + the seam-aware fixpoint. `seams` call sites
  /// (caller-qualified, callee, file) do not propagate callee effects.
  EffectAnalysis(const ProjectModel& model, const SeamInventory& seams);

  EffectSet of(std::size_t fn) const { return effects_[fn]; }

  /// Render the call chain proving `fn` has `effect`:
  /// "A -> B -> C: <evidence> ('token') at <path>:<line>". Empty when the
  /// function does not have the effect.
  std::string witness(std::size_t fn, Effect effect) const;

 private:
  const ProjectModel& model_;
  std::vector<EffectSet> effects_;
  /// origins_[fn][effect index]: provenance of that bit.
  std::vector<std::array<EffectOrigin, kEffectCount>> origins_;
};

}  // namespace halfback::lint
