// effects: verify HB_EFFECTS contracts against interprocedural inference.
//
// HB_EFFECTS(...) (src/sim/annotations.h) declares what a function may do
// beyond computing its result — alloc, throw, clock, rng, io, global_mut,
// block. The macro expands to nothing; this rule makes it mean something:
// the effect engine (effects.h) infers every function's set bottom-up over
// the call graph, and each contract is checked in BOTH directions.
//
//   * inferred ⊄ declared — the function does something its contract
//     hides. The finding carries the inferred call chain down to the leaf
//     evidence, so "where did the allocation sneak in" is answered by the
//     message, not a debugging session.
//   * declared ⊅ inferred — the contract claims an effect the body cannot
//     produce. Stale breadth is reported too, so contracts stay exact:
//     a reader can trust both what a contract says and what it omits.
//
// Contracts may sit on declarations or definitions; both are keyed by the
// qualified name, and conflicting duplicates are findings. A contract
// whose function has no modeled body (a pure-virtual interface method, a
// template the tokenizer cannot pair) checks nothing — the rule misses
// rather than invents, like every cross-TU rule here.
//
// This subsumes the hand-rolled checks hot_path_reach once carried alone:
// that rule keeps its wire/pipeline purity contracts, while arbitrary
// functions now opt into machine-checked effect discipline by annotation.
#include <map>
#include <sstream>

#include "effects.h"
#include "rules_internal.h"

namespace halfback::lint {
namespace {

class EffectsRule final : public Rule {
 public:
  explicit EffectsRule(SeamInventory seams)
      : Rule{"effects", "effects-ok",
             "every HB_EFFECTS(...) contract must match the inferred effect "
             "set exactly: no undeclared effect may be reachable from the "
             "function, and no declared effect may be uninferable"},
        seams_{std::move(seams)} {}

  void check(const ProjectModel& model,
             std::vector<Finding>& out) const override {
    const EffectAnalysis analysis{model, seams_};
    const auto& functions = model.functions();

    // Definitions by qualified name: a contract on a header declaration
    // meets its out-of-line body here.
    std::map<std::string, std::vector<std::size_t>, std::less<>> defs;
    for (std::size_t i = 0; i < functions.size(); ++i) {
      defs[functions[i].qualified].push_back(i);
    }

    // Contracts by qualified name; duplicated contracts must agree.
    std::map<std::string, const EffectContract*, std::less<>> canonical;
    for (const EffectContract& contract : model.contracts()) {
      const auto [it, inserted] =
          canonical.emplace(contract.qualified, &contract);
      if (inserted) continue;
      if (declared_set(model, *it->second, nullptr) !=
          declared_set(model, contract, nullptr)) {
        report(model.file(contract.file), contract.line,
               "conflicting HB_EFFECTS contracts for '" + contract.qualified +
                   "' (first declared at " +
                   model.file(it->second->file).path() + ":" +
                   std::to_string(it->second->line) + ")",
               out);
      }
    }

    for (const auto& [qualified, contract] : canonical) {
      const EffectSet declared = declared_set(model, *contract, &out);
      const auto def_it = defs.find(qualified);
      if (def_it == defs.end()) continue;  // no modeled body to infer from

      // Overload sets share the qualified name; the contract covers the
      // union, and each violating overload is reported at its own body.
      EffectSet inferred_union;
      for (std::size_t def : def_it->second) {
        const EffectSet inferred = analysis.of(def);
        for (int e = 0; e < kEffectCount; ++e) {
          const Effect effect = static_cast<Effect>(e);
          if (inferred.contains(effect)) inferred_union.add(effect);
          if (!inferred.contains(effect) || declared.contains(effect)) {
            continue;
          }
          std::ostringstream msg;
          msg << "effect contract violation: '" << qualified << "' declares {"
              << declared.to_string() << "} but '" << to_string(effect)
              << "' is reachable — " << analysis.witness(def, effect);
          report(model.file(functions[def].file), functions[def].line,
                 std::move(msg).str(), out);
        }
      }
      for (int e = 0; e < kEffectCount; ++e) {
        const Effect effect = static_cast<Effect>(e);
        if (!declared.contains(effect) || inferred_union.contains(effect)) {
          continue;
        }
        std::ostringstream msg;
        msg << "effect contract too wide: '" << qualified << "' declares '"
            << to_string(effect)
            << "' but no definition can produce it; narrow the contract so "
               "it stays exact";
        report(model.file(contract->file), contract->line,
               std::move(msg).str(), out);
      }
    }
  }

 private:
  /// Parse a contract's tokens; unknown tokens are findings when `out` is
  /// provided (and ignored in the set either way).
  EffectSet declared_set(const ProjectModel& model,
                         const EffectContract& contract,
                         std::vector<Finding>* out) const {
    EffectSet declared;
    for (const std::string& token : contract.declared) {
      if (const auto effect = effect_from_token(token)) {
        declared.add(*effect);
      } else if (out != nullptr) {
        report(model.file(contract.file), contract.line,
               "unknown effect token '" + token + "' in HB_EFFECTS for '" +
                   contract.qualified + "' (known: alloc, throw, clock, rng, "
                   "io, global_mut, block)",
               *out);
      }
    }
    return declared;
  }

  SeamInventory seams_;
};

}  // namespace

std::unique_ptr<Rule> make_effects_rule(SeamInventory seams) {
  return std::make_unique<EffectsRule>(std::move(seams));
}

}  // namespace halfback::lint
