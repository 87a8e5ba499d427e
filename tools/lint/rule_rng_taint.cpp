// rng_taint: every RNG must be constructed from seed-derived arguments.
//
// Bit-identical replay (the property every golden trace hash in
// tests/audit/ pins) requires that all randomness flow from the experiment
// seed. The per-file nondeterminism rule bans the ambient sources
// (random_device, time(), rand()); this rule checks the construction side:
// an RNG object (sim::Random or a <random> engine) must be built FROM
// something — and that something must visibly derive from a seed.
//
// The taint heuristic is lexical over the constructor argument tokens:
//   * tainted (ambient):  random_device, time, clock, chrono, getpid,
//     rdtsc, high_resolution_clock — reported even if other args look fine;
//   * clean: a number literal (a fixed seed is deterministic by
//     definition), or an identifier/call mentioning seed / salt / rng /
//     random / fork / engine / gen / key / hash (fork() is how sim::Random
//     derives child streams);
//   * anything else — including a default-constructed engine, which seeds
//     itself from an implementation-defined source — is a finding.
// Member RNGs initialized in ctor-init-lists are resolved through the
// model's member-init table, so `loss_rng_{sim.random().fork(0x11bb)}`
// is checked exactly like a local construction.
#include <algorithm>
#include <array>
#include <cctype>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

bool contains_ci(std::string_view haystack, std::string_view needle) {
  const auto it = std::search(
      haystack.begin(), haystack.end(), needle.begin(), needle.end(),
      [](char a, char b) {
        return std::tolower(static_cast<unsigned char>(a)) ==
               std::tolower(static_cast<unsigned char>(b));
      });
  return it != haystack.end();
}

bool is_ambient_ident(std::string_view text) {
  static constexpr std::array<std::string_view, 7> kAmbient{
      "random_device", "time",  "clock", "chrono",
      "getpid",        "rdtsc", "high_resolution_clock",
  };
  return std::any_of(kAmbient.begin(), kAmbient.end(),
                     [&](std::string_view a) { return text == a; });
}

bool is_seedish_ident(std::string_view text) {
  static constexpr std::array<std::string_view, 9> kSeedish{
      "seed", "salt", "rng", "random", "fork", "engine", "gen", "key", "hash",
  };
  return std::any_of(kSeedish.begin(), kSeedish.end(), [&](std::string_view s) {
    return contains_ci(text, s);
  });
}

class RngTaintRule final : public Rule {
 public:
  RngTaintRule()
      : Rule{"rng_taint", "seed-ok",
             "RNG objects must be constructed from seed-derived arguments, not "
             "default- or ambient-seeded"} {}

  void check(const ProjectModel& model,
             std::vector<Finding>& out) const override {
    for (const RngConstruction& site : model.rng_sites()) {
      const std::string what = site.type_name.empty()
                                   ? "RNG member '" + site.var_name + "'"
                                   : "'" + site.type_name +
                                         (site.var_name.empty()
                                              ? std::string{"'"}
                                              : " " + site.var_name + "'");
      if (site.default_constructed) {
        report(model.file(site.file), site.line,
               what + " is default-constructed: its seed is implementation-"
                      "defined, not experiment-derived",
               out);
        continue;
      }
      bool ambient = false;
      bool seedish = false;
      for (const Token& t : site.args) {
        if (t.kind == TokenKind::number) seedish = true;
        if (t.kind != TokenKind::identifier) continue;
        if (is_ambient_ident(t.text)) ambient = true;
        if (is_seedish_ident(t.text)) seedish = true;
      }
      if (ambient) {
        report(model.file(site.file), site.line,
               what + " is seeded from an ambient source; derive the seed "
                      "from the experiment seed instead",
               out);
      } else if (!seedish) {
        report(model.file(site.file), site.line,
               what + " is not visibly seed-derived: pass a literal or a "
                      "value named after the seed it derives from "
                      "(seed/salt/fork/...)",
               out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_rng_taint_rule() {
  return std::make_unique<RngTaintRule>();
}

}  // namespace halfback::lint
