// Factories for the individual rules, consumed by the registry in
// rules.cpp. One translation unit per rule keeps each rule reviewable in
// isolation and its fixture test discoverable by name.
#pragma once

#include <memory>

#include "rules.h"

namespace halfback::lint {

/// Base of the token rules: each sees one src/ file at a time, so check()
/// visits every modeled file under src/ and hands it to check_file(). The
/// rules narrow the scope further themselves (headers only, a few
/// directories, hot-path-annotated files).
class TokenRule : public Rule {
 public:
  using Rule::Rule;

  void check(const ProjectModel& model,
             std::vector<Finding>& out) const final {
    for (const SourceFile& file : model.files()) {
      if (file.path().starts_with("src/")) check_file(file, out);
    }
  }

 protected:
  virtual void check_file(const SourceFile& file,
                          std::vector<Finding>& out) const = 0;
};

// Token rules: one src/ file at a time. All but unordered-iteration are
// TokenRule subclasses; it also reads each .cpp's companion header.
std::unique_ptr<Rule> make_nondeterminism_rule();
std::unique_ptr<Rule> make_unordered_iteration_rule();
std::unique_ptr<Rule> make_raw_unit_type_rule();
std::unique_ptr<Rule> make_naked_new_delete_rule();
std::unique_ptr<Rule> make_uninitialized_member_rule();
std::unique_ptr<Rule> make_pragma_once_rule();
std::unique_ptr<Rule> make_hot_path_function_rule();
std::unique_ptr<Rule> make_noexcept_fire_rule();
std::unique_ptr<Rule> make_stdout_accounting_rule();

// Cross-TU rules over the whole model.
std::unique_ptr<Rule> make_layering_rule();
std::unique_ptr<Rule> make_hot_path_reach_rule(SeamInventory seams);
std::unique_ptr<Rule> make_shard_safety_rule();
std::unique_ptr<Rule> make_rng_taint_rule();
std::unique_ptr<Rule> make_effects_rule(SeamInventory seams);
std::unique_ptr<Rule> make_sim_escape_rule();

/// Shared token-scan helpers.
namespace scan {

/// True when code()[i] exists and equals an identifier `text`.
bool ident_at(const std::vector<Token>& code, std::size_t i, std::string_view text);

/// True when code()[i] exists and is punctuation `text`.
bool punct_at(const std::vector<Token>& code, std::size_t i, std::string_view text);

/// Index just past a balanced <...> opening at `i` (code[i] must be "<");
/// returns i when the angle brackets never close (malformed input).
std::size_t skip_angles(const std::vector<Token>& code, std::size_t i);

/// Index just past a balanced (...) / {...} / [...] group opening at `i`.
std::size_t skip_group(const std::vector<Token>& code, std::size_t i,
                       std::string_view open, std::string_view close);

}  // namespace scan

}  // namespace halfback::lint
