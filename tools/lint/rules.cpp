#include "rules.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "rules_internal.h"

namespace halfback::lint {

bool SeamInventory::parse(const std::string& text, SeamInventory& out,
                          std::string& error) {
  std::istringstream in{text};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields{line};
    SeamEntry entry;
    fields >> entry.caller >> entry.callee >> entry.path;
    if (entry.caller.empty() || entry.callee.empty() || entry.path.empty()) {
      error = "seam inventory line " + std::to_string(line_no) +
              ": expected '<caller-qualified> <callee> <path> "
              "<justification>', got: " +
              line;
      return false;
    }
    std::getline(fields, entry.justification);
    const std::size_t start = entry.justification.find_first_not_of(" \t");
    entry.justification = start == std::string::npos
                              ? std::string{}
                              : entry.justification.substr(start);
    entry.source_line = line_no;
    out.entries.push_back(std::move(entry));
  }
  return true;
}

std::size_t SeamInventory::find(std::string_view caller,
                                std::string_view callee,
                                std::string_view path) const {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].caller == caller && entries[i].callee == callee &&
        entries[i].path == path) {
      return i;
    }
  }
  return entries.size();
}

void Rule::report(const SourceFile& file, int line, std::string message,
                  std::vector<Finding>& out) const {
  const std::string_view tag = suppression_tag();
  if (!tag.empty() && file.suppressed(line, tag)) return;
  out.push_back(Finding{std::string{id()}, file.path(), line, std::move(message)});
}

std::vector<std::unique_ptr<Rule>> all_rules(const SeamInventory& seams) {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(make_nondeterminism_rule());
  rules.push_back(make_unordered_iteration_rule());
  rules.push_back(make_raw_unit_type_rule());
  rules.push_back(make_naked_new_delete_rule());
  rules.push_back(make_uninitialized_member_rule());
  rules.push_back(make_pragma_once_rule());
  rules.push_back(make_hot_path_function_rule());
  rules.push_back(make_noexcept_fire_rule());
  rules.push_back(make_stdout_accounting_rule());
  rules.push_back(make_layering_rule());
  rules.push_back(make_hot_path_reach_rule(seams));
  rules.push_back(make_shard_safety_rule());
  rules.push_back(make_rng_taint_rule());
  rules.push_back(make_effects_rule(seams));
  rules.push_back(make_sim_escape_rule());
  return rules;
}

std::vector<Finding> analyze_model(const ProjectModel& model,
                                   const SeamInventory& seams,
                                   std::string_view only_rule) {
  const auto rules = all_rules(seams);
  if (!only_rule.empty() &&
      std::none_of(rules.begin(), rules.end(),
                   [&](const auto& rule) { return rule->id() == only_rule; })) {
    std::string valid;
    for (const auto& rule : rules) {
      valid += valid.empty() ? "" : ", ";
      valid += rule->id();
    }
    throw std::invalid_argument{"unknown rule '" + std::string{only_rule} +
                                "'; valid ids: " + valid};
  }
  std::vector<Finding> findings;
  for (const auto& rule : rules) {
    if (!only_rule.empty() && rule->id() != only_rule) continue;
    std::vector<Finding> rule_findings;
    rule->check(model, rule_findings);
    std::sort(rule_findings.begin(), rule_findings.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.path, a.line, a.message) <
                       std::tie(b.path, b.line, b.message);
              });
    findings.insert(findings.end(),
                    std::make_move_iterator(rule_findings.begin()),
                    std::make_move_iterator(rule_findings.end()));
  }
  return findings;
}

SeamInventory load_seams(const std::filesystem::path& root) {
  SeamInventory seams;
  const std::filesystem::path path = root / "tools" / "lint" / "hot_seams.txt";
  if (!std::filesystem::exists(path)) return seams;
  std::string error;
  if (!SeamInventory::parse(read_file(path), seams, error)) {
    throw std::runtime_error{error};
  }
  return seams;
}

std::vector<Finding> analyze_tree(const std::filesystem::path& root,
                                  std::string_view only_rule) {
  const SeamInventory seams = load_seams(root);
  return analyze_model(ProjectModel::build(root), seams, only_rule);
}

namespace scan {

bool ident_at(const std::vector<Token>& code, std::size_t i, std::string_view text) {
  return i < code.size() && code[i].kind == TokenKind::identifier &&
         code[i].text == text;
}

bool punct_at(const std::vector<Token>& code, std::size_t i, std::string_view text) {
  return i < code.size() && code[i].kind == TokenKind::punct && code[i].text == text;
}

std::size_t skip_angles(const std::vector<Token>& code, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < code.size(); ++j) {
    if (punct_at(code, j, "<")) ++depth;
    else if (punct_at(code, j, ">")) {
      if (--depth == 0) return j + 1;
    } else if (punct_at(code, j, ";")) {
      break;  // statement ended without closing: not a template argument list
    }
  }
  return i;
}

std::size_t skip_group(const std::vector<Token>& code, std::size_t i,
                       std::string_view open, std::string_view close) {
  int depth = 0;
  for (std::size_t j = i; j < code.size(); ++j) {
    if (punct_at(code, j, open)) ++depth;
    else if (punct_at(code, j, close)) {
      if (--depth == 0) return j + 1;
    }
  }
  return code.size();
}

}  // namespace scan
}  // namespace halfback::lint
