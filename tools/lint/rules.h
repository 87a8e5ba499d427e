// Rule framework: a Finding, the one Rule interface, the registry of all
// project rules, and the engine that runs them over a ProjectModel. Rule
// semantics are documented in docs/static-analysis.md; tests/lint/ pins
// each rule's behaviour on fixture files and trees.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model.h"

namespace halfback::lint {

struct Finding {
  std::string rule;     ///< rule id, e.g. "nondeterminism"
  std::string path;     ///< logical (repo-relative) path
  int line = 0;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// One sanctioned hot-path indirection: a virtual (or otherwise indirect)
/// call the static-dispatch contract tolerates, named by caller, callee
/// and file so the inventory enumerates the complete set of seams.
struct SeamEntry {
  std::string caller;  ///< qualified caller, e.g. "halfback::net::Link::send"
  std::string callee;  ///< unqualified callee name, e.g. "enqueue"
  std::string path;    ///< repo-relative file holding the call site
  std::string justification;  ///< required: why this indirection is allowed
  int source_line = 0;        ///< line in the inventory file (diagnostics)
};

/// The sanctioned-seam inventory, parsed from tools/lint/hot_seams.txt.
/// Consumed by BOTH cross-TU engines: hot_path_reach skips (and usage-
/// tracks) sanctioned virtual calls, and the effect engine stops effect
/// propagation at the same call sites. An entry no seam matches is itself
/// a finding, so the file cannot go stale silently.
struct SeamInventory {
  std::vector<SeamEntry> entries;

  /// Entry lines read `<caller-qualified> <callee> <path> <justification>`;
  /// '#' starts a comment. Malformed lines fail the parse.
  static bool parse(const std::string& text, SeamInventory& out,
                    std::string& error);

  /// Index of the entry sanctioning `caller` -> `callee` in `path`, or
  /// entries.size() when no entry matches.
  std::size_t find(std::string_view caller, std::string_view callee,
                   std::string_view path) const;
};

class Rule {
 public:
  /// `id` is the stable id used in output, baselines, and `--rule`
  /// filters; `suppression_tag` silences the rule on a line ("" = none);
  /// `description` is the one-liner for `--list-rules`. All three are
  /// string literals.
  Rule(std::string_view id, std::string_view suppression_tag,
       std::string_view description)
      : id_{id}, suppression_tag_{suppression_tag}, description_{description} {}
  virtual ~Rule() = default;

  std::string_view id() const { return id_; }
  std::string_view suppression_tag() const { return suppression_tag_; }
  std::string_view description() const { return description_; }

  /// Append findings for the tree. Rules scope themselves (src/ only,
  /// headers only, annotated files, hot-path roots) from file paths.
  virtual void check(const ProjectModel& model,
                     std::vector<Finding>& out) const = 0;

 protected:
  /// Emit unless the site (`line` or the line above it in `file`) carries
  /// this rule's suppression tag.
  void report(const SourceFile& file, int line, std::string message,
              std::vector<Finding>& out) const;

 private:
  std::string_view id_;
  std::string_view suppression_tag_;
  std::string_view description_;
};

/// All rules in the order they run and print: the nine token rules, then
/// the six model rules. hot_path_reach and effects share `seams`.
std::vector<std::unique_ptr<Rule>> all_rules(const SeamInventory& seams = {});

/// Run every rule (or just `only_rule`, when nonempty). Findings are
/// ordered rule-by-rule, each rule's findings sorted by (path, line).
/// Throws std::invalid_argument, naming the valid ids, when `only_rule` is
/// not a registered id: a typo must not pass as a clean run.
std::vector<Finding> analyze_model(const ProjectModel& model,
                                   const SeamInventory& seams = {},
                                   std::string_view only_rule = {});

/// The seam inventory for `root` (root/tools/lint/hot_seams.txt; empty
/// when the file is absent). Throws on I/O or parse errors.
SeamInventory load_seams(const std::filesystem::path& root);

/// Build the model for `root` and analyze it against its seam inventory.
/// Throws std::runtime_error on I/O or parse errors and on a root without
/// a src/ directory.
std::vector<Finding> analyze_tree(const std::filesystem::path& root,
                                  std::string_view only_rule = {});

}  // namespace halfback::lint
