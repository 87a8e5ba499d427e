// Suppression baseline: a checked-in list of known findings the build
// tolerates while they are being burned down. The repo's policy is that
// tools/lint/baseline.txt stays EMPTY — new code fixes or justifies its
// findings inline — but the mechanism exists so that a future rule with a
// large legacy surface can land enforcing-for-new-code on day one.
#pragma once

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "rules.h"

namespace halfback::lint {

/// Parsed baseline: the set of tolerated (rule, path, line) triples.
class Baseline {
 public:
  Baseline() = default;

  /// Parse baseline text. Each non-empty, non-'#' line reads
  /// `<rule> <path>:<line>`. Returns false (and fills `error`) on a
  /// malformed line — a silently ignored typo would un-suppress nothing
  /// and suppress nothing, the worst failure mode for this file.
  bool parse(const std::string& text, std::string& error);

  bool contains(const Finding& f) const {
    return entries_.contains({f.rule, f.path, f.line});
  }

  std::size_t size() const { return entries_.size(); }

  /// Entries matching none of `findings`, rendered as `<rule> <path>:<line>`
  /// lines. A stale entry means the finding it excused is gone — the CI
  /// drift guard (--verify-baseline) fails on these so suppressions cannot
  /// outlive their findings.
  std::vector<std::string> stale_entries(
      const std::vector<Finding>& findings) const;

  /// Render findings in baseline format (for --update-baseline); the CI
  /// drift guard compares this byte-for-byte against the checked-in file.
  static std::string render(const std::vector<Finding>& findings);

 private:
  std::set<std::tuple<std::string, std::string, int>> entries_;
};

}  // namespace halfback::lint
