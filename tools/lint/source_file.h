// A lint input: one file's tokens plus the raw line text, with helpers for
// the suppression-comment and file-annotation conventions described in
// docs/static-analysis.md.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "token.h"

namespace halfback::lint {

class SourceFile {
 public:
  /// `logical_path` is the repo-relative path rules scope on (e.g.
  /// "src/exp/planetlab.cpp"). Fixture tests lint files that live under
  /// tests/ but pose as src/ files through this parameter.
  SourceFile(std::string logical_path, std::string text);

  const std::string& path() const { return path_; }
  const std::vector<Token>& tokens() const { return tokens_; }

  /// Code tokens only (comments stripped) — what most rules scan.
  const std::vector<Token>& code() const { return code_; }

  bool is_header() const;

  /// True if path() starts with any of `prefixes`.
  bool in_any_dir(std::initializer_list<std::string_view> prefixes) const;

  /// Suppression check: the finding's own line, or the line directly above
  /// it, carries a comment containing "lint: <tag>".
  bool suppressed(int line, std::string_view tag) const;

  /// File-level annotation: a comment within the first `search_lines` lines
  /// contains "lint: <tag>" (e.g. "lint: hot-path").
  bool annotated(std::string_view tag, int search_lines = 40) const;

  /// Raw text of 1-based line `line` ("" out of range).
  std::string_view line_text(int line) const;

 private:
  std::string path_;
  /// Owned behind a pointer so the buffer never moves: `lines_` and the
  /// token texts are views into it, and a SourceFile is moved when stored
  /// (ProjectModel keeps them in a vector). A plain std::string would
  /// relocate its SSO buffer on move and dangle every view for any file
  /// short enough to fit inline.
  std::unique_ptr<std::string> text_;
  std::vector<std::string_view> lines_;  ///< views into *text_
  std::vector<Token> tokens_;            ///< full stream, comments included
  std::vector<Token> code_;              ///< comments and pp directives stripped
};

/// The bytes of the file at `path`; throws std::runtime_error when it cannot
/// be read.
std::string read_file(const std::filesystem::path& path);

}  // namespace halfback::lint
