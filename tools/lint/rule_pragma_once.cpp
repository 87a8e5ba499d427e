// Rule "pragma-once": every header in src/ must start its preprocessor
// life with `#pragma once`. The header self-containment harness compiles
// each header twice in one TU, so a missing guard is also a build failure —
// this rule reports it with a better message and without a compiler.
#include <algorithm>
#include <cctype>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

/// Directive text with whitespace runs collapsed: "#  pragma   once" ->
/// "#pragma once".
std::string normalized(std::string_view directive) {
  std::string out;
  bool pending_space = false;
  for (char c : directive) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  return out;
}

class PragmaOnceRule final : public TokenRule {
 public:
  PragmaOnceRule()
      : TokenRule{"pragma-once", "",
                  "every header in src/ carries #pragma once"} {}

  void check_file(const SourceFile& file,
                  std::vector<Finding>& out) const override {
    if (!file.is_header()) return;
    const auto& tokens = file.tokens();
    const bool found = std::any_of(tokens.begin(), tokens.end(), [](const Token& t) {
      return t.kind == TokenKind::pp_directive &&
             normalized(t.text).starts_with("#pragma once");
    });
    if (!found) {
      report(file, 1, "header is missing '#pragma once'", out);
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_pragma_once_rule() {
  return std::make_unique<PragmaOnceRule>();
}

}  // namespace halfback::lint
