// Rule "stdout-accounting": simulation code must not print results to
// stdout. Accounting leaves src/ through the telemetry exporters
// (src/telemetry/) and the stats renderers (src/stats/), whose output
// formats are deterministic and tested; an ad-hoc std::cout or printf in
// sim/net/transport/schemes code bypasses those formats and interleaves
// with bench output. Formatting into buffers (snprintf) and diagnostics to
// stderr remain fine.
#include <array>
#include <string_view>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

using scan::ident_at;
using scan::punct_at;

// Calls that write to stdout, flagged as `name(` (plain or std-qualified).
// snprintf/sprintf format into buffers and are not listed; fprintf is
// handled separately so only the `fprintf(stdout, ...)` form is flagged.
constexpr std::array<std::string_view, 4> kStdoutCalls{
    "printf", "vprintf", "puts", "putchar"};

class StdoutAccountingRule final : public TokenRule {
 public:
  StdoutAccountingRule()
      : TokenRule{"stdout-accounting", "stdout-ok",
                  "no stdout accounting in src/ — export through telemetry/ or "
                  "stats/ renderers"} {}

  void check_file(const SourceFile& file,
                  std::vector<Finding>& out) const override {
    // The designated reporting layers: exporters and table/plot renderers.
    if (file.path().starts_with("src/telemetry/") ||
        file.path().starts_with("src/stats/"))
      return;

    const auto& code = file.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i].kind != TokenKind::identifier) continue;
      const std::string_view name = code[i].text;

      if (name == "cout" && !member_access_before(code, i)) {
        report(file, code[i].line,
               "std::cout accounting in src/ — record into a telemetry "
               "metric or return data for a stats renderer",
               out);
        continue;
      }

      if (name == "fprintf" && punct_at(code, i + 1, "(") &&
          ident_at(code, i + 2, "stdout") && !member_access_before(code, i)) {
        report(file, code[i].line,
               "fprintf(stdout, ...) accounting in src/ — export through "
               "telemetry/ or stats/ instead",
               out);
        continue;
      }

      for (std::string_view banned : kStdoutCalls) {
        if (name != banned || !punct_at(code, i + 1, "(")) continue;
        if (member_access_before(code, i)) continue;      // obj.printf(...)
        if (non_std_qualified_before(code, i)) continue;  // other::puts(...)
        report(file, code[i].line,
               "call to '" + code[i].text +
                   "()' writes to stdout from src/ — export through "
                   "telemetry/ or stats/ instead",
               out);
      }
    }
  }

 private:
  static bool member_access_before(const std::vector<Token>& code, std::size_t i) {
    return i > 0 && (punct_at(code, i - 1, ".") || punct_at(code, i - 1, "->"));
  }

  static bool non_std_qualified_before(const std::vector<Token>& code,
                                       std::size_t i) {
    if (i == 0 || !punct_at(code, i - 1, "::")) return false;
    return !(i >= 2 && ident_at(code, i - 2, "std"));
  }
};

}  // namespace

std::unique_ptr<Rule> make_stdout_accounting_rule() {
  return std::make_unique<StdoutAccountingRule>();
}

}  // namespace halfback::lint
