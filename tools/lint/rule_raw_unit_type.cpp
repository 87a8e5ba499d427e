// Rule "raw-unit-type": a declaration like `double rtt_ms` or
// `std::uint64_t buffer_bytes` in a public header is a unit bug waiting to
// happen — the unit lives only in the name, so nothing stops a caller from
// assigning seconds to it. Interfaces must carry the unit in the type:
// sim::Time, sim::DataRate, or sim::Bytes. Doubles that are genuinely
// unit-less at the statistics edge justify themselves with
// "// lint: unit-ok(reason)".
#include <array>
#include <string_view>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

using scan::ident_at;
using scan::punct_at;

// Suffixes that name a unit. A trailing private-member underscore is
// allowed after the suffix (`total_bytes_`).
constexpr std::array<std::string_view, 11> kUnitSuffixes{
    "_s", "_ms", "_us", "_ns", "_bps", "_kbps", "_mbps", "_gbps",
    "_bytes", "_kb", "_mb"};

bool has_unit_suffix(std::string_view name) {
  if (name.ends_with("_")) name.remove_suffix(1);
  for (std::string_view suffix : kUnitSuffixes) {
    if (name.size() > suffix.size() && name.ends_with(suffix)) return true;
  }
  return false;
}

const char* strong_type_for(std::string_view name) {
  if (name.ends_with("_")) name.remove_suffix(1);
  if (name.ends_with("_bytes") || name.ends_with("_kb") || name.ends_with("_mb"))
    return "sim::Bytes";
  if (name.ends_with("_bps") || name.ends_with("_kbps") ||
      name.ends_with("_mbps") || name.ends_with("_gbps"))
    return "sim::DataRate";
  return "sim::Time";
}

class RawUnitTypeRule final : public TokenRule {
 public:
  RawUnitTypeRule()
      : TokenRule{"raw-unit-type", "unit-ok",
                  "no raw double/uint64_t parameters or members with "
                  "unit-suffixed names in public headers — use sim::Time / "
                  "sim::DataRate / sim::Bytes"} {}

  void check_file(const SourceFile& file,
                  std::vector<Finding>& out) const override {
    if (!file.is_header()) return;
    const auto& code = file.code();

    for (std::size_t i = 0; i < code.size(); ++i) {
      std::size_t name_index = 0;
      if (raw_scalar_type_at(code, i, name_index)) {
        const Token& name = code[name_index];
        if (name.kind != TokenKind::identifier || !has_unit_suffix(name.text))
          continue;
        // Require a declaration context: member/param/local, not a call.
        if (!(punct_at(code, name_index + 1, ";") ||
              punct_at(code, name_index + 1, "=") ||
              punct_at(code, name_index + 1, "{") ||
              punct_at(code, name_index + 1, ",") ||
              punct_at(code, name_index + 1, ")"))) {
          continue;
        }
        report(file, name.line,
               "'" + name.text + "' carries its unit in the name but not the "
                   "type — declare it as " + strong_type_for(name.text) +
                   " (or justify with '// lint: unit-ok(reason)')",
               out);
      }
    }
  }

 private:
  static bool raw_scalar_name(const std::vector<Token>& code, std::size_t j) {
    return ident_at(code, j, "double") || ident_at(code, j, "float") ||
           ident_at(code, j, "uint64_t") || ident_at(code, j, "int64_t");
  }

  /// Matches `double`, `float`, `uint64_t`, `int64_t`, optionally
  /// std::-qualified, starting exactly at code[i]; on success sets
  /// `name_index` to the token after the type. A bare type name preceded by
  /// `::` is never a match start (it was either already matched through its
  /// `std` qualifier, or it is some other scope's type).
  static bool raw_scalar_type_at(const std::vector<Token>& code, std::size_t i,
                                 std::size_t& name_index) {
    if (ident_at(code, i, "std") && punct_at(code, i + 1, "::") &&
        raw_scalar_name(code, i + 2)) {
      name_index = i + 3;
      return true;
    }
    if (raw_scalar_name(code, i) && !(i > 0 && punct_at(code, i - 1, "::"))) {
      name_index = i + 1;
      return true;
    }
    return false;
  }
};

}  // namespace

std::unique_ptr<Rule> make_raw_unit_type_rule() {
  return std::make_unique<RawUnitTypeRule>();
}

}  // namespace halfback::lint
