// Rule "naked-new-delete": ownership in src/ is expressed with
// std::unique_ptr / containers / the slab pools; a naked `new` or `delete`
// bypasses all of them and is how leaks and double-frees enter a codebase.
// `= delete` (deleted functions) and `operator new/delete` declarations are
// not flagged. Deliberate placement allocation justifies itself with
// "// lint: new-ok(reason)".
#include "rules_internal.h"

namespace halfback::lint {
namespace {

using scan::ident_at;
using scan::punct_at;

class NakedNewDeleteRule final : public TokenRule {
 public:
  NakedNewDeleteRule()
      : TokenRule{"naked-new-delete", "new-ok",
                  "no naked new/delete in src/ — use std::make_unique, "
                  "containers, or the pools"} {}

  void check_file(const SourceFile& file,
                  std::vector<Finding>& out) const override {
    const auto& code = file.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      const bool is_new = ident_at(code, i, "new");
      const bool is_delete = ident_at(code, i, "delete");
      if (!is_new && !is_delete) continue;
      if (i > 0 && ident_at(code, i - 1, "operator")) continue;
      if (is_delete && i > 0 && punct_at(code, i - 1, "=")) continue;
      report(file, code[i].line,
             std::string{"naked '"} + (is_new ? "new" : "delete") +
                 "' — express ownership with std::make_unique, a container, "
                 "or a pool",
             out);
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_naked_new_delete_rule() {
  return std::make_unique<NakedNewDeleteRule>();
}

}  // namespace halfback::lint
