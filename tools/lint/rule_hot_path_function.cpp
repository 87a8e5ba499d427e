// Rule "hot-path-std-function": files annotated "// lint: hot-path" are the
// per-event/per-packet core whose contract (established by the intrusive
// event & packet-pool refactor) is that steady state allocates nothing. A
// std::function is a type-erased heap allocation waiting to happen, so in
// annotated files each mention must justify why it is bind-once or
// recycled: "// lint: function-ok(reason)".
#include "rules_internal.h"

namespace halfback::lint {
namespace {

using scan::ident_at;
using scan::punct_at;

class HotPathFunctionRule final : public TokenRule {
 public:
  HotPathFunctionRule()
      : TokenRule{"hot-path-std-function", "function-ok",
                  "no std::function in '// lint: hot-path' files without a "
                  "'// lint: function-ok(reason)' justification"} {}

  void check_file(const SourceFile& file,
                  std::vector<Finding>& out) const override {
    if (!file.annotated("hot-path")) return;
    const auto& code = file.code();
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
      if (ident_at(code, i, "std") && punct_at(code, i + 1, "::") &&
          ident_at(code, i + 2, "function")) {
        report(file, code[i].line,
               "std::function in a hot-path file — use an intrusive Event / "
               "Timer, or justify a bind-once use with "
               "'// lint: function-ok(reason)'",
               out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_hot_path_function_rule() {
  return std::make_unique<HotPathFunctionRule>();
}

}  // namespace halfback::lint
