// sim_escape: prove no mutable state reachable from one Simulator is
// reachable from another.
//
// The sharded parallel engine runs many Simulator instances in one
// process. shard_safety already bans process-wide mutable statics; this
// rule closes the remaining escape routes by which one instance's object
// graph can alias another's:
//
//   1. Static-storage instance caches. ANY static-storage declaration —
//      `const` included, since a `static const Simulator*` cache aliases a
//      live instance just fine; only `constexpr` is exempt — whose type is
//      a pointer/reference to a class defined under src/, or mentions
//      Simulator / FunctionRef / std::function (a stored callable captures
//      its instance), parks per-instance state at process scope.
//   2. Cross-instance bridges. A class holding two or more Simulator
//      references/pointers, or a function taking two or more Simulator
//      parameters, is structurally able to move state between instances —
//      there is no single-simulator reading of such a signature.
//   3. Member provenance. A Simulator-typed reference/pointer member must
//      be initialized from a single identifier (the constructor parameter
//      threading the owning instance down), `nullptr`, or `this`. A
//      compound initializer (`other.simulator_`, a call, arithmetic) means
//      the member's provenance is no longer the owning instance by
//      construction, and a reader cannot tell which simulator it
//      aliases.
//
// The escape hatch mirrors shard_safety: a `// lint: escape-ok(reason)`
// tag on the site.
#include <map>
#include <set>
#include <sstream>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

/// Split the space-joined type text back into tokens.
std::vector<std::string_view> type_tokens(const std::string& text) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t space = text.find(' ', pos);
    const std::size_t end = space == std::string::npos ? text.size() : space;
    if (end > pos) out.push_back({text.data() + pos, end - pos});
    pos = end + 1;
  }
  return out;
}

bool has_token(const std::vector<std::string_view>& tokens,
               std::string_view needle) {
  for (std::string_view t : tokens) {
    if (t == needle) return true;
  }
  return false;
}

class SimEscapeRule final : public Rule {
 public:
  SimEscapeRule()
      : Rule{"sim_escape", "escape-ok",
             "no mutable state reachable from one Simulator instance may be "
             "reachable from another: no static-storage instance caches, no "
             "cross-instance bridges, single-identifier provenance for "
             "Simulator members"} {}

  void check(const ProjectModel& model,
             std::vector<Finding>& out) const override {
    check_static_caches(model, out);
    check_bridges(model, out);
    check_member_provenance(model, out);
  }

 private:
  void check_static_caches(const ProjectModel& model,
                           std::vector<Finding>& out) const {
    const auto& classes = model.src_classes();
    for (const StaticDecl& decl : model.static_decls()) {
      const std::string& path = model.file(decl.file).path();
      if (!path.starts_with("src/")) continue;
      const auto tokens = type_tokens(decl.type_text);
      const char* why = nullptr;
      if (has_token(tokens, "Simulator")) {
        why = "holds a Simulator";
      } else if (has_token(tokens, "FunctionRef") ||
                 has_token(tokens, "function")) {
        why = "stores a callable, which captures its instance";
      } else if (has_token(tokens, "*") || has_token(tokens, "&")) {
        for (const std::string& cls : classes) {
          if (has_token(tokens, cls)) {
            why = "points into the simulation object graph";
            break;
          }
        }
      }
      if (why == nullptr) continue;
      std::ostringstream msg;
      msg << "static-storage instance cache: '" << decl.qualified << "' ("
          << decl.type_text << ") " << why
          << "; state reachable from one Simulator must not sit at process "
             "scope where another instance can reach it";
      report(model.file(decl.file), decl.line, std::move(msg).str(), out);
    }
  }

  void check_bridges(const ProjectModel& model,
                     std::vector<Finding>& out) const {
    // A class with >= 2 Simulator handles. Count per class; report at the
    // second member so the finding lands on the line that created the
    // bridge.
    std::map<std::string, int> handles;
    for (const MemberDecl& member : model.member_decls()) {
      if (!member.is_ref_or_ptr) continue;
      if (!has_token(type_tokens(member.type_text), "Simulator")) continue;
      if (++handles[member.class_name] < 2) continue;
      std::ostringstream msg;
      msg << "cross-instance bridge: class '" << member.class_name
          << "' holds " << handles[member.class_name]
          << " Simulator references ('" << member.name
          << "' is the latest); one object aliasing two simulators can "
             "carry state across shard boundaries";
      report(model.file(member.file), member.line, std::move(msg).str(), out);
    }
    for (std::size_t i = 0; i < model.functions().size(); ++i) {
      const FunctionDef& fn = model.functions()[i];
      if (fn.simulator_params < 2) continue;
      if (!model.file(fn.file).path().starts_with("src/")) continue;
      std::ostringstream msg;
      msg << "cross-instance bridge: '" << fn.qualified << "' takes "
          << fn.simulator_params
          << " Simulator parameters; no single-instance reading of this "
             "signature exists";
      report(model.file(fn.file), fn.line, std::move(msg).str(), out);
    }
  }

  void check_member_provenance(const ProjectModel& model,
                               std::vector<Finding>& out) const {
    // Simulator-typed ref/ptr members, keyed (class, member).
    std::set<std::pair<std::string_view, std::string_view>> sim_members;
    for (const MemberDecl& member : model.member_decls()) {
      if (!member.is_ref_or_ptr) continue;
      if (!has_token(type_tokens(member.type_text), "Simulator")) continue;
      sim_members.insert({member.class_name, member.name});
    }
    for (const MemberInit& init : model.member_inits()) {
      if (!sim_members.contains({init.class_name, init.member})) continue;
      // A lone identifier covers the ctor parameter, `nullptr`, and
      // `this` alike — the tokenizer treats keywords as identifiers.
      const bool sanctioned =
          init.args.empty() || (init.args.size() == 1 &&
                                init.args[0].kind == TokenKind::identifier);
      if (sanctioned) continue;
      std::string args_text;
      for (const Token& t : init.args) {
        if (!args_text.empty()) args_text += ' ';
        args_text += t.text;
      }
      std::ostringstream msg;
      msg << "unclear Simulator provenance: '" << init.class_name
          << "::" << init.member << "' is initialized from '" << args_text
          << "'; a non-owning Simulator member must come from a single "
             "identifier (the owning instance threaded through the "
             "constructor), nullptr, or this";
      report(model.file(init.file), init.line, std::move(msg).str(), out);
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_sim_escape_rule() {
  return std::make_unique<SimEscapeRule>();
}

}  // namespace halfback::lint
