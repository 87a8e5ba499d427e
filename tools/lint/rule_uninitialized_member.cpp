// Rule "uninitialized-pod-member": a scalar member without a default
// initializer in a constructor-less struct is read-before-write fuel — the
// aggregate compiles fine, somebody forgets one field in one brace-init
// site, and the simulator computes on garbage (nondeterministically, which
// is the worst kind of garbage here). Classes that declare any constructor
// or destructor are left to the sanitizers and clang-tidy (the ctor
// presumably initializes; proving it needs real semantic analysis).
#include <array>
#include <string>
#include <string_view>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

using scan::ident_at;
using scan::punct_at;
using scan::skip_group;

constexpr std::array<std::string_view, 15> kScalarTypes{
    "bool",     "char",     "short",    "int",      "long",
    "unsigned", "signed",   "float",    "double",   "size_t",
    "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "int64_t"};

bool is_scalar_type_name(std::string_view t) {
  for (std::string_view s : kScalarTypes) {
    if (t == s) return true;
  }
  return t.starts_with("int") && t.ends_with("_t");  // int8_t, int32_t, ...
}

class UninitializedMemberRule final : public TokenRule {
 public:
  UninitializedMemberRule()
      : TokenRule{"uninitialized-pod-member", "init-ok",
                  "scalar members of constructor-less structs must have "
                  "default initializers"} {}

  void check_file(const SourceFile& file,
                  std::vector<Finding>& out) const override {
    const auto& code = file.code();
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
      if (!(ident_at(code, i, "struct") || ident_at(code, i, "class"))) continue;
      if (i > 0 && ident_at(code, i - 1, "enum")) continue;  // enum class
      // `struct Name ... {` — skip forward declarations and elaborated
      // type uses (`struct Name x;`).
      if (code[i + 1].kind != TokenKind::identifier) continue;
      const std::string class_name = code[i + 1].text;
      std::size_t j = i + 2;
      while (j < code.size() && !punct_at(code, j, "{") && !punct_at(code, j, ";") &&
             !punct_at(code, j, "(") && !punct_at(code, j, "=")) {
        ++j;
      }
      if (!punct_at(code, j, "{")) continue;
      check_class_body(file, code, class_name, j, out);
    }
  }

 private:
  /// True when the class body declares any constructor or destructor:
  /// `ClassName (` at member-declaration depth (leading specifiers like
  /// `explicit`/`constexpr` don't matter — we look at the name token, not
  /// the statement start).
  static bool has_user_ctor(const std::vector<Token>& code,
                            const std::string& class_name, std::size_t open_brace,
                            std::size_t past) {
    int depth = 0;
    for (std::size_t j = open_brace; j < past; ++j) {
      if (punct_at(code, j, "{") || punct_at(code, j, "(")) ++depth;
      else if (punct_at(code, j, "}") || punct_at(code, j, ")")) --depth;
      else if (depth == 1 && ident_at(code, j, class_name) &&
               punct_at(code, j + 1, "(")) {
        return true;
      }
    }
    return false;
  }

  void check_class_body(const SourceFile& file, const std::vector<Token>& code,
                        const std::string& class_name, std::size_t open_brace,
                        std::vector<Finding>& out) const {
    const std::size_t past = skip_group(code, open_brace, "{", "}");
    if (has_user_ctor(code, class_name, open_brace, past)) return;

    std::size_t j = open_brace + 1;
    while (j + 1 < past) {
      if (punct_at(code, j, "{")) {  // nested class body: its own scan visits it
        j = skip_group(code, j, "{", "}");
        continue;
      }
      if (punct_at(code, j, ":")) {  // stray colon (labels)
        ++j;
        continue;
      }
      if ((ident_at(code, j, "public") || ident_at(code, j, "private") ||
           ident_at(code, j, "protected")) &&
          punct_at(code, j + 1, ":")) {
        j += 2;
        continue;
      }

      // Candidate member: [const] [std::] scalar-type+ [*]* name [array]
      // terminated by ';' with no initializer.
      std::size_t t = j;
      if (ident_at(code, t, "static") || ident_at(code, t, "constexpr") ||
          ident_at(code, t, "using") || ident_at(code, t, "typedef") ||
          ident_at(code, t, "friend") || ident_at(code, t, "mutable")) {
        j = next_statement(code, j, past);
        continue;
      }
      if (ident_at(code, t, "const")) ++t;
      if (ident_at(code, t, "std") && punct_at(code, t + 1, "::")) t += 2;
      if (t < past && code[t].kind == TokenKind::identifier &&
          is_scalar_type_name(code[t].text) &&
          !(t > 0 && punct_at(code, t - 1, "::") &&
            !(t >= 2 && ident_at(code, t - 2, "std")))) {
        // Consume multi-keyword types: `unsigned long`, `long long`, ...
        std::size_t u = t + 1;
        while (u < past && code[u].kind == TokenKind::identifier &&
               is_scalar_type_name(code[u].text)) {
          ++u;
        }
        bool pointer = false;
        while (punct_at(code, u, "*")) {
          pointer = true;
          ++u;
        }
        if (u < past && code[u].kind == TokenKind::identifier) {
          const Token& name = code[u];
          std::size_t after = u + 1;
          if (punct_at(code, after, "[")) after = skip_group(code, after, "[", "]");
          if (punct_at(code, after, ";")) {
            report(file, name.line,
                   "member '" + name.text + "' of constructor-less '" +
                       class_name + "' has no default initializer — a missed "
                       "brace-init field becomes " +
                       (pointer ? "a wild pointer" : "garbage") +
                       " (add '= 0' / '{}' or '// lint: init-ok(reason)')",
                   out);
          }
        }
      }
      j = next_statement(code, j, past);
    }
  }

  /// Advance past the current member declaration/definition: to just after
  /// the next `;` at this nesting level, skipping over balanced groups; a
  /// braced function body also ends the declaration.
  static std::size_t next_statement(const std::vector<Token>& code, std::size_t j,
                                    std::size_t past) {
    while (j < past) {
      if (punct_at(code, j, "(")) {
        j = skip_group(code, j, "(", ")");
      } else if (punct_at(code, j, "{")) {
        j = skip_group(code, j, "{", "}");
        // `= {...};` initializers still end at the ';'; a function body
        // ends the declaration right here.
        if (punct_at(code, j, ";")) return j + 1;
        return j;
      } else if (punct_at(code, j, ";")) {
        return j + 1;
      } else {
        ++j;
      }
    }
    return past;
  }
};

}  // namespace

std::unique_ptr<Rule> make_uninitialized_member_rule() {
  return std::make_unique<UninitializedMemberRule>();
}

}  // namespace halfback::lint
