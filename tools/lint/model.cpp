#include "model.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

using scan::ident_at;
using scan::punct_at;
using scan::skip_angles;
using scan::skip_group;

bool is_rng_type_name(std::string_view name) {
  static constexpr std::array<std::string_view, 9> kNames{
      "Random",        "mt19937",   "mt19937_64",
      "minstd_rand",   "minstd_rand0",
      "default_random_engine",      "ranlux24",
      "ranlux48",      "knuth_b",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

bool is_alloc_call(std::string_view name) {
  static constexpr std::array<std::string_view, 7> kNames{
      "make_unique", "make_shared", "malloc",      "calloc",
      "realloc",     "strdup",      "aligned_alloc",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

bool is_growth_call(std::string_view name) {
  static constexpr std::array<std::string_view, 9> kNames{
      "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
      "insert",    "resize",       "reserve",    "append",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

bool is_clock_call(std::string_view name) {
  static constexpr std::array<std::string_view, 3> kNames{
      "gettimeofday", "clock_gettime", "timespec_get",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

/// Draw methods of sim::Random (member calls); the construction side is
/// covered by is_rng_type_name.
bool is_rng_draw_call(std::string_view name) {
  static constexpr std::array<std::string_view, 8> kNames{
      "uniform",     "bernoulli",      "exponential", "lognormal",
      "pareto",      "log_uniform",    "weighted_index", "fork",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

bool is_io_call(std::string_view name) {
  static constexpr std::array<std::string_view, 12> kNames{
      "fopen",  "fclose", "fprintf", "printf", "fputs",  "puts",
      "fwrite", "fread",  "fscanf",  "scanf",  "getenv", "system",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

/// Ambient-I/O objects and stream types whose mere mention in a body means
/// the function talks to the process environment. Caller-supplied
/// `std::ostream&` parameters deliberately do NOT trip this: writing to a
/// stream the caller chose is the caller's effect, not ambient I/O.
bool is_io_object(std::string_view name) {
  static constexpr std::array<std::string_view, 6> kNames{
      "cout", "cerr", "clog", "ofstream", "ifstream", "fstream",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

bool is_blocking_call(std::string_view name) {
  static constexpr std::array<std::string_view, 10> kNames{
      "join",      "wait",        "wait_for", "wait_until", "sleep_for",
      "sleep_until", "lock",      "sleep",    "usleep",     "nanosleep",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

/// Scoped-lock guard types: constructing one blocks on the mutex.
bool is_blocking_guard(std::string_view name) {
  static constexpr std::array<std::string_view, 5> kNames{
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock", "MutexLock",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

/// Single-char operators that form a compound assignment with a trailing
/// `=` (the tokenizer splits `+=` into `+` `=`; only `::` and `->` fuse).
bool is_compoundable_op(std::string_view punct) {
  static constexpr std::array<std::string_view, 8> kOps{
      "+", "-", "*", "/", "%", "|", "&", "^",
  };
  return std::find(kOps.begin(), kOps.end(), punct) != kOps.end();
}

/// Statement keywords an `ident (` sequence must not treat as a call.
bool is_control_keyword(std::string_view name) {
  static constexpr std::array<std::string_view, 8> kNames{
      "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

/// Declaration keywords that can precede a variable/function name.
bool is_decl_keyword(std::string_view name) {
  static constexpr std::array<std::string_view, 12> kNames{
      "const",  "constexpr", "constinit", "inline", "static", "extern",
      "mutable", "volatile",  "thread_local", "virtual", "explicit", "auto",
  };
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

std::string last_component(std::string_view qualified) {
  const auto pos = qualified.rfind("::");
  return std::string{pos == std::string_view::npos
                         ? qualified
                         : qualified.substr(pos + 2)};
}

/// Parses one file's token stream into the model's tables. The grammar is
/// the same "faithful about what is code" approximation the per-file rules
/// use: scopes are tracked by brace matching, declarations by a handful of
/// leading keywords, functions by the `name (params) qualifiers {` shape.
class FileParser {
 public:
  struct Tables {
    std::vector<FunctionDef>& functions;
    std::vector<RngConstruction>& rng_sites;
    std::vector<std::string>& rng_member_names;
    std::vector<std::pair<std::string, RngConstruction>>& pending_inits;
    std::vector<VirtualMethod>& virtual_methods;
    std::vector<EffectContract>& contracts;
    std::vector<StaticDecl>& static_decls;
    std::vector<MemberDecl>& member_decls;
    std::vector<MemberInit>& member_inits;
    std::vector<std::string>& src_classes;
  };

  FileParser(const SourceFile& file, std::size_t file_index, Tables tables)
      : f_{file},
        index_{file_index},
        code_{file.code()},
        functions_{tables.functions},
        rng_sites_{tables.rng_sites},
        rng_member_names_{tables.rng_member_names},
        member_inits_{tables.pending_inits},
        virtual_methods_{tables.virtual_methods},
        contracts_{tables.contracts},
        static_decls_{tables.static_decls},
        member_decls_{tables.member_decls},
        retained_inits_{tables.member_inits},
        src_classes_{tables.src_classes},
        in_src_{file.path().starts_with("src/")} {}

  void run() {
    std::size_t i = 0;
    while (i < code_.size()) i = parse_at_scope(i);
  }

 private:
  struct Scope {
    enum class Kind { ns, type } kind;
    std::string name;
  };

  bool in_type_scope() const {
    return !scopes_.empty() && scopes_.back().kind == Scope::Kind::type;
  }

  std::string scope_prefix() const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (s.name.empty()) continue;
      out += s.name;
      out += "::";
    }
    return out;
  }

  /// Skip a balanced token group when code_[i] opens one; otherwise ++i.
  std::size_t advance_past(std::size_t i) const {
    if (punct_at(code_, i, "(")) return skip_group(code_, i, "(", ")");
    if (punct_at(code_, i, "{")) return skip_group(code_, i, "{", "}");
    if (punct_at(code_, i, "[")) return skip_group(code_, i, "[", "]");
    return i + 1;
  }

  /// Index just past the `;` terminating the construct at `i` (groups
  /// skipped); stops early at a scope-closing `}`.
  std::size_t skip_to_semicolon(std::size_t i) const {
    while (i < code_.size()) {
      if (punct_at(code_, i, ";")) return i + 1;
      if (punct_at(code_, i, "}")) return i;  // scope close: let caller pop
      i = advance_past(i);
    }
    return i;
  }

  // ---- scope-level dispatch ----------------------------------------------

  std::size_t parse_at_scope(std::size_t i) {
    if (punct_at(code_, i, "}")) {
      if (!scopes_.empty()) scopes_.pop_back();
      return i + 1;
    }
    if (punct_at(code_, i, ";") || punct_at(code_, i, "{")) {
      // stray semicolon / unclaimed brace (e.g. attribute blocks): treat an
      // unclaimed brace as an anonymous scope so matching stays balanced.
      if (punct_at(code_, i, "{")) scopes_.push_back({Scope::Kind::ns, ""});
      return i + 1;
    }
    if (ident_at(code_, i, "namespace")) return parse_namespace(i);
    if (ident_at(code_, i, "using") || ident_at(code_, i, "typedef") ||
        ident_at(code_, i, "static_assert") || ident_at(code_, i, "friend")) {
      return skip_to_semicolon(i);
    }
    if (ident_at(code_, i, "template")) {
      // Skip the parameter list; the declaration that follows parses as
      // usual (its body evidence is collected like any other function's).
      if (i + 1 < code_.size() && punct_at(code_, i + 1, "<")) {
        return skip_angles(code_, i + 1);
      }
      return i + 1;
    }
    if (ident_at(code_, i, "extern")) {
      // `extern "C" {` opens a linkage scope; other externs are
      // declarations, not definitions, so they produce no inventory rows.
      if (i + 2 < code_.size() && code_[i + 1].kind == TokenKind::string_lit &&
          punct_at(code_, i + 2, "{")) {
        scopes_.push_back({Scope::Kind::ns, ""});
        return i + 3;
      }
      return skip_to_semicolon(i);
    }
    if (ident_at(code_, i, "enum")) {
      std::size_t j = i + 1;
      while (j < code_.size() && !punct_at(code_, j, "{") &&
             !punct_at(code_, j, ";")) {
        ++j;
      }
      if (j < code_.size() && punct_at(code_, j, "{")) {
        j = skip_group(code_, j, "{", "}");
      }
      return skip_to_semicolon(j);
    }
    if ((ident_at(code_, i, "class") || ident_at(code_, i, "struct") ||
         ident_at(code_, i, "union"))) {
      return parse_type(i);
    }
    if (in_type_scope() &&
        (ident_at(code_, i, "public") || ident_at(code_, i, "private") ||
         ident_at(code_, i, "protected")) &&
        punct_at(code_, i + 1, ":")) {
      return i + 2;
    }
    return parse_declaration(i);
  }

  std::size_t parse_namespace(std::size_t i) {
    // `namespace a::b {`, `namespace {`, or an alias `namespace x = y;`.
    std::string name;
    std::size_t j = i + 1;
    while (j < code_.size() && !punct_at(code_, j, "{") &&
           !punct_at(code_, j, ";") && !punct_at(code_, j, "=")) {
      if (code_[j].kind == TokenKind::identifier ||
          code_[j].punct_is("::")) {
        name += code_[j].text;
      }
      ++j;
    }
    if (j < code_.size() && punct_at(code_, j, "{")) {
      scopes_.push_back({Scope::Kind::ns, name});
      return j + 1;
    }
    return skip_to_semicolon(j);
  }

  std::size_t parse_type(std::size_t i) {
    // Scan the head for the type name; `{` starts the body, `;` is a
    // forward declaration (or an elaborated-type variable, skipped).
    std::string name;
    std::size_t j = i + 1;
    while (j < code_.size() && !punct_at(code_, j, "{") &&
           !punct_at(code_, j, ";")) {
      if (code_[j].kind == TokenKind::identifier && !ident_at(code_, j, "final") &&
          !ident_at(code_, j, "alignas")) {
        if (punct_at(code_, j + 1, ":") || punct_at(code_, j + 1, "{") ||
            ident_at(code_, j + 1, "final")) {
          name = code_[j].text;
        }
      }
      if (punct_at(code_, j, ":")) {
        // Base clause: everything to `{` belongs to it.
        while (j < code_.size() && !punct_at(code_, j, "{") &&
               !punct_at(code_, j, ";")) {
          if (punct_at(code_, j, "<")) {
            j = skip_angles(code_, j);
          } else {
            ++j;
          }
        }
        break;
      }
      ++j;
    }
    if (j < code_.size() && punct_at(code_, j, "{")) {
      if (in_src_ && !name.empty()) src_classes_.push_back(name);
      scopes_.push_back({Scope::Kind::type, name});
      return j + 1;
    }
    return skip_to_semicolon(j);
  }

  // ---- general declarations ----------------------------------------------

  std::size_t parse_declaration(std::size_t start) {
    bool saw_const = false;
    bool saw_constexpr = false;
    bool saw_static = false;
    bool saw_virtual = false;
    std::string last_ident;
    std::size_t last_ident_idx = 0;
    std::string rng_type;  // nonempty when the decl-specifiers name an RNG
    std::size_t i = start;
    while (i < code_.size()) {
      const Token& t = code_[i];
      if (t.kind == TokenKind::identifier) {
        if (t.text == "const" || t.text == "constexpr" ||
            t.text == "constinit") {
          saw_const = true;
          if (t.text != "const") saw_constexpr = true;
          ++i;
          continue;
        }
        if (t.text == "static") {
          saw_static = true;
          ++i;
          continue;
        }
        if (t.text == "operator") return parse_operator(start, i);
        if (t.text == "virtual") {
          saw_virtual = true;
          ++i;
          continue;
        }
        if (is_decl_keyword(t.text)) {
          ++i;
          continue;
        }
        if (is_rng_type_name(t.text)) rng_type = t.text;
        last_ident = t.text;
        last_ident_idx = i;
        // `name (` → function declarator or paren-init; decide by suffix.
        if (punct_at(code_, i + 1, "(")) {
          return parse_callable(start, i, saw_virtual);
        }
        // `Type{args}` temporary at declaration scope is rare; the in-body
        // scan handles the ones that matter.
        ++i;
        continue;
      }
      if (t.punct_is("<")) {
        i = skip_angles(code_, i);
        continue;
      }
      if (t.punct_is("~")) {  // destructor: `~Name (` with no return type
        if (i + 2 < code_.size() &&
            code_[i + 1].kind == TokenKind::identifier &&
            punct_at(code_, i + 2, "(")) {
          return parse_callable(start, i + 1, saw_virtual, /*dtor=*/true);
        }
        ++i;
        continue;
      }
      if (t.punct_is("=") || t.punct_is("{") || t.punct_is(";") ||
          t.punct_is("[")) {
        return finish_variable(start, i, last_ident, last_ident_idx, rng_type,
                               saw_const, saw_constexpr, saw_static);
      }
      if (t.punct_is("}")) return i;  // malformed / scope close
      ++i;
    }
    return i;
  }

  std::size_t parse_operator(std::size_t start, std::size_t i) {
    // `operator<sym>(...)` / conversion operator. Name the definition
    // "operator<sym>" and parse it like any callable so body evidence is
    // still collected; calls to operators are not name-resolvable anyway.
    std::string name = "operator";
    std::size_t j = i + 1;
    while (j < code_.size() && !punct_at(code_, j, "(")) {
      name += code_[j].text;
      ++j;
    }
    if (j >= code_.size()) return j;
    return parse_callable_named(start, j, name, /*class_qual=*/"");
  }

  std::size_t parse_callable(std::size_t start, std::size_t name_idx,
                             bool saw_virtual, bool dtor = false) {
    // Walk back over a `Class ::` (possibly nested) qualifier chain.
    std::string class_qual;
    std::size_t back = dtor ? name_idx - 1 : name_idx;  // `~` sits before name
    while (back >= 2 && code_[back - 1].punct_is("::") &&
           code_[back - 2].kind == TokenKind::identifier) {
      class_qual = class_qual.empty()
                       ? code_[back - 2].text
                       : code_[back - 2].text + "::" + class_qual;
      back -= 2;
    }
    std::string name = (dtor ? "~" : "") + code_[name_idx].text;
    return parse_callable_named(start, name_idx + 1, name, class_qual,
                                saw_virtual);
  }

  /// `open_idx` is the index of the parameter-list `(`.
  std::size_t parse_callable_named(std::size_t start, std::size_t open_idx,
                                   const std::string& name,
                                   const std::string& class_qual,
                                   bool saw_virtual = false) {
    const std::size_t params_end = skip_group(code_, open_idx, "(", ")");
    const std::string qualified =
        scope_prefix() + (class_qual.empty() ? "" : class_qual + "::") + name;
    bool has_override = false;
    bool has_noexcept = false;
    std::size_t j = params_end;
    while (j < code_.size()) {
      const Token& t = code_[j];
      if (t.punct_is("{") || t.punct_is(";") || t.punct_is("=") ||
          t.punct_is(":") || t.punct_is(",") || t.punct_is(")") ||
          t.punct_is("}")) {
        break;
      }
      if (t.ident("override")) has_override = true;
      if (t.ident("noexcept")) has_noexcept = true;
      if (t.ident("HB_EFFECTS") && punct_at(code_, j + 1, "(")) {
        // The macro expands to nothing for the compiler; the analyzer reads
        // its argument list as the declared effect contract. Contracts on
        // declarations and definitions share the qualified-name key, so a
        // header contract meets its .cpp body in the effects rule.
        EffectContract contract;
        contract.qualified = qualified;
        contract.file = index_;
        contract.line = t.line;
        const std::size_t close = skip_group(code_, j + 1, "(", ")");
        for (std::size_t k = j + 2; k + 1 < close; ++k) {
          if (code_[k].kind == TokenKind::identifier) {
            contract.declared.push_back(code_[k].text);
          }
        }
        contracts_.push_back(std::move(contract));
        j = close;
        continue;
      }
      if (t.punct_is("->") || t.punct_is("<")) {
        if (t.punct_is("<")) {
          j = skip_angles(code_, j);
          continue;
        }
        ++j;
        continue;
      }
      if (punct_at(code_, j, "(")) {  // noexcept(...) / attribute groups
        j = skip_group(code_, j, "(", ")");
        continue;
      }
      ++j;
    }
    (void)has_noexcept;
    // Inventory virtual member declarations (bodies not required, so pure
    // virtuals count; `override` implies a virtual base). Destructors are
    // skipped: a member call can never name one.
    const std::string decl_class =
        !class_qual.empty() ? last_component(class_qual)
                            : (in_type_scope() ? scopes_.back().name : "");
    if ((saw_virtual || has_override) && !decl_class.empty() &&
        !name.empty() && name[0] != '~') {
      virtual_methods_.push_back(
          {name, decl_class, index_, code_[open_idx].line});
    }
    if (j >= code_.size()) return j;
    if (punct_at(code_, j, ";") || punct_at(code_, j, "=") ||
        punct_at(code_, j, ",") || punct_at(code_, j, ")") ||
        punct_at(code_, j, "}")) {
      // Declaration only (or `= default/delete/0`, or a paren-init
      // variable, or a macro invocation): nothing to model.
      return skip_to_semicolon(start < j ? j : start);
    }
    FunctionDef fn;
    fn.name = name;
    fn.class_name = !class_qual.empty()
                        ? last_component(class_qual)
                        : (in_type_scope() ? scopes_.back().name : "");
    fn.qualified = qualified;
    fn.file = index_;
    fn.line = code_[open_idx].line;
    fn.is_fire_override = (name == "fire") && has_override;
    for (std::size_t k = open_idx + 1; k + 1 < params_end; ++k) {
      if (code_[k].ident("Simulator") &&
          (punct_at(code_, k + 1, "&") || punct_at(code_, k + 1, "*"))) {
        ++fn.simulator_params;
      }
    }
    if (punct_at(code_, j, ":")) j = parse_ctor_init_list(j + 1, fn);
    if (j >= code_.size() || !punct_at(code_, j, "{")) {
      return skip_to_semicolon(j);
    }
    const std::size_t body_end = skip_group(code_, j, "{", "}");
    scan_body(j + 1, body_end > 0 ? body_end - 1 : j + 1, fn);
    functions_.push_back(std::move(fn));
    return body_end;
  }

  /// Parse `: member(args), member{args}, Base(args) ...` up to the body
  /// `{`. Member initializers are recorded for the RNG-taint rule (filtered
  /// against RNG-typed member names at finalize) and their argument tokens
  /// are also scanned as body evidence.
  std::size_t parse_ctor_init_list(std::size_t i, FunctionDef& fn) {
    while (i < code_.size()) {
      // Member or base name (skip qualifiers/templates).
      std::string member;
      int line = code_[i].line;
      while (i < code_.size() && (code_[i].kind == TokenKind::identifier ||
                                  code_[i].punct_is("::"))) {
        if (code_[i].kind == TokenKind::identifier) member = code_[i].text;
        line = code_[i].line;
        ++i;
      }
      if (i < code_.size() && punct_at(code_, i, "<")) i = skip_angles(code_, i);
      if (i >= code_.size()) return i;
      if (punct_at(code_, i, "(") || punct_at(code_, i, "{")) {
        const bool brace = punct_at(code_, i, "{");
        const std::size_t end =
            skip_group(code_, i, brace ? "{" : "(", brace ? "}" : ")");
        RngConstruction init;
        init.var_name = member;
        init.file = index_;
        init.line = line;
        init.args.assign(code_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                         code_.begin() + static_cast<std::ptrdiff_t>(end) - 1);
        init.default_constructed = init.args.empty();
        if (in_src_ && !fn.class_name.empty()) {
          MemberInit retained;
          retained.class_name = fn.class_name;
          retained.member = member;
          retained.args = init.args;
          retained.file = index_;
          retained.line = line;
          retained_inits_.push_back(std::move(retained));
        }
        member_inits_.emplace_back(member, std::move(init));
        scan_body(i + 1, end - 1, fn);  // calls inside init args still count
        i = end;
      }
      if (i < code_.size() && punct_at(code_, i, ",")) {
        ++i;
        continue;
      }
      return i;  // expect the body `{` here
    }
    return i;
  }

  /// Space-joined text of the declaration's type tokens: everything in
  /// [start, stop) except the declared-name token itself.
  std::string type_text(std::size_t start, std::size_t stop,
                        std::size_t name_idx) const {
    std::string out;
    for (std::size_t k = start; k < stop && k < code_.size(); ++k) {
      if (k == name_idx) continue;
      if (!out.empty()) out += ' ';
      out += code_[k].text;
    }
    return out;
  }

  std::size_t finish_variable(std::size_t start, std::size_t stop_idx,
                              const std::string& name, std::size_t name_idx,
                              const std::string& rng_type, bool saw_const,
                              bool saw_constexpr, bool saw_static) {
    const int line = code_[start].line;
    const bool at_type_scope = in_type_scope();
    if (!name.empty() && !saw_constexpr &&
        (!at_type_scope || saw_static)) {
      // Static storage duration: namespace scope, or a static data member
      // (as process-wide as any global). `const` included (a `static const
      // Simulator*` cache is exactly what sim_escape hunts), `constexpr`
      // excluded: a constant expression cannot hold a runtime address.
      StaticDecl decl;
      decl.name = name;
      decl.qualified = scope_prefix() + name;
      decl.type_text = type_text(start, stop_idx, name_idx);
      decl.file = index_;
      decl.line = line;
      decl.is_const = saw_const;
      static_decls_.push_back(std::move(decl));
    }
    if (in_src_ && at_type_scope && !saw_static && !name.empty() &&
        !scopes_.back().name.empty()) {
      MemberDecl member;
      member.class_name = scopes_.back().name;
      member.name = name;
      member.type_text = type_text(start, stop_idx, name_idx);
      for (std::size_t k = start; k < stop_idx; ++k) {
        if (k == name_idx) continue;
        if (code_[k].punct_is("*") || code_[k].punct_is("&") ||
            code_[k].punct_is("&&")) {
          member.is_ref_or_ptr = true;
        }
      }
      member.file = index_;
      member.line = line;
      member_decls_.push_back(std::move(member));
    }
    if (!rng_type.empty() && !name.empty()) {
      if (at_type_scope) rng_member_names_.push_back(name);
      RngConstruction site;
      site.type_name = rng_type;
      site.var_name = name;
      site.file = index_;
      site.line = line;
      if (punct_at(code_, stop_idx, "{") || punct_at(code_, stop_idx, "(")) {
        const bool brace = punct_at(code_, stop_idx, "{");
        const std::size_t end = skip_group(code_, stop_idx, brace ? "{" : "(",
                                           brace ? "}" : ")");
        site.args.assign(
            code_.begin() + static_cast<std::ptrdiff_t>(stop_idx) + 1,
            code_.begin() + static_cast<std::ptrdiff_t>(end) - 1);
        site.default_constructed = site.args.empty();
        rng_sites_.push_back(std::move(site));
      } else if (punct_at(code_, stop_idx, ";") && !at_type_scope) {
        // `std::mt19937 gen;` at namespace scope: default-seeded engine.
        site.default_constructed = true;
        rng_sites_.push_back(std::move(site));
      }
      // A bare member declaration (`sim::Random rng_;`) is constructed in a
      // ctor-init-list; the pending member-init table covers it.
    }
    // Skip the initializer. A brace group not followed by `;` is an
    // unrecognized definition body (e.g. an operator we failed to classify);
    // consume just the group so the next declaration parses cleanly.
    std::size_t i = stop_idx;
    if (punct_at(code_, i, "{")) {
      i = skip_group(code_, i, "{", "}");
      if (i < code_.size() && punct_at(code_, i, ";")) ++i;
      return i;
    }
    return skip_to_semicolon(i);
  }

  // ---- function bodies ----------------------------------------------------

  void scan_body(std::size_t begin, std::size_t end, FunctionDef& fn) {
    for (std::size_t i = begin; i < end && i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (t.kind != TokenKind::identifier) continue;
      if (t.text == "new") {
        if (i > 0 && ident_at(code_, i - 1, "operator")) continue;
        fn.evidence.push_back({EvidenceKind::naked_new, t.line, "new"});
        continue;
      }
      if (t.text == "throw") {
        fn.evidence.push_back({EvidenceKind::throw_stmt, t.line, "throw"});
        continue;
      }
      if (t.text == "std" && punct_at(code_, i + 1, "::") &&
          ident_at(code_, i + 2, "function")) {
        fn.evidence.push_back(
            {EvidenceKind::function_construct, t.line, "std::function"});
        continue;
      }
      if (is_io_object(t.text)) {
        fn.evidence.push_back({EvidenceKind::io_call, t.line, t.text});
        continue;
      }
      if (is_blocking_guard(t.text)) {
        fn.evidence.push_back({EvidenceKind::blocking_call, t.line, t.text});
        continue;
      }
      if (is_rng_type_name(t.text) || t.text == "random_device") {
        // Construction (or any other mention) of an RNG type: the body
        // owns a randomness source. Drawing from one is caught below.
        fn.evidence.push_back({EvidenceKind::rng_call, t.line, t.text});
        continue;
      }
      if (!punct_at(code_, i + 1, "(")) {
        // Bare identifier followed by an assigning operator: a write
        // candidate for the global_mut effect (locals filter out when the
        // engine intersects with the global inventory). The tokenizer
        // splits compound operators, so `x += v` is `x` `+` `=` and
        // `x++` is `x` `+` `+`; plain `=` must not match `==`.
        const bool bare = i == 0 || !(code_[i - 1].punct_is(".") ||
                                      code_[i - 1].punct_is("->") ||
                                      code_[i - 1].punct_is("::"));
        if (bare && i + 1 < code_.size()) {
          const bool plain_assign =
              punct_at(code_, i + 1, "=") && !punct_at(code_, i + 2, "=");
          const bool compound =
              code_[i + 1].kind == TokenKind::punct &&
              is_compoundable_op(code_[i + 1].text) &&
              punct_at(code_, i + 2, "=");
          const bool incr =
              (punct_at(code_, i + 1, "+") && punct_at(code_, i + 2, "+")) ||
              (punct_at(code_, i + 1, "-") && punct_at(code_, i + 2, "-"));
          if (plain_assign || compound || incr) {
            fn.writes.push_back({t.text, t.line});
          }
        }
        continue;
      }
      if (is_control_keyword(t.text)) continue;
      // Local statics inside bodies are found by the keyword, not calls.
      if (t.text == "static") continue;
      CallSite call;
      call.callee = t.text;
      call.line = t.line;
      if (i >= 2 && code_[i - 1].punct_is("::") &&
          code_[i - 2].kind == TokenKind::identifier) {
        std::size_t back = i;
        std::string qual;
        while (back >= 2 && code_[back - 1].punct_is("::") &&
               code_[back - 2].kind == TokenKind::identifier) {
          qual = qual.empty() ? code_[back - 2].text
                              : code_[back - 2].text + "::" + qual;
          back -= 2;
        }
        call.qualifier = qual;
      } else if (i >= 1 &&
                 (code_[i - 1].punct_is(".") || code_[i - 1].punct_is("->"))) {
        call.qualifier = "<member>";
      }
      if (is_alloc_call(call.callee)) {
        fn.evidence.push_back({EvidenceKind::alloc_call, t.line, call.callee});
      } else if (is_growth_call(call.callee) && call.qualifier == "<member>") {
        fn.evidence.push_back(
            {EvidenceKind::container_growth, t.line, call.callee});
      } else if (is_clock_call(call.callee) ||
                 (call.callee == "now" && call.qualifier.ends_with("_clock"))) {
        // Wall-clock reads only. Simulator::now() is virtual time and
        // arrives as a <member> call, so it never matches the _clock form.
        fn.evidence.push_back({EvidenceKind::clock_call, t.line, call.callee});
      } else if (is_rng_draw_call(call.callee) &&
                 call.qualifier == "<member>") {
        fn.evidence.push_back({EvidenceKind::rng_call, t.line, call.callee});
      } else if (is_io_call(call.callee)) {
        fn.evidence.push_back({EvidenceKind::io_call, t.line, call.callee});
      } else if (is_blocking_call(call.callee) &&
                 (call.qualifier == "<member>" ||
                  call.qualifier.ends_with("this_thread"))) {
        fn.evidence.push_back(
            {EvidenceKind::blocking_call, t.line, call.callee});
      }
      fn.calls.push_back(std::move(call));
    }
    scan_local_statics(begin, end, fn);
    scan_local_rng(begin, end);
  }

  void scan_local_statics(std::size_t begin, std::size_t end,
                          FunctionDef& fn) {
    for (std::size_t i = begin; i < end && i < code_.size(); ++i) {
      if (!ident_at(code_, i, "static")) continue;
      if (ident_at(code_, i + 1, "constexpr") ||
          ident_at(code_, i + 1, "assert") || ident_at(code_, i + 1, "cast")) {
        continue;
      }
      // Find the declared name: last identifier before `=`/`{`/`(`/`;`.
      std::string name;
      std::size_t name_idx = 0;
      std::size_t j = i + 1;
      bool is_const = false;
      bool is_constexpr = false;
      while (j < end && !punct_at(code_, j, ";") && !punct_at(code_, j, "=") &&
             !punct_at(code_, j, "{") && !punct_at(code_, j, "(")) {
        if (ident_at(code_, j, "const") || ident_at(code_, j, "constexpr")) {
          is_const = true;
          if (ident_at(code_, j, "constexpr")) is_constexpr = true;
        }
        if (code_[j].kind == TokenKind::identifier) {
          name = code_[j].text;
          name_idx = j;
        }
        if (punct_at(code_, j, "<")) {
          j = skip_angles(code_, j);
          continue;
        }
        ++j;
      }
      if (name.empty()) continue;
      if (!is_constexpr) {
        // `static const` locals are recorded too (a const pointer cache
        // still aliases a live object — sim_escape's concern); only the
        // mutable ones are global_write evidence.
        StaticDecl decl;
        decl.name = name;
        decl.qualified = fn.qualified + "::" + name;
        decl.type_text = type_text(i + 1, j, name_idx);
        decl.file = index_;
        decl.line = code_[i].line;
        decl.is_local_static = true;
        decl.is_const = is_const;
        static_decls_.push_back(std::move(decl));
      }
      if (is_const) continue;
      fn.evidence.push_back(
          {EvidenceKind::global_write, code_[i].line, name});
    }
  }

  void scan_local_rng(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end && i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (t.kind != TokenKind::identifier || !is_rng_type_name(t.text)) continue;
      // `Random name{args}` / `Random name(args)` / `Random{args}` /
      // `std::mt19937 gen;`
      RngConstruction site;
      site.type_name = t.text;
      site.file = index_;
      site.line = t.line;
      std::size_t j = i + 1;
      if (j < end && code_[j].kind == TokenKind::identifier) {
        site.var_name = code_[j].text;
        ++j;
      }
      if (j < end && (punct_at(code_, j, "{") || punct_at(code_, j, "("))) {
        const bool brace = punct_at(code_, j, "{");
        const std::size_t close = skip_group(code_, j, brace ? "{" : "(",
                                             brace ? "}" : ")");
        site.args.assign(code_.begin() + static_cast<std::ptrdiff_t>(j) + 1,
                         code_.begin() + static_cast<std::ptrdiff_t>(close) - 1);
        site.default_constructed = site.args.empty();
        rng_sites_.push_back(std::move(site));
      } else if (j < end && punct_at(code_, j, ";") && !site.var_name.empty()) {
        site.default_constructed = true;
        rng_sites_.push_back(std::move(site));
      }
    }
  }

  const SourceFile& f_;
  std::size_t index_;
  const std::vector<Token>& code_;
  std::vector<Scope> scopes_;
  std::vector<FunctionDef>& functions_;
  std::vector<RngConstruction>& rng_sites_;
  std::vector<std::string>& rng_member_names_;
  std::vector<std::pair<std::string, RngConstruction>>& member_inits_;
  std::vector<VirtualMethod>& virtual_methods_;
  std::vector<EffectContract>& contracts_;
  std::vector<StaticDecl>& static_decls_;
  std::vector<MemberDecl>& member_decls_;
  std::vector<MemberInit>& retained_inits_;
  std::vector<std::string>& src_classes_;
  bool in_src_ = false;
};

}  // namespace

std::string_view to_string(EvidenceKind kind) {
  switch (kind) {
    case EvidenceKind::naked_new: return "naked new";
    case EvidenceKind::alloc_call: return "allocating call";
    case EvidenceKind::container_growth: return "container growth";
    case EvidenceKind::throw_stmt: return "throw";
    case EvidenceKind::function_construct: return "std::function construction";
    case EvidenceKind::clock_call: return "wall-clock read";
    case EvidenceKind::rng_call: return "RNG use";
    case EvidenceKind::io_call: return "ambient I/O";
    case EvidenceKind::blocking_call: return "blocking call";
    case EvidenceKind::global_write: return "global write";
  }
  return "?";
}

bool is_hot_path_evidence(EvidenceKind kind) {
  switch (kind) {
    case EvidenceKind::naked_new:
    case EvidenceKind::alloc_call:
    case EvidenceKind::container_growth:
    case EvidenceKind::throw_stmt:
    case EvidenceKind::function_construct:
      return true;
    default:
      return false;
  }
}

ProjectModel ProjectModel::build(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(root / "src")) {
    throw std::runtime_error{"no src/ directory under " + root.string()};
  }
  ProjectModel model;
  std::vector<fs::path> paths;
  for (const char* subdir : {"src", "bench", "examples", "tests", "tools"}) {
    const fs::path base = root / subdir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator{base}) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      // Fixture files are deliberately broken inputs for the tool's own
      // tests; modeling them would plant findings in a clean tree.
      if (rel.starts_with("tests/lint/fixtures")) continue;
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    model.add_file(
        SourceFile{fs::relative(path, root).generic_string(), read_file(path)});
  }
  model.finalize();
  return model;
}

void ProjectModel::add_file(SourceFile file) {
  path_index_.emplace(file.path(), files_.size());
  files_.push_back(std::move(file));
}

std::optional<std::size_t> ProjectModel::file_index(
    std::string_view path) const {
  const auto it = path_index_.find(path);
  if (it == path_index_.end()) return std::nullopt;
  return it->second;
}

void ProjectModel::finalize() {
  for (std::size_t i = 0; i < files_.size(); ++i) parse_file(i);
  // Ctor-init-list entries become RNG construction sites only when the
  // member name is known (anywhere in the tree) to be RNG-typed.
  std::sort(rng_member_names_.begin(), rng_member_names_.end());
  for (auto& [member, init] : pending_member_inits_) {
    if (std::binary_search(rng_member_names_.begin(), rng_member_names_.end(),
                           member)) {
      rng_sites_.push_back(std::move(init));
    }
  }
  pending_member_inits_.clear();
  std::sort(rng_sites_.begin(), rng_sites_.end(),
            [](const RngConstruction& a, const RngConstruction& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  std::sort(src_classes_.begin(), src_classes_.end());
  src_classes_.erase(std::unique(src_classes_.begin(), src_classes_.end()),
                     src_classes_.end());
  resolve_includes();
  build_name_index();
  resolve_calls();
}

void ProjectModel::parse_file(std::size_t index) {
  FileParser parser{files_[index], index,
                    {functions_, rng_sites_, rng_member_names_,
                     pending_member_inits_, virtual_methods_, contracts_,
                     static_decls_, member_decls_, member_inits_,
                     src_classes_}};
  parser.run();
}

void ProjectModel::resolve_includes() {
  for (std::size_t from = 0; from < files_.size(); ++from) {
    const SourceFile& file = files_[from];
    const std::string dir = [&] {
      const auto pos = file.path().rfind('/');
      return pos == std::string::npos ? std::string{}
                                      : file.path().substr(0, pos + 1);
    }();
    for (const Token& t : file.tokens()) {
      if (t.kind != TokenKind::pp_directive) continue;
      const auto inc_pos = t.text.find("include");
      if (inc_pos == std::string::npos) continue;
      const auto open = t.text.find('"', inc_pos);
      if (open == std::string::npos) continue;
      const auto close = t.text.find('"', open + 1);
      if (close == std::string::npos) continue;
      const std::string inc = t.text.substr(open + 1, close - open - 1);
      for (const std::string& candidate :
           {std::string{"src/"} + inc, dir + inc, inc}) {
        if (const auto to = file_index(candidate)) {
          includes_.push_back({from, *to, t.line});
          break;
        }
      }
    }
  }
}

void ProjectModel::build_name_index() {
  by_name_.clear();
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    by_name_[functions_[i].name].push_back(i);
  }
}

std::vector<std::size_t> ProjectModel::resolve_call(
    std::size_t caller, const CallSite& call) const {
  (void)caller;  // resolution is context-free today; the seam cut is not
  std::vector<std::size_t> out;
  const auto it = by_name_.find(call.callee);
  if (it == by_name_.end()) return out;
  if (!call.qualifier.empty() && call.qualifier != "<member>") {
    // Qualified: keep candidates whose enclosing class matches, or
    // whose qualified name contains the qualifier chain (namespace-
    // qualified free functions). A qualifier matching no project
    // symbol (std::, external libs) resolves to nothing rather than
    // everything.
    const std::string cls = last_component(call.qualifier);
    const std::string needle = call.qualifier + "::" + call.callee;
    for (std::size_t cand : it->second) {
      if (functions_[cand].class_name == cls ||
          functions_[cand].qualified.find(needle) != std::string::npos) {
        out.push_back(cand);
      }
    }
    return out;
  }
  out = it->second;
  return out;
}

void ProjectModel::resolve_calls() {
  call_edges_.assign(functions_.size(), {});
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    std::set<std::size_t> targets;
    for (const CallSite& call : functions_[i].calls) {
      for (std::size_t cand : resolve_call(i, call)) targets.insert(cand);
    }
    call_edges_[i].assign(targets.begin(), targets.end());
  }
}

std::string ProjectModel::layer_of(std::string_view path) {
  if (path.starts_with("src/")) {
    const auto rest = path.substr(4);
    const auto slash = rest.find('/');
    if (slash != std::string_view::npos) return std::string{rest.substr(0, slash)};
    return "";  // a file directly under src/ belongs to no layer
  }
  const auto slash = path.find('/');
  if (slash == std::string_view::npos) return "";
  const std::string top{path.substr(0, slash)};
  if (top == "bench" || top == "tests" || top == "examples" || top == "tools") {
    return top;
  }
  return "";
}

bool ProjectModel::is_interface_header(std::string_view to) {
  // The sanctioned observability interfaces: any src/ layer may include
  // these (and only these) from above its station — the audit hook, the
  // telemetry hub, and the one recording header (tracks). None of them
  // includes a file that includes them back, so the file-level graph stays
  // acyclic. See docs/static-analysis.md.
  return to == "src/audit/auditor.h" || to == "src/telemetry/hub.h" ||
         to == "src/telemetry/track.h";
}

std::string ProjectModel::layer_graph_dot() const {
  // Aggregate file edges by (from-layer, to-layer); an aggregate edge is
  // dashed when every contributing include targets an interface header.
  std::map<std::pair<std::string, std::string>, std::pair<int, bool>> edges;
  std::set<std::string> layers;
  for (const IncludeEdge& e : includes_) {
    const std::string from = layer_of(files_[e.from].path());
    const std::string to = layer_of(files_[e.to].path());
    if (from.empty() || to.empty() || from == to) continue;
    layers.insert(from);
    layers.insert(to);
    auto& [count, all_interface] = edges[{from, to}];
    if (count == 0) all_interface = true;
    ++count;
    all_interface = all_interface && is_interface_header(files_[e.to].path());
  }
  std::ostringstream out;
  out << "digraph halfback_layers {\n"
      << "  rankdir=BT;\n"
      << "  node [shape=box, fontname=\"Helvetica\"];\n";
  for (const std::string& layer : layers) {
    out << "  \"" << layer << "\";\n";
  }
  for (const auto& [key, val] : edges) {
    out << "  \"" << key.first << "\" -> \"" << key.second << "\" [label=\""
        << val.first << "\"";
    if (val.second) out << ", style=dashed";
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace halfback::lint
