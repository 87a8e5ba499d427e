// halfback-lint: the project's static analyzer. Builds one model of the
// tree and runs every rule over it — the token rules on src/ files and the
// cross-TU rules on the include and call graphs.
//
//   halfback-lint --root <repo>             analyze the whole tree
//   --rule <id>                run a single rule
//   --list-rules               print the rule table and exit
//   --dot <file>               also write the layer include graph (Graphviz)
//   --effects <prefix>         print the inferred effect set of every
//                              function whose qualified name starts with
//                              <prefix> and exit (annotation aid)
//
// A finding is excused only inline, by a `// lint: <tag>(reason)` comment
// at its site. Exit status: 0 clean, 1 findings, 2 usage or I/O error
// (including a root without src/ and an unknown rule id), so CI failures
// are diagnosable from the code alone.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "effects.h"
#include "rules.h"

namespace {

using namespace halfback::lint;

struct Options {
  std::filesystem::path root = ".";
  std::string only_rule;
  std::string dot_path;
  std::string effects_prefix;
  bool dump_effects = false;
  bool list_rules = false;
};

int usage(std::ostream& out, int code) {
  out << "usage: halfback-lint --root <repo> [--rule <id>] [--list-rules]\n"
         "                     [--dot <file>]\n"
         "                     [--effects <qualified-name-prefix>]\n";
  return code;
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](std::string& into) {
      if (i + 1 >= argc) return false;
      into = argv[++i];
      return true;
    };
    std::string root_value;
    if (arg == "--root") {
      if (!value(root_value)) return false;
      opts.root = root_value;
    } else if (arg == "--rule") {
      if (!value(opts.only_rule)) return false;
    } else if (arg == "--dot") {
      if (!value(opts.dot_path)) return false;
    } else if (arg == "--effects") {
      if (!value(opts.effects_prefix)) return false;
      opts.dump_effects = true;
    } else if (arg == "--list-rules") {
      opts.list_rules = true;
    } else {
      return false;
    }
  }
  return true;
}

/// Write `text` to `path`; throws when the file cannot be opened or written.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path};
  if (!(out << text << std::flush)) {
    throw std::runtime_error{"cannot write " + path};
  }
}

/// Everything after argument parsing; throws on usage and I/O errors.
int run(const Options& opts) {
  const SeamInventory seams = load_seams(opts.root);
  const ProjectModel model = ProjectModel::build(opts.root);
  if (opts.dump_effects) {
    // Annotation aid: inferred effect set per matching function, in
    // symbol-table order (deterministic: directory scan is sorted).
    const EffectAnalysis analysis{model, seams};
    for (std::size_t i = 0; i < model.functions().size(); ++i) {
      const FunctionDef& fn = model.functions()[i];
      if (!fn.qualified.starts_with(opts.effects_prefix)) continue;
      std::cout << fn.qualified << " [" << analysis.of(i).to_string() << "] "
                << model.file(fn.file).path() << ":" << fn.line << "\n";
    }
    return 0;
  }
  const std::vector<Finding> findings =
      analyze_model(model, seams, opts.only_rule);
  if (!opts.dot_path.empty()) write_file(opts.dot_path, model.layer_graph_dot());

  for (const Finding& f : findings) {
    std::cout << f.path << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (findings.empty()) {
    std::cout << "halfback-lint: clean\n";
    return 0;
  }
  std::cout << "halfback-lint: " << findings.size() << " finding(s)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return usage(std::cerr, 2);

  if (opts.list_rules) {
    for (const auto& rule : all_rules()) {
      std::cout << rule->id() << "\n    " << rule->description();
      if (!rule->suppression_tag().empty()) {
        std::cout << "\n    suppression: // lint: " << rule->suppression_tag()
                  << "(reason)";
      }
      std::cout << "\n";
    }
    return 0;
  }

  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::cerr << "halfback-lint: " << e.what() << "\n";
    return 2;
  }
}
