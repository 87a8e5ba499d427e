// hot_path_reach: transitive hot-path purity proofs.
//
// The token rules hot-path-std-function / noexcept-fire check bodies they
// can see; this rule closes the gap they leave — a fire() body calling a
// helper two TUs away that allocates. Two root sets, two contracts:
//
//   * Wire roots — every `fire()` override defined under src/ (the
//     event-dispatch hot path; that set includes the net::Link TX/RX
//     events) plus net::Link::send, the per-packet entry point itself.
//     Reached functions may not allocate, throw, construct std::function,
//     or grow containers: the event loop's purity contract.
//   * Pipeline roots — every on_packet / on_rto defined under
//     src/transport/ or src/schemes/: the hot entries Sender<Policy>
//     instantiates. Reached functions enforce the static-dispatch
//     contract only — no std::function construction and no virtual
//     dispatch. (Amortized container growth and programming-error throws
//     are legitimate inside the transport state machines; the wire
//     contract above stays scoped to the event loop.)
//
// A multi-source BFS per root set marks everything reachable; findings
// carry the call chain that proves reachability.
//
// Both root sets are checked for virtual dispatch: a member call
// (obj.f() / ptr->f()) whose name matches any member declared virtual
// under src/ is reported. This is the one check that is deliberately
// conservative in the *inventing* direction — the tokenizer cannot see
// static types, so a member call to a non-virtual method that shares its
// name with some virtual (or one the compiler devirtualizes) trips it
// too. The static-pipeline contract is the point: every indirect call
// surviving on the packet path must appear in tools/lint/hot_seams.txt
// naming why that seam is allowed, so one inventory enumerates the
// complete set of sanctioned indirections (the factory's one
// SenderBase::on_packet dispatch, the polymorphic queue discipline, the
// fault hook) — and the effect engine (effects.h) honors the same file,
// cutting effect propagation at exactly the sanctioned call sites. An
// entry no call site needs anymore is itself a finding.
//
// Deliberate blind spots, chosen so the model misses rather than invents:
//   * std::function / function-pointer calls are invisible edges (the
//     per-file rules still police the bodies of the callbacks themselves
//     when they live in hot-path files);
//   * src/audit and src/telemetry are not traversed — the observation
//     layer is preallocated by design and reached only through
//     null-guarded hooks, so charging its bodies to the packet path would
//     be noise;
//   * only functions defined under src/ are traversed, so a name collision
//     with a test helper cannot drag tests/ code into the proof.
#include <map>
#include <set>
#include <sstream>

#include "rules_internal.h"

namespace halfback::lint {
namespace {

constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

bool traversable_path(const std::string& path) {
  if (!path.starts_with("src/")) return false;
  if (path.starts_with("src/audit/") || path.starts_with("src/telemetry/")) {
    return false;
  }
  return true;
}

bool traversable(const ProjectModel& model, const FunctionDef& fn) {
  return traversable_path(model.file(fn.file).path());
}

bool is_wire_root(const ProjectModel& model, const FunctionDef& fn) {
  return fn.is_fire_override ||
         (fn.name == "send" && fn.class_name == "Link" &&
          model.file(fn.file).path().starts_with("src/net/"));
}

bool is_pipeline_root(const ProjectModel& model, const FunctionDef& fn) {
  if (fn.name != "on_packet" && fn.name != "on_rto") return false;
  const std::string& path = model.file(fn.file).path();
  return path.starts_with("src/transport/") || path.starts_with("src/schemes/");
}

/// One BFS: reachability + parent pointers for the proof chains.
struct Reach {
  std::vector<bool> reached;
  std::vector<std::size_t> parent;
  std::vector<std::size_t> queue;  ///< BFS order, roots first

  Reach(const ProjectModel& model,
        bool (*root)(const ProjectModel&, const FunctionDef&)) {
    const auto& functions = model.functions();
    const auto& edges = model.call_edges();
    reached.assign(functions.size(), false);
    parent.assign(functions.size(), kNoParent);
    for (std::size_t i = 0; i < functions.size(); ++i) {
      if (!traversable(model, functions[i])) continue;
      if (!root(model, functions[i])) continue;
      reached[i] = true;
      queue.push_back(i);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t node = queue[head];
      for (std::size_t next : edges[node]) {
        if (reached[next] || !traversable(model, functions[next])) continue;
        reached[next] = true;
        parent[next] = node;
        queue.push_back(next);
      }
    }
  }
};

class HotPathReachRule final : public Rule {
 public:
  explicit HotPathReachRule(SeamInventory seams)
      : Rule{"hot_path_reach", "hot-ok",
             "functions reachable from fire() overrides or Link::send may not "
             "allocate, throw, or type-erase; functions reachable from the "
             "sender pipeline's on_packet/on_rto entries may not construct "
             "std::function or dispatch through an unsanctioned virtual call"},
        seams_{std::move(seams)} {}

  void check(const ProjectModel& model,
             std::vector<Finding>& out) const override {
    const auto& functions = model.functions();
    // Names that may dispatch virtually: every member declared virtual in
    // a traversable file (audit/telemetry virtuals are observation-layer
    // seams behind null-guarded hooks).
    std::set<std::string_view> virtual_names;
    for (const VirtualMethod& vm : model.virtual_methods()) {
      if (traversable_path(model.file(vm.file).path())) {
        virtual_names.insert(vm.name);
      }
    }

    const Reach wire{model, is_wire_root};
    std::set<std::size_t> seams_used;
    for (std::size_t i : wire.queue) {
      const FunctionDef& fn = functions[i];
      for (const Evidence& ev : fn.evidence) {
        // The effect kinds (clock/rng/io/...) belong to the effects rule;
        // this contract stays exactly the original five.
        if (!is_hot_path_evidence(ev.kind)) continue;
        std::ostringstream msg;
        msg << "hot path: '" << fn.qualified << "' ("
            << chain(functions, wire.parent, i) << ") must not contain "
            << to_string(ev.kind) << " ('" << ev.detail << "')";
        report(model.file(fn.file), ev.line, std::move(msg).str(), out);
      }
      report_virtual_calls(model, functions, wire.parent, i, virtual_names,
                           seams_used, out);
    }

    const Reach pipeline{model, is_pipeline_root};
    for (std::size_t i : pipeline.queue) {
      if (wire.reached[i]) continue;  // already held to the stricter contract
      const FunctionDef& fn = functions[i];
      for (const Evidence& ev : fn.evidence) {
        if (ev.kind != EvidenceKind::function_construct) continue;
        std::ostringstream msg;
        msg << "sender pipeline hot path: '" << fn.qualified << "' ("
            << chain(functions, pipeline.parent, i) << ") must not contain "
            << to_string(ev.kind) << " ('" << ev.detail << "')";
        report(model.file(fn.file), ev.line, std::move(msg).str(), out);
      }
      report_virtual_calls(model, functions, pipeline.parent, i, virtual_names,
                           seams_used, out);
    }

    // A seam entry no reachable call site needed is stale: the seam was
    // devirtualized, moved, or renamed, and keeping the entry would
    // silently sanction a future indirection that reuses the names.
    for (std::size_t s = 0; s < seams_.entries.size(); ++s) {
      if (seams_used.contains(s)) continue;
      const SeamEntry& entry = seams_.entries[s];
      out.push_back({std::string{id()}, "tools/lint/hot_seams.txt",
                     entry.source_line,
                     "stale seam entry '" + entry.caller + "' -> '" +
                         entry.callee + "' (" + entry.path +
                         "): no hot-path call site matches it"});
    }
  }

 private:
  void report_virtual_calls(const ProjectModel& model,
                            const std::vector<FunctionDef>& functions,
                            const std::vector<std::size_t>& parent,
                            std::size_t i,
                            const std::set<std::string_view>& virtual_names,
                            std::set<std::size_t>& seams_used,
                            std::vector<Finding>& out) const {
    const FunctionDef& fn = functions[i];
    const std::string& path = model.file(fn.file).path();
    for (const CallSite& call : fn.calls) {
      if (call.qualifier != "<member>") continue;
      if (!virtual_names.contains(call.callee)) continue;
      const std::size_t seam = seams_.find(fn.qualified, call.callee, path);
      if (seam < seams_.entries.size()) {
        // Sanctioned in tools/lint/hot_seams.txt — the one inventory both
        // this rule and the effect engine honor.
        seams_used.insert(seam);
        continue;
      }
      std::ostringstream msg;
      msg << "hot path: '" << fn.qualified << "' ("
          << chain(functions, parent, i)
          << ") must not dispatch through a virtual call ('" << call.callee
          << "' is declared virtual; devirtualize or add the sanctioned "
             "seam to tools/lint/hot_seams.txt)";
      report(model.file(fn.file), call.line, std::move(msg).str(), out);
    }
  }

  SeamInventory seams_;

  static std::string chain(const std::vector<FunctionDef>& functions,
                           const std::vector<std::size_t>& parent,
                           std::size_t node) {
    std::vector<std::size_t> path{node};
    while (parent[path.back()] != kNoParent) path.push_back(parent[path.back()]);
    if (path.size() == 1) return "a hot-path root";
    std::ostringstream out;
    out << "reached via ";
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      if (it != path.rbegin()) out << " -> ";
      out << functions[*it].qualified;
    }
    return std::move(out).str();
  }
};

}  // namespace

std::unique_ptr<Rule> make_hot_path_reach_rule(SeamInventory seams) {
  return std::make_unique<HotPathReachRule>(std::move(seams));
}

}  // namespace halfback::lint
