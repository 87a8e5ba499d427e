// shard_safety: inventory mutable state with static storage duration.
//
// The sharded parallel experiment engine (ROADMAP) runs many simulator
// instances in one process. That is only sound if simulator code keeps all
// mutable state behind instance pointers: any non-const namespace-scope
// variable, mutable static data member, or function-local `static` (the
// classic singleton accessor) under src/ is shared across shards and a
// latent cross-shard race / determinism leak. This rule is the
// machine-checked precondition for a sharded engine: every such
// variable must either not exist or carry a `// lint: shard-ok(reason)`
// tag saying why it is shard-safe (const-after-init, synchronized,
// intentionally process-wide).
//
// The audit covers all of src/ — not just sim|net|transport|schemes|
// netfault|telemetry but also workload, stats, audit and exp, because
// every one of them is reachable from experiment code; a hidden global
// there is just as fatal to shard isolation.
#include "rules_internal.h"

namespace halfback::lint {
namespace {

class ShardSafetyRule final : public Rule {
 public:
  ShardSafetyRule()
      : Rule{"shard_safety", "shard-ok",
             "src/ must hold no mutable static-storage state without a "
             "'// lint: shard-ok(reason)' justification (sharded-engine "
             "precondition)"} {}

  void check(const ProjectModel& model,
             std::vector<Finding>& out) const override {
    for (const StaticDecl& var : model.static_decls()) {
      if (var.is_const) continue;
      const SourceFile& file = model.file(var.file);
      if (!file.path().starts_with("src/")) continue;
      report(file, var.line,
             std::string{var.is_local_static ? "function-local static '"
                                             : "mutable static-storage "
                                               "variable '"} +
                 var.qualified +
                 "' is shared across simulator shards; remove it or justify "
                 "it with '// lint: shard-ok(reason)'",
             out);
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_shard_safety_rule() {
  return std::make_unique<ShardSafetyRule>();
}

}  // namespace halfback::lint
