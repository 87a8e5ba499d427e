#include "effects.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace halfback::lint {
namespace {

/// The effect a piece of body evidence witnesses directly. The five
/// hot-path kinds fold into alloc/throw_; the effect kinds map one-to-one.
Effect effect_of_evidence(EvidenceKind kind) {
  switch (kind) {
    case EvidenceKind::naked_new:
    case EvidenceKind::alloc_call:
    case EvidenceKind::container_growth:
    case EvidenceKind::function_construct:
      return Effect::alloc;
    case EvidenceKind::throw_stmt:
      return Effect::throw_;
    case EvidenceKind::clock_call:
      return Effect::clock;
    case EvidenceKind::rng_call:
      return Effect::rng;
    case EvidenceKind::io_call:
      return Effect::io;
    case EvidenceKind::blocking_call:
      return Effect::block;
    case EvidenceKind::global_write:
      return Effect::global_mut;
  }
  return Effect::alloc;  // unreachable
}

}  // namespace

std::string_view to_string(Effect effect) {
  switch (effect) {
    case Effect::alloc: return "alloc";
    case Effect::throw_: return "throw";
    case Effect::clock: return "clock";
    case Effect::rng: return "rng";
    case Effect::io: return "io";
    case Effect::global_mut: return "global_mut";
    case Effect::block: return "block";
  }
  return "?";
}

std::optional<Effect> effect_from_token(std::string_view token) {
  for (int e = 0; e < kEffectCount; ++e) {
    if (to_string(static_cast<Effect>(e)) == token) {
      return static_cast<Effect>(e);
    }
  }
  return std::nullopt;
}

std::string EffectSet::to_string() const {
  std::string out;
  for (int e = 0; e < kEffectCount; ++e) {
    if (!contains(static_cast<Effect>(e))) continue;
    if (!out.empty()) out += ", ";
    out += lint::to_string(static_cast<Effect>(e));
  }
  return out.empty() ? "pure" : out;
}

EffectAnalysis::EffectAnalysis(const ProjectModel& model,
                               const SeamInventory& seams)
    : model_{model} {
  const auto& functions = model.functions();
  effects_.assign(functions.size(), {});
  origins_.assign(functions.size(), {});

  // Local pass: body evidence, plus bare writes that hit the global
  // inventory (locals shadowing a global name are a conservative
  // over-approximation the tree keeps at zero).
  std::set<std::string_view> global_names;
  for (const StaticDecl& decl : model.static_decls()) {
    if (!decl.is_const) global_names.insert(decl.name);
  }
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionDef& fn = functions[i];
    for (const Evidence& ev : fn.evidence) {
      const Effect e = effect_of_evidence(ev.kind);
      if (!effects_[i].contains(e)) {
        origins_[i][static_cast<int>(e)] = {EffectOrigin::kLocal, ev.line,
                                            ev.detail};
        effects_[i].add(e);
      }
    }
    for (const WriteSite& w : fn.writes) {
      if (!global_names.contains(w.name)) continue;
      if (!effects_[i].contains(Effect::global_mut)) {
        origins_[i][static_cast<int>(Effect::global_mut)] = {
            EffectOrigin::kLocal, w.line, w.name + " ="};
        effects_[i].add(Effect::global_mut);
      }
    }
  }

  // Per-call-site edges with the sanctioned seams cut out. A seam entry
  // says "this indirection is tolerated": the callee's effects are the
  // seam implementor's business (checked at its own definition), not the
  // caller's, exactly as hot_path_reach stops reporting there.
  struct Edge {
    std::size_t callee;
    int line;
  };
  std::vector<std::vector<Edge>> edges(functions.size());
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionDef& fn = functions[i];
    const std::string& path = model.file(fn.file).path();
    for (const CallSite& call : fn.calls) {
      if (seams.find(fn.qualified, call.callee, path) <
          seams.entries.size()) {
        continue;
      }
      for (std::size_t target : model.resolve_call(i, call)) {
        edges[i].push_back({target, call.line});
      }
    }
  }

  // Fixpoint: union callee sets into callers until stable. The lattice
  // has 7 bits, so each function changes at most 7 times; a plain sweep
  // loop converges in a handful of passes on this tree.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < functions.size(); ++i) {
      for (const Edge& edge : edges[i]) {
        for (int e = 0; e < kEffectCount; ++e) {
          const Effect effect = static_cast<Effect>(e);
          if (!effects_[edge.callee].contains(effect) ||
              effects_[i].contains(effect)) {
            continue;
          }
          origins_[i][e] = {edge.callee, edge.line,
                            functions[edge.callee].name};
          effects_[i].add(effect);
          changed = true;
        }
      }
    }
  }
}

std::string EffectAnalysis::witness(std::size_t fn, Effect effect) const {
  if (!effects_[fn].contains(effect)) return {};
  const auto& functions = model_.functions();
  std::ostringstream out;
  std::size_t node = fn;
  out << functions[node].qualified;
  while (true) {
    const EffectOrigin& origin = origins_[node][static_cast<int>(effect)];
    if (origin.next_hop == EffectOrigin::kLocal) {
      out << ": " << to_string(effect) << " ('" << origin.detail << "') at "
          << model_.file(functions[node].file).path() << ":" << origin.line;
      return std::move(out).str();
    }
    node = origin.next_hop;
    out << " -> " << functions[node].qualified;
  }
}

}  // namespace halfback::lint
