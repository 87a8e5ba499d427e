// Fixture: the green twin of effects_indirect. The same virtual dispatch
// is sanctioned in tools/lint/hot_seams.txt, so the effect engine cuts
// propagation at the call site (the implementor's own effects are checked
// at its definition, not charged to the caller) and hot_path_reach skips
// the dispatch report. The implementor's allocation is the point of the
// fixture and carries a new-ok tag, so the tree analyzes clean.
#pragma once
namespace halfback::transport {

struct Hook {
  virtual void deliver(int seq) = 0;
};

struct RingHook final : Hook {
  // lint: new-ok(fixture: the effect the sanctioned seam keeps off callers)
  void deliver(int seq) override { slots_ = new int[8]; slots_[0] = seq; }
  int* slots_ = nullptr;
};

struct StaticSender {
  void on_packet(int seq) HB_EFFECTS() { hook_->deliver(seq); }
  Hook* hook_ = nullptr;
};

}  // namespace halfback::transport
