// Fixture: a telemetry tap that claims the record-path contract (pure
// stores, HB_EFFECTS()) but grows a vector per sample. This is exactly the
// bug the span/tape record-path discipline forbids — the effects rule
// must report the undeclared alloc so a hot-path tap can never silently
// start allocating.
#pragma once
namespace halfback::telemetry {

struct GrowingTap {
  int samples_[4];
  int used_ = 0;
  // Claims pure, but the overflow branch grows heap storage.
  void record(int v) HB_EFFECTS() {
    if (used_ < 4) {
      samples_[used_] = v;
      ++used_;
    } else {
      overflow_.push_back(v);
    }
  }
  std::vector<int> overflow_;
};

}  // namespace halfback::telemetry
