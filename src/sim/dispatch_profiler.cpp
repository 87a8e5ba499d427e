#include "sim/dispatch_profiler.h"

#include <algorithm>

#include "sim/demangle.h"

namespace halfback::sim {

std::vector<DispatchProfiler::Row> DispatchProfiler::rows() const {
  std::vector<Row> out;
  out.reserve(kSlots + 1);
  for (const Slot& s : slots_) {
    if (s.key == nullptr) continue;
    out.push_back(Row{demangled_name(*s.key), s.count, s.cycles});
  }
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.type_name < b.type_name;
  });
  if (overflow_count_ > 0) {
    out.push_back(Row{"(other)", overflow_count_, overflow_cycles_});
  }
  return out;
}

}  // namespace halfback::sim
