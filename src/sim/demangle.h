// Readable names for event classes, shared by the budget census and the
// dispatch profiler.
#pragma once

#include <string>
#include <typeinfo>

namespace halfback::sim {

/// The demangled name of `type` (e.g. "halfback::sim::Timer"). Falls back
/// to the raw mangled name on toolchains without <cxxabi.h>: that is still
/// deterministic within one binary, which is all byte-identical reports
/// require.
std::string demangled_name(const std::type_info& type);

}  // namespace halfback::sim
