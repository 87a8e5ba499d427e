#include "sim/demangle.h"

#if __has_include(<cxxabi.h>)
#include <cstdlib>
#include <cxxabi.h>
#define HALFBACK_HAS_CXA_DEMANGLE 1
#endif

namespace halfback::sim {

std::string demangled_name(const std::type_info& type) {
#ifdef HALFBACK_HAS_CXA_DEMANGLE
  int status = 0;
  char* text = abi::__cxa_demangle(type.name(), nullptr, nullptr, &status);
  if (text != nullptr) {
    std::string out{text};
    std::free(text);
    return out;
  }
#endif
  return std::string{type.name()};
}

}  // namespace halfback::sim
