// Green twin of unordered_header: the same header-declared member, its
// iteration justified in books.cpp. Expected findings: none.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace fixture {

class Books {
 public:
  std::uint64_t total() const;

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> counts_;
};

}  // namespace fixture
