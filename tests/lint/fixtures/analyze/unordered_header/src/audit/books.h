// Fixture tree for "unordered-iteration": the header declares the
// unordered member and its .cpp iterates it. Expected findings: 1, in
// books.cpp (unordered_header_ok is the justified twin).
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
