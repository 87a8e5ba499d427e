#include "audit/books.h"

namespace fixture {

std::uint64_t Books::total() const {
  std::uint64_t sum = 0;
  for (const auto& [key, count] : counts_) {  // EXPECT: range-for, unordered
    sum += key * count;
  }
  return sum;
}

}  // namespace fixture
