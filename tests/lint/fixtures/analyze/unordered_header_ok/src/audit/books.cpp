#include "audit/books.h"

namespace fixture {

std::uint64_t Books::total() const {
  std::uint64_t sum = 0;
  // lint: ordered-ok(fixture: the loop only accumulates a commutative sum)
  for (const auto& [key, count] : counts_) {
    sum += key * count;
  }
  return sum;
}

}  // namespace fixture
