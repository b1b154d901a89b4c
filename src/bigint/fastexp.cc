#include "bigint/fastexp.h"

#include <algorithm>
#include <cassert>

namespace secmed {

namespace {
int AutoWindowBits(size_t exp_bits) {
  if (exp_bits <= 12) return 2;
  if (exp_bits <= 80) return 3;
  if (exp_bits <= 240) return 4;
  if (exp_bits <= 768) return 5;
  return 6;
}
}  // namespace

ExponentRecoding ExponentRecoding::Create(const BigInt& exp) {
  return CreateWithWindow(exp, AutoWindowBits(exp.BitLength()));
}

ExponentRecoding ExponentRecoding::CreateWithWindow(const BigInt& exp,
                                                    int window_bits) {
  assert(!exp.is_negative());
  window_bits = std::max(1, std::min(window_bits, 12));
  ExponentRecoding rec;
  rec.window_bits_ = window_bits;
  rec.exp_bits_ = exp.BitLength();

  const size_t w = static_cast<size_t>(window_bits);
  uint32_t squarings = 0;
  size_t i = rec.exp_bits_;  // next unprocessed bit is i - 1
  while (i > 0) {
    if (!exp.TestBit(i - 1)) {
      ++squarings;
      --i;
      continue;
    }
    // Greedy window [lo, i): widest span <= w bits ending in a set bit,
    // so the digit is always odd.
    size_t lo = (i >= w) ? i - w : 0;
    while (!exp.TestBit(lo)) ++lo;
    uint32_t digit = 0;
    for (size_t k = i; k-- > lo;) {
      digit = (digit << 1) | (exp.TestBit(k) ? 1u : 0u);
    }
    rec.steps_.push_back({squarings + static_cast<uint32_t>(i - lo), digit});
    squarings = 0;
    i = lo;
  }
  rec.trailing_squarings_ = squarings;
  return rec;
}

}  // namespace secmed
