#ifndef SECMED_BIGINT_FASTEXP_H_
#define SECMED_BIGINT_FASTEXP_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"

namespace secmed {

/// Sliding-window recoding of a fixed non-negative exponent.
///
/// The exponent is scanned once, left to right, into a sequence of steps
/// "square s times, then multiply by base^digit" with every digit odd, so
/// an exponentiation only needs the odd powers base^1, base^3, ...,
/// base^(2^w - 1). Recode once per key (Pohlig–Hellman e/e^{-1}, RSA-CRT
/// d_p/d_q, Paillier n and p-1/q-1) and reuse across every value.
class ExponentRecoding {
 public:
  struct Step {
    uint32_t squarings;  // squarings to apply before the multiply
    uint32_t digit;      // odd multiplier digit, 1 <= digit < 2^window_bits
  };

  /// Recodes with a window size chosen from the exponent's bit length.
  static ExponentRecoding Create(const BigInt& exp);

  /// Recodes with an explicit window size (1..12 bits).
  static ExponentRecoding CreateWithWindow(const BigInt& exp, int window_bits);

  const std::vector<Step>& steps() const { return steps_; }
  /// Squarings after the last multiply (trailing zero bits of the exponent).
  uint32_t trailing_squarings() const { return trailing_squarings_; }
  int window_bits() const { return window_bits_; }
  /// Bit length of the recoded exponent; 0 means the exponent was zero.
  size_t exp_bits() const { return exp_bits_; }

 private:
  std::vector<Step> steps_;
  uint32_t trailing_squarings_ = 0;
  int window_bits_ = 1;
  size_t exp_bits_ = 0;
};

}  // namespace secmed

#endif  // SECMED_BIGINT_FASTEXP_H_
