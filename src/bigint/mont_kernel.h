#ifndef SECMED_BIGINT_MONT_KERNEL_H_
#define SECMED_BIGINT_MONT_KERNEL_H_

// Raw-limb Montgomery kernels: multiplication and squaring by finely
// integrated product scanning (FIPS; Koç, Acar and Kaliski, IEEE Micro
// 1996), and the final conditional subtraction. FIPS sums each output
// column of a·b + u·m in a three-limb register accumulator, so the only
// memory a kernel writes besides dst is n limbs of caller scratch (the
// reduction digits u_k, then the result). Everything here works on
// caller-owned spans — no allocation, no BigInt — so the exponentiation
// loops layered on top run allocation-free per step.
//
// The kernels are templated on the limb type. The native width is 64 bits
// (with unsigned __int128 accumulators) wherever the compiler provides
// __int128; the 32-bit instantiation remains compiled unconditionally and
// is the differential-testing reference (tests/bigint_kernel_fuzz_test.cc)
// as well as the fallback MontgomeryContext uses when __int128 is missing
// (or when SECMED_FORCE_MONT32 is defined, which exists purely to make the
// fallback path testable on hosts that do have __int128).

#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(__SIZEOF_INT128__) && !defined(SECMED_FORCE_MONT32)
#define SECMED_MONT_LIMB64 1
#endif

namespace secmed {
namespace montk {

template <typename L>
struct Wide;
template <>
struct Wide<std::uint32_t> {
  using type = std::uint64_t;
};
#if defined(__SIZEOF_INT128__)
template <>
struct Wide<std::uint64_t> {
  using type = unsigned __int128;
};
#endif

#ifdef SECMED_MONT_LIMB64
using Limb = std::uint64_t;
#else
using Limb = std::uint32_t;
#endif

template <typename L>
inline constexpr int kBits = static_cast<int>(sizeof(L)) * 8;

// Per-kernel call counters (relaxed; one increment per n^2-limb kernel call
// is noise). bench_modexp reads these to report the mul/square mix that
// justifies the dedicated squaring routine.
inline std::atomic<std::uint64_t> g_mul_calls{0};
inline std::atomic<std::uint64_t> g_sqr_calls{0};

struct KernelCounters {
  std::uint64_t muls = 0;
  std::uint64_t sqrs = 0;
};

inline KernelCounters ReadKernelCounters() {
  return {g_mul_calls.load(std::memory_order_relaxed),
          g_sqr_calls.load(std::memory_order_relaxed)};
}

inline void ResetKernelCounters() {
  g_mul_calls.store(0, std::memory_order_relaxed);
  g_sqr_calls.store(0, std::memory_order_relaxed);
}

/// -m0^{-1} mod 2^bits for odd m0 (Newton iteration; the 3-bit-correct
/// seed doubles its correct bits every step, so 6 steps cover 64 bits).
template <typename L>
constexpr L NegInvLimb(L m0) {
  L inv = m0;
  for (int i = 0; i < 6; ++i) inv *= static_cast<L>(2) - m0 * inv;
  return static_cast<L>(0) - inv;
}

/// True iff a >= b, both n limbs little-endian.
template <typename L>
inline bool GeN(const L* a, const L* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

/// dst = a - b over n limbs; requires a >= b. dst may alias a.
template <typename L>
inline void SubN(L* dst, const L* a, const L* b, std::size_t n) {
  L borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const L ai = a[i];
    const L t1 = ai - b[i];
    const L b1 = t1 > ai ? 1 : 0;
    const L t2 = t1 - borrow;
    const L b2 = t2 > t1 ? 1 : 0;
    dst[i] = t2;
    borrow = b1 | b2;
  }
}

/// dst = t mod m for t < 2m held in t[0..n) plus the carry bit `hi`.
template <typename L>
inline void CondSubM(L* dst, const L* t, const L* m, std::size_t n, bool hi) {
  if (hi || GeN(t, m, n)) {
    SubN(dst, t, m, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = t[i];
  }
}

/// (top:acc) += x·y. A column sums at most 2n + 1 products below 2^(2B)
/// plus the previous column's carry, so three limbs hold it for any n the
/// limb type can index.
template <typename L>
inline void MulAcc(typename Wide<L>::type& acc, L& top, L x, L y) {
  const typename Wide<L>::type p = static_cast<typename Wide<L>::type>(x) * y;
  acc += p;
  top += acc < p;
}

/// Montgomery product dst = a·b·R^{-1} mod m (FIPS, finely integrated
/// product scanning). Column k of the 2n-limb product sums a_j·b_(k-j) and
/// u_j·m_(k-j) in a three-limb register accumulator. A column k < n then
/// picks u_k = low limb · inv, which clears the low limb; a column k >= n
/// emits result limb k-n. a and b must be < m, n limbs each; `t` is caller
/// scratch of n limbs holding u_k, each slot overwritten by result limb k-n
/// once no later column reads u_(k-n). dst may alias a and/or b: it is only
/// written by the final conditional subtraction.
template <typename L>
inline void MulInto(L* dst, const L* a, const L* b, const L* m, L inv,
                    std::size_t n, L* t) {
  using W = typename Wide<L>::type;
  constexpr int B = kBits<L>;
  g_mul_calls.fetch_add(1, std::memory_order_relaxed);
  W acc = 0;
  L top = 0;
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const std::size_t lo = k < n ? 0 : k - n + 1;
    const std::size_t hi = k < n ? k : n;
    for (std::size_t j = lo; j < hi; ++j) {
      MulAcc(acc, top, a[j], b[k - j]);
      MulAcc(acc, top, t[j], m[k - j]);
    }
    if (k < n) {
      MulAcc(acc, top, a[k], b[0]);
      t[k] = static_cast<L>(static_cast<L>(acc) * inv);
      MulAcc(acc, top, t[k], m[0]);
    } else {
      t[k - n] = static_cast<L>(acc);
    }
    acc = (acc >> B) | (static_cast<W>(top) << B);
    top = 0;
  }
  // acc is the carry above limb n-1: 0 or 1, since the result is < 2m.
  CondSubM(dst, t, m, n, acc != 0);
}

/// Montgomery square dst = a²·R^{-1} mod m: MulInto's column scan, with
/// each column's cross products a_j·a_(k-j) (j < k-j) summed once, the sum
/// doubled and the diagonal a_(k/2)² added. a must be < m, n limbs; `t` is
/// caller scratch of n limbs, used as in MulInto. dst may alias a.
template <typename L>
inline void SqrInto(L* dst, const L* a, const L* m, L inv, std::size_t n,
                    L* t) {
  using W = typename Wide<L>::type;
  constexpr int B = kBits<L>;
  g_sqr_calls.fetch_add(1, std::memory_order_relaxed);
  W acc = 0;
  L top = 0;
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const std::size_t lo = k < n ? 0 : k - n + 1;
    const std::size_t hi = k < n ? k : n;
    W cross = 0;
    L cross_top = 0;
    for (std::size_t j = lo; j < k - j; ++j) {
      MulAcc(cross, cross_top, a[j], a[k - j]);
    }
    cross_top = static_cast<L>(cross_top << 1) |
                static_cast<L>(cross >> (2 * B - 1));
    cross <<= 1;
    if (k % 2 == 0) MulAcc(cross, cross_top, a[k / 2], a[k / 2]);
    acc += cross;
    top += cross_top + (acc < cross);
    for (std::size_t j = lo; j < hi; ++j) MulAcc(acc, top, t[j], m[k - j]);
    if (k < n) {
      t[k] = static_cast<L>(static_cast<L>(acc) * inv);
      MulAcc(acc, top, t[k], m[0]);
    } else {
      t[k - n] = static_cast<L>(acc);
    }
    acc = (acc >> B) | (static_cast<W>(top) << B);
    top = 0;
  }
  CondSubM(dst, t, m, n, acc != 0);
}

}  // namespace montk
}  // namespace secmed

#endif  // SECMED_BIGINT_MONT_KERNEL_H_
