// Micro-benchmarks for the modular-exponentiation fast paths (the
// quantitative backing for DESIGN.md's fast-path section):
//
//   - generic schoolbook square-and-multiply vs the Montgomery context's
//     sliding-window recoded exponentiation, with the exponent recoded
//     per call or once per fixed exponent;
//   - Paillier encryption: naive r^n vs the recoded fixed exponent n;
//   - Paillier decryption: single full-width exponentiation (no CRT) vs
//     the two half-width CRT exponentiations — the ≥3x headline;
//   - commutative encryption: generic Pow vs the once-per-key recoding;
//   - one Montgomery kernel call (mul and sqr) at 512, 1,024 and 2,048
//     bits.
//
// Compare runs with tools/bench_diff.py.

#include <benchmark/benchmark.h>

#include "bench_env.h"

#include <memory>
#include <vector>

#include "bigint/fastexp.h"
#include "bigint/modular.h"
#include "bigint/mont_kernel.h"
#include "crypto/commutative.h"
#include "crypto/group_params.h"
#include "crypto/paillier.h"
#include "util/rng.h"

namespace secmed {
namespace {

constexpr size_t kGroupBits = 1024;
constexpr size_t kPaillierBits = 1024;
constexpr size_t kPaillierBitsLarge = 2048;

// Schoolbook square-and-multiply without Montgomery arithmetic: the
// baseline every fast path is measured against.
BigInt NaiveModExp(const BigInt& base, const BigInt& exp, const BigInt& mod) {
  BigInt result(1);
  BigInt b = BigInt::Mod(base, mod).value();
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = (result * result) % mod;
    if (exp.TestBit(i)) result = (result * b) % mod;
  }
  return result;
}

struct ModExpFixture {
  QrGroup group;
  BigInt base;
  BigInt exp;
  std::shared_ptr<const MontgomeryContext> ctx;

  ModExpFixture()
      : group(StandardGroup(kGroupBits).value()),
        base(0),
        exp(0),
        ctx(group.mont_ctx()) {
    XoshiroRandomSource rng(7001);
    base = BigInt::RandomBelow(group.p(), &rng);
    exp = BigInt::RandomBelow(group.q(), &rng);
  }
};

ModExpFixture& Fx() {
  static ModExpFixture* fx = new ModExpFixture();
  return *fx;
}

void BM_ModExp_Naive(benchmark::State& state) {
  ModExpFixture& fx = Fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveModExp(fx.base, fx.exp, fx.group.p()));
  }
}
BENCHMARK(BM_ModExp_Naive);

void BM_ModExp_MontgomeryRecoded(benchmark::State& state) {
  ModExpFixture& fx = Fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.ctx->Exp(fx.base, fx.exp));
  }
}
BENCHMARK(BM_ModExp_MontgomeryRecoded);

void BM_ModExp_FixedExponentRecoding(benchmark::State& state) {
  // The per-key amortization: recode once, exponentiate many times.
  ModExpFixture& fx = Fx();
  const ExponentRecoding rec = ExponentRecoding::Create(fx.exp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.ctx->ExpWithRecoding(fx.base, rec));
  }
}
BENCHMARK(BM_ModExp_FixedExponentRecoding);

// 2048-bit exponentiation over a fixed random odd modulus (no standard
// safe-prime group at this size; Montgomery exponentiation only needs an
// odd modulus). This is the acceptance-gate size for the limb kernel.
struct ModExp2048Fixture {
  BigInt m;
  BigInt base;
  BigInt exp;
  std::shared_ptr<const MontgomeryContext> ctx;

  ModExp2048Fixture() : m(0), base(0), exp(0) {
    XoshiroRandomSource rng(7010);
    m = BigInt::RandomWithBits(2048, &rng);
    if (m.is_even()) m += BigInt(1);
    base = BigInt::RandomBelow(m, &rng);
    exp = BigInt::RandomWithBits(2048, &rng);
    ctx = std::make_shared<const MontgomeryContext>(
        MontgomeryContext::Create(m).value());
  }
};

ModExp2048Fixture& Fx2048() {
  static ModExp2048Fixture* fx = new ModExp2048Fixture();
  return *fx;
}

void BM_ModExp_MontgomeryRecoded2048(benchmark::State& state) {
  ModExp2048Fixture& fx = Fx2048();
  // Per-kernel counters: the muls/sqrs mix is what justifies the dedicated
  // squaring routine (a sliding-window exponentiation is ~bits squarings
  // vs ~bits/(w+1) multiplies, so most kernel calls take the cheaper path).
  montk::ResetKernelCounters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.ctx->Exp(fx.base, fx.exp));
  }
  const montk::KernelCounters kc = montk::ReadKernelCounters();
  const double iters = static_cast<double>(state.iterations());
  state.counters["kernel_muls_per_op"] = static_cast<double>(kc.muls) / iters;
  state.counters["kernel_sqrs_per_op"] = static_cast<double>(kc.sqrs) / iters;
}
BENCHMARK(BM_ModExp_MontgomeryRecoded2048);

// ------------------------------------------------------- Montgomery kernel
//
// One raw-span kernel call over an odd modulus of 512 (the commutative
// group, RSA-CRT halves), 1,024 (Paillier CRT halves) or 2,048 bits
// (Paillier n²), as a dependent chain: each call consumes the previous
// result, so a row is ns per call. Multiplied by the exact mul/sqr counts
// (perfbench's ledger, tests/op_count_test.cc), these rows price the
// kernel layer.
struct MontKernelFixture {
  MontgomeryContext ctx;
  std::vector<MontgomeryContext::Limb> a, b, scratch;

  explicit MontKernelFixture(size_t bits)
      : ctx([bits] {
          XoshiroRandomSource rng(7030);
          BigInt m = BigInt::RandomWithBits(bits, &rng);
          if (m.is_even()) m += BigInt(1);
          return MontgomeryContext::Create(m).value();
        }()),
        a(ctx.limb_count()),
        b(ctx.limb_count()),
        scratch(ctx.scratch_limbs()) {
    XoshiroRandomSource rng(7031);
    ctx.ToMontInto(a.data(), BigInt::RandomBelow(ctx.modulus(), &rng),
                   scratch.data());
    ctx.ToMontInto(b.data(), BigInt::RandomBelow(ctx.modulus(), &rng),
                   scratch.data());
  }
};

void BM_MontKernel_Mul(benchmark::State& state) {
  MontKernelFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fx.ctx.MontMulInto(fx.a.data(), fx.a.data(), fx.b.data(),
                       fx.scratch.data());
    benchmark::DoNotOptimize(fx.a.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MontKernel_Mul)->Arg(512)->Arg(1024)->Arg(2048);

void BM_MontKernel_Sqr(benchmark::State& state) {
  MontKernelFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fx.ctx.MontSqrInto(fx.a.data(), fx.a.data(), fx.scratch.data());
    benchmark::DoNotOptimize(fx.a.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MontKernel_Sqr)->Arg(512)->Arg(1024)->Arg(2048);

// ---------------------------------------------------------------- Paillier

struct PaillierFixture {
  PaillierKeyPair keys;
  BigInt m;
  BigInt c;

  PaillierFixture()
      : keys([] {
          XoshiroRandomSource rng(7002);
          return PaillierGenerateKey(kPaillierBits, &rng).value();
        }()),
        m(123456789) {
    XoshiroRandomSource rng(7003);
    c = keys.public_key.Encrypt(m, &rng).value();
  }
};

PaillierFixture& Pf() {
  static PaillierFixture* fx = new PaillierFixture();
  return *fx;
}

void BM_PaillierEncrypt_Naive(benchmark::State& state) {
  PaillierFixture& fx = Pf();
  XoshiroRandomSource rng(7004);
  const BigInt& n = fx.keys.public_key.n();
  const BigInt& n2 = fx.keys.public_key.n_squared();
  for (auto _ : state) {
    BigInt r = fx.keys.public_key.DrawRandomizerBase(&rng);
    BigInt rn = NaiveModExp(r, n, n2);
    benchmark::DoNotOptimize(
        fx.keys.public_key.EncryptWithRandomizer(fx.m, rn).value());
  }
}
BENCHMARK(BM_PaillierEncrypt_Naive);

void BM_PaillierEncrypt_Inline(benchmark::State& state) {
  PaillierFixture& fx = Pf();
  XoshiroRandomSource rng(7004);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.keys.public_key.Encrypt(fx.m, &rng).value());
  }
}
BENCHMARK(BM_PaillierEncrypt_Inline);

void BM_PaillierDecrypt_NoCrt(benchmark::State& state) {
  PaillierFixture& fx = Pf();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.keys.private_key.DecryptNoCrt(fx.c).value());
  }
}
BENCHMARK(BM_PaillierDecrypt_NoCrt);

void BM_PaillierDecrypt_Crt(benchmark::State& state) {
  PaillierFixture& fx = Pf();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.keys.private_key.Decrypt(fx.c).value());
  }
}
BENCHMARK(BM_PaillierDecrypt_Crt);

// 2048-bit-modulus Paillier key: each CRT half runs a 2048-bit
// exponentiation mod p^2 — the acceptance-gate size for CRT decryption.
struct Paillier2048Fixture {
  PaillierKeyPair keys;
  BigInt m;
  BigInt c;

  Paillier2048Fixture()
      : keys([] {
          XoshiroRandomSource rng(7011);
          return PaillierGenerateKey(kPaillierBitsLarge, &rng).value();
        }()),
        m(987654321) {
    XoshiroRandomSource rng(7012);
    c = keys.public_key.Encrypt(m, &rng).value();
  }
};

Paillier2048Fixture& Pf2048() {
  static Paillier2048Fixture* fx = new Paillier2048Fixture();
  return *fx;
}

void BM_PaillierDecrypt_Crt2048(benchmark::State& state) {
  Paillier2048Fixture& fx = Pf2048();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.keys.private_key.Decrypt(fx.c).value());
  }
}
BENCHMARK(BM_PaillierDecrypt_Crt2048);

// ------------------------------------------------------------- Commutative

void BM_CommutativeEncrypt_GenericPow(benchmark::State& state) {
  ModExpFixture& fx = Fx();
  XoshiroRandomSource rng(7008);
  CommutativeKey key = CommutativeKey::Generate(fx.group, &rng);
  const BigInt x = fx.group.Pow(fx.base, BigInt(2));  // a group element
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.group.Pow(x, key.exponent()));
  }
}
BENCHMARK(BM_CommutativeEncrypt_GenericPow);

void BM_CommutativeEncrypt_Recoded(benchmark::State& state) {
  ModExpFixture& fx = Fx();
  XoshiroRandomSource rng(7008);
  CommutativeKey key = CommutativeKey::Generate(fx.group, &rng);
  const BigInt x = fx.group.Pow(fx.base, BigInt(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Encrypt(x));
  }
}
BENCHMARK(BM_CommutativeEncrypt_Recoded);

// ------------------------------------------------- Karatsuba threshold sweep
//
// BigInt::operator* still backs the non-Montgomery paths (Paillier 1+m·n,
// CRT recombination, key generation, division-based reductions). The sweep
// multiplies two 4096-bit magnitudes (128 u32 limbs — deep enough for two
// Karatsuba levels at the smallest thresholds) across candidate thresholds;
// the committed default in bigint.cc follows the minimum of this curve.
void BM_BigIntMul_KaratsubaSweep(benchmark::State& state) {
  const size_t threshold = static_cast<size_t>(state.range(0));
  XoshiroRandomSource rng(7020);
  const BigInt a = BigInt::RandomWithBits(4096, &rng);
  const BigInt b = BigInt::RandomWithBits(4096, &rng);
  const size_t saved = BigInt::karatsuba_threshold();
  BigInt::set_karatsuba_threshold(threshold);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  BigInt::set_karatsuba_threshold(saved);
}
BENCHMARK(BM_BigIntMul_KaratsubaSweep)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(128);  // 128: schoolbook all the way at this operand size

}  // namespace
}  // namespace secmed

SECMED_BENCH_MAIN();
