// Experiment T2 — regenerates Table 2 of the paper ("Applied
// cryptographic primitives") with measured costs: for each protocol, the
// primitives it applies are microbenchmarked at protocol-realistic
// parameter sizes.
//
//   DAS:          collision-free hash (SHA-256 partition identifiers),
//                 hybrid encryption of tuples
//   Commutative:  ideal hash into QR(p), commutative exponentiation
//   PM:           Paillier encryption, homomorphic add / scalar-mul,
//                 masked polynomial evaluation step

#include <benchmark/benchmark.h>

#include "bench_env.h"

#include "bigint/modular.h"
#include "crypto/commutative.h"
#include "crypto/drbg.h"
#include "crypto/group_params.h"
#include "crypto/hybrid.h"
#include "crypto/paillier.h"
#include "crypto/sha256.h"

namespace secmed {
namespace {

HmacDrbg& Rng() {
  static HmacDrbg* rng = new HmacDrbg(ToBytes("bench-table2"));
  return *rng;
}

// --------------------------------------------------------------- shared --

void BM_Shared_HybridEncryptTuple(benchmark::State& state) {
  static const RsaPrivateKey* key =
      new RsaPrivateKey(RsaGenerateKey(1024, &Rng()).value());
  Bytes tuple = Rng().Generate(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HybridEncrypt(key->PublicKey(), tuple, &Rng()).value());
  }
  state.SetLabel("RSA-1024 OAEP wrap + AES-256-CTR/HMAC");
}
BENCHMARK(BM_Shared_HybridEncryptTuple)->Arg(64)->Arg(512)->Arg(4096);

void BM_Shared_HybridDecryptTuple(benchmark::State& state) {
  static const RsaPrivateKey* key =
      new RsaPrivateKey(RsaGenerateKey(1024, &Rng()).value());
  Bytes tuple = Rng().Generate(512);
  Bytes ct = HybridEncrypt(key->PublicKey(), tuple, &Rng()).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(HybridDecrypt(*key, ct).value());
  }
}
BENCHMARK(BM_Shared_HybridDecryptTuple);

void BM_Shared_HybridEncryptBatch(benchmark::State& state) {
  // Batched tuple sealing across worker threads; the per-item RNG fork
  // keeps the ciphertexts identical at every thread count. threads=1 is
  // the serial baseline for the speedup ratio.
  static const RsaPrivateKey* key =
      new RsaPrivateKey(RsaGenerateKey(1024, &Rng()).value());
  const size_t threads = static_cast<size_t>(state.range(0));
  std::vector<Bytes> tuples(256);
  for (auto& t : tuples) t = Rng().Generate(512);
  for (auto _ : state) {
    HmacDrbg rng(ToBytes("batch-seed"));
    benchmark::DoNotOptimize(
        HybridEncryptBatch(key->PublicKey(), tuples, &rng, threads).value());
  }
  state.SetLabel("256 x 512-byte tuples");
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_Shared_HybridEncryptBatch)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

// ------------------------------------------------------------------ DAS --

void BM_Das_CollisionFreeHash(benchmark::State& state) {
  // Partition-identifier computation: SHA-256 over salt + bounds.
  Bytes salt = Rng().Generate(16);
  Bytes bounds = Rng().Generate(24);
  for (auto _ : state) {
    Sha256 h;
    h.Update(salt);
    h.Update(bounds);
    benchmark::DoNotOptimize(h.Finish());
  }
  state.SetLabel("SHA-256 partition identifier");
}
BENCHMARK(BM_Das_CollisionFreeHash);

// --------------------------------------------------------- Commutative --

void BM_Comm_IdealHashIntoGroup(benchmark::State& state) {
  QrGroup group = StandardGroup(static_cast<size_t>(state.range(0))).value();
  Bytes value = Rng().Generate(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.HashToGroup(value));
  }
  state.SetLabel("hash into QR(p)");
}
BENCHMARK(BM_Comm_IdealHashIntoGroup)->Arg(256)->Arg(512)->Arg(1024);

void BM_Comm_CommutativeEncrypt(benchmark::State& state) {
  QrGroup group = StandardGroup(static_cast<size_t>(state.range(0))).value();
  CommutativeKey key = CommutativeKey::Generate(group, &Rng());
  BigInt x = group.HashToGroup(Rng().Generate(16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Encrypt(x));
  }
  state.SetLabel("f_e(x) = x^e mod p");
}
BENCHMARK(BM_Comm_CommutativeEncrypt)->Arg(256)->Arg(512)->Arg(1024);

void BM_Comm_CommutativeDecrypt(benchmark::State& state) {
  QrGroup group = StandardGroup(512).value();
  CommutativeKey key = CommutativeKey::Generate(group, &Rng());
  BigInt c = key.Encrypt(group.HashToGroup(Rng().Generate(16)));
  const CommutativeKey decrypting = key.Inverse();
  for (auto _ : state) {
    benchmark::DoNotOptimize(decrypting.Encrypt(c));
  }
}
BENCHMARK(BM_Comm_CommutativeDecrypt);

// ------------------------------------------------------------------- PM --

const PaillierKeyPair& Keys(size_t bits) {
  static std::map<size_t, PaillierKeyPair>* cache =
      new std::map<size_t, PaillierKeyPair>();
  auto it = cache->find(bits);
  if (it == cache->end()) {
    it = cache->emplace(bits, PaillierGenerateKey(bits, &Rng()).value()).first;
  }
  return it->second;
}

void BM_Pm_PaillierEncrypt(benchmark::State& state) {
  const auto& kp = Keys(static_cast<size_t>(state.range(0)));
  BigInt m(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.public_key.Encrypt(m, &Rng()).value());
  }
}
BENCHMARK(BM_Pm_PaillierEncrypt)->Arg(512)->Arg(1024)->Arg(2048);

void BM_Pm_PaillierDecrypt(benchmark::State& state) {
  const auto& kp = Keys(static_cast<size_t>(state.range(0)));
  BigInt c = kp.public_key.Encrypt(BigInt(42), &Rng()).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.private_key.Decrypt(c).value());
  }
}
BENCHMARK(BM_Pm_PaillierDecrypt)->Arg(512)->Arg(1024)->Arg(2048);

void BM_Pm_HomomorphicAdd(benchmark::State& state) {
  const auto& kp = Keys(1024);
  BigInt a = kp.public_key.Encrypt(BigInt(1), &Rng()).value();
  BigInt b = kp.public_key.Encrypt(BigInt(2), &Rng()).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.public_key.Add(a, b));
  }
}
BENCHMARK(BM_Pm_HomomorphicAdd);

void BM_Pm_ScalarMul(benchmark::State& state) {
  const auto& kp = Keys(1024);
  BigInt c = kp.public_key.Encrypt(BigInt(7), &Rng()).value();
  BigInt k = BigInt::FromBytes(Rng().Generate(16));  // 128-bit fingerprint
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.public_key.ScalarMul(c, k));
  }
  state.SetLabel("one Horner step of blind evaluation");
}
BENCHMARK(BM_Pm_ScalarMul);

void BM_Pm_BlindPolynomialEvaluation(benchmark::State& state) {
  // Full Horner evaluation of an encrypted degree-d polynomial.
  const auto& kp = Keys(1024);
  const size_t degree = static_cast<size_t>(state.range(0));
  std::vector<BigInt> coeffs;
  for (size_t i = 0; i <= degree; ++i) {
    coeffs.push_back(kp.public_key.Encrypt(BigInt(i + 1), &Rng()).value());
  }
  BigInt a = BigInt::FromBytes(Rng().Generate(16));
  for (auto _ : state) {
    BigInt acc = coeffs.back();
    for (size_t k = coeffs.size() - 1; k-- > 0;) {
      acc = kp.public_key.Add(kp.public_key.ScalarMul(acc, a), coeffs[k]);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetComplexityN(static_cast<int64_t>(degree));
}
BENCHMARK(BM_Pm_BlindPolynomialEvaluation)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Complexity(benchmark::oN);

// ------------------------------------------------------- number theory --

void BM_Bigint_ModExp(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  XoshiroRandomSource rng(42);
  BigInt m = BigInt::RandomWithBits(bits, &rng);
  if (m.is_even()) m += BigInt(1);
  MontgomeryContext ctx = MontgomeryContext::Create(m).value();
  BigInt base = BigInt::RandomBelow(m, &rng);
  BigInt exp = BigInt::RandomWithBits(bits, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Exp(base, exp));
  }
}
BENCHMARK(BM_Bigint_ModExp)->Arg(512)->Arg(1024)->Arg(2048);

}  // namespace
}  // namespace secmed

SECMED_BENCH_MAIN();
