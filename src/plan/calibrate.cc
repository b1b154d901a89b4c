#include "plan/calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <sstream>

#include "crypto/commutative.h"
#include "crypto/drbg.h"
#include "crypto/group_params.h"
#include "crypto/hybrid.h"
#include "crypto/paillier.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "net/bus.h"

namespace secmed {
namespace plan {

namespace {

/// Median wall-clock microseconds of one call to `fn`, sampled
/// `samples` times with `reps` inner repetitions each.
double MedianMicros(size_t samples, size_t reps,
                    const std::function<void()>& fn) {
  samples = std::max<size_t>(samples, 1);
  reps = std::max<size_t>(reps, 1);
  std::vector<double> measured;
  measured.reserve(samples);
  for (size_t s = 0; s < samples; ++s) {
    auto begin = std::chrono::steady_clock::now();
    for (size_t r = 0; r < reps; ++r) fn();
    auto end = std::chrono::steady_clock::now();
    measured.push_back(
        std::chrono::duration<double, std::micro>(end - begin).count() /
        double(reps));
  }
  std::nth_element(measured.begin(), measured.begin() + measured.size() / 2,
                   measured.end());
  return measured[measured.size() / 2];
}

}  // namespace

Result<CalibrationProfile> RunCalibration(const CalibrateOptions& options) {
  CalibrationProfile profile;
  profile.paillier_ref_bits = options.paillier_bits;
  profile.group_ref_bits = options.group_bits;
  profile.rsa_ref_bits = options.rsa_bits;
#ifdef NDEBUG
  profile.build = "optimized";
#else
  profile.build = "unoptimized";
#endif

  HmacDrbg rng(ToBytes("secmed-" + options.seed_label));

  // --- Paillier (PM protocol): encryption, CRT decryption, one Horner
  // step (ciphertext exponentiation by an attribute-sized scalar).
  SECMED_ASSIGN_OR_RETURN(PaillierKeyPair paillier,
                          PaillierGenerateKey(options.paillier_bits, &rng));
  BigInt message(uint64_t(123456789));
  profile.paillier_encrypt_us =
      MedianMicros(options.samples, options.reps, [&] {
        (void)paillier.public_key.Encrypt(message, &rng);
      });
  SECMED_ASSIGN_OR_RETURN(BigInt ciphertext,
                          paillier.public_key.Encrypt(message, &rng));
  profile.paillier_decrypt_us =
      MedianMicros(options.samples, options.reps, [&] {
        (void)paillier.private_key.Decrypt(ciphertext);
      });
  BigInt scalar = BigInt::RandomWithBits(32, &rng);
  profile.paillier_scalar_mul_us =
      MedianMicros(options.samples, options.reps, [&] {
        ciphertext = paillier.public_key.ScalarMul(ciphertext, scalar);
      });

  // --- Commutative exponentiation (Pohlig–Hellman over QR(p)).
  SECMED_ASSIGN_OR_RETURN(QrGroup group, StandardGroup(options.group_bits));
  CommutativeKey comm_key = CommutativeKey::Generate(group, &rng);
  BigInt element = group.HashToGroup(ToBytes("calibration-element"));
  profile.commutative_exp_us =
      MedianMicros(options.samples, options.reps, [&] {
        element = comm_key.Encrypt(element);
      });

  // --- Hybrid sealing: small and large payloads split the per-call RSA
  // cost from the per-byte symmetric cost.
  SECMED_ASSIGN_OR_RETURN(RsaPrivateKey rsa_key,
                          RsaGenerateKey(options.rsa_bits, &rng));
  RsaPublicKey rsa_pub = rsa_key.PublicKey();
  const Bytes small_payload = rng.Generate(64);
  const Bytes large_payload = rng.Generate(16384);
  double enc_small = MedianMicros(options.samples, options.reps, [&] {
    (void)HybridEncrypt(rsa_pub, small_payload, &rng);
  });
  double enc_large = MedianMicros(options.samples, options.reps, [&] {
    (void)HybridEncrypt(rsa_pub, large_payload, &rng);
  });
  SECMED_ASSIGN_OR_RETURN(Bytes sealed_small,
                          HybridEncrypt(rsa_pub, small_payload, &rng));
  SECMED_ASSIGN_OR_RETURN(Bytes sealed_large,
                          HybridEncrypt(rsa_pub, large_payload, &rng));
  double dec_small = MedianMicros(options.samples, options.reps, [&] {
    (void)HybridDecrypt(rsa_key, sealed_small);
  });
  double dec_large = MedianMicros(options.samples, options.reps, [&] {
    (void)HybridDecrypt(rsa_key, sealed_large);
  });
  double byte_span = double(large_payload.size() - small_payload.size());
  profile.hybrid_encrypt_us = enc_small;
  profile.hybrid_decrypt_us = dec_small;
  // Per-byte cost: average of the seal and open slopes, floored at zero
  // (timer noise can tilt a slope negative on fast hosts).
  profile.hybrid_byte_ns = std::max(
      0.0,
      ((enc_large - enc_small) + (dec_large - dec_small)) / 2.0 / byte_span *
          1000.0);

  // --- SHA-256 per byte (partition identifiers, digests).
  const Bytes sha_input = rng.Generate(65536);
  double sha_us = MedianMicros(options.samples, options.reps, [&] {
    (void)Sha256::Hash(sha_input);
  });
  profile.sha256_byte_ns = sha_us / double(sha_input.size()) * 1000.0;

  // --- In-process wire cost: bus send+receive of small vs large frames
  // splits per-frame latency from per-byte throughput.
  NetworkBus bus;
  const Bytes small_wire = rng.Generate(256);
  const Bytes large_wire = rng.Generate(262144);
  auto roundtrip = [&](const Bytes& payload) {
    Message msg;
    msg.from = "calibrate-a";
    msg.to = "calibrate-b";
    msg.type = "probe";
    msg.payload = payload;
    (void)bus.Send(std::move(msg));
    (void)bus.Receive("calibrate-b");
  };
  double wire_small = MedianMicros(options.samples, options.reps,
                                   [&] { roundtrip(small_wire); });
  double wire_large = MedianMicros(options.samples, options.reps,
                                   [&] { roundtrip(large_wire); });
  profile.frame_rtt_us = wire_small;
  profile.wire_byte_ns =
      std::max(0.001, (wire_large - wire_small) /
                          double(large_wire.size() - small_wire.size()) *
                          1000.0);
  return profile;
}

std::vector<std::string> CompareProfiles(const CalibrationProfile& reference,
                                         const CalibrationProfile& measured,
                                         double tolerance) {
  struct Coefficient {
    const char* name;
    double ref;
    double got;
  };
  const Coefficient coefficients[] = {
      {"paillier_encrypt_us", reference.paillier_encrypt_us,
       measured.paillier_encrypt_us},
      {"paillier_decrypt_us", reference.paillier_decrypt_us,
       measured.paillier_decrypt_us},
      {"paillier_scalar_mul_us", reference.paillier_scalar_mul_us,
       measured.paillier_scalar_mul_us},
      {"commutative_exp_us", reference.commutative_exp_us,
       measured.commutative_exp_us},
      {"hybrid_encrypt_us", reference.hybrid_encrypt_us,
       measured.hybrid_encrypt_us},
      {"hybrid_decrypt_us", reference.hybrid_decrypt_us,
       measured.hybrid_decrypt_us},
  };
  std::vector<std::string> drift;
  for (const Coefficient& c : coefficients) {
    if (c.ref <= 0 || c.got <= 0) continue;
    double ratio = c.got / c.ref;
    if (ratio > tolerance || ratio < 1.0 / tolerance) {
      std::ostringstream msg;
      msg << c.name << ": measured " << c.got << " µs vs committed " << c.ref
          << " µs (ratio " << ratio << ", tolerance " << tolerance << ")";
      drift.push_back(msg.str());
    }
  }
  if (!reference.build.empty() && !measured.build.empty() &&
      reference.build != measured.build) {
    drift.push_back("build mismatch: committed profile is '" +
                    reference.build + "', this run is '" + measured.build +
                    "'");
  }
  return drift;
}

}  // namespace plan
}  // namespace secmed
