#ifndef SECMED_PLAN_COST_MODEL_H_
#define SECMED_PLAN_COST_MODEL_H_

#include <map>
#include <string>

#include "obs/json.h"
#include "plan/stats.h"
#include "util/result.h"

namespace secmed {
namespace plan {

/// Per-primitive cost coefficients, measured on the deployment host by
/// `secmedctl calibrate` and committed as CALIBRATION.json (schema
/// secmed.calibration.v1). Modular-exponentiation primitives are recorded
/// at a reference modulus size and scaled ~cubically to other sizes
/// (schoolbook multiplication under one word-level kernel; close enough
/// for ranking protocols, which is all the planner needs).
struct CalibrationProfile {
  // Paillier over a paillier_ref_bits modulus (ciphertexts mod n²).
  double paillier_encrypt_us = 850.0;
  double paillier_decrypt_us = 420.0;   // CRT path
  double paillier_scalar_mul_us = 65.0;  // one Horner step c^v mod n²
  // Pohlig–Hellman commutative exponentiation over a group_ref_bits group.
  double commutative_exp_us = 150.0;
  // RSA-OAEP + AES hybrid sealing at rsa_ref_bits.
  double hybrid_encrypt_us = 70.0;
  double hybrid_decrypt_us = 420.0;
  double hybrid_byte_ns = 15.0;  // per payload byte (AES + encoding)
  double sha256_byte_ns = 5.0;
  // Transport: per framed byte and per frame round trip.
  double wire_byte_ns = 1.0;
  double frame_rtt_us = 10.0;

  size_t paillier_ref_bits = 1024;
  size_t group_ref_bits = 512;
  size_t rsa_ref_bits = 1024;

  /// Provenance (freeform; the --check probe compares coefficients only).
  std::string host;
  std::string build;

  obs::JsonValue ToJson() const;
  /// Missing keys take the defaults above; unknown keys are ignored, so
  /// profiles that still carry a retired coefficient load unchanged.
  static Result<CalibrationProfile> FromJson(const obs::JsonValue& v);
  static Result<CalibrationProfile> Load(const std::string& path);
  Status Save(const std::string& path) const;
};

/// Protocol knobs the cost depends on, mirroring RunSpec / Query.
struct ProtocolParams {
  size_t das_partitions = 4;
  PartitionStrategy das_strategy = PartitionStrategy::kEquiDepth;
  size_t group_bits = 256;      // commutative group size
  size_t paillier_bits = 1024;  // client key (testbed default)
  size_t rsa_bits = 1024;       // hybrid sealing key
};

/// Predicted cost of delivering one mediated join under a protocol — the
/// planner-facing mirror of the Section 6 analysis.
struct CostEstimate {
  std::string protocol;

  double wall_ms = 0.0;      // predicted end-to-end latency
  double source_ms = 0.0;    // datasource-side crypto
  double mediator_ms = 0.0;  // mediator-side compute (matching, routing)
  double client_ms = 0.0;    // client-side decryption + reconstruction
  double network_ms = 0.0;   // bytes · wire cost + frames · RTT

  /// Predicted LeakageReport::client_decryption_work: result size for
  /// commutative, superset |RC| for DAS, d1+d2 evaluations for PM.
  double client_decrypt_ops = 0.0;
  double mediator_bytes = 0.0;  // bytes routed through the mediator
  double client_bytes = 0.0;    // bytes delivered to the client
  double frames = 0.0;

  double expected_result_tuples = 0.0;
  /// Client-received candidate pairs per true result tuple (DAS > 1).
  double client_superset_factor = 1.0;
  /// False iff the protocol cannot run on these stats (e.g. DAS without
  /// a bucket histogram); such estimates must not be chosen.
  bool feasible = true;
  std::string infeasible_reason;

  std::map<std::string, double> breakdown_ms;  // primitive → milliseconds

  obs::JsonValue ToJson() const;
};

/// Evaluates the per-protocol Section 6 cost formulas over collected
/// statistics with calibrated coefficients.
class CostModel {
 public:
  explicit CostModel(CalibrationProfile profile)
      : profile_(std::move(profile)) {}

  /// `protocol` is "das", "commutative" or "pm".
  CostEstimate Predict(const std::string& protocol, const TableStats& s1,
                       const TableStats& s2,
                       const ProtocolParams& params) const;

  const CalibrationProfile& profile() const { return profile_; }

 private:
  CostEstimate PredictDas(const TableStats& s1, const TableStats& s2,
                          const ProtocolParams& params) const;
  CostEstimate PredictCommutative(const TableStats& s1, const TableStats& s2,
                                  const ProtocolParams& params) const;
  CostEstimate PredictPm(const TableStats& s1, const TableStats& s2,
                         const ProtocolParams& params) const;

  CalibrationProfile profile_;
};

}  // namespace plan
}  // namespace secmed

#endif  // SECMED_PLAN_COST_MODEL_H_
