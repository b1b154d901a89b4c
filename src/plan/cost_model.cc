#include "plan/cost_model.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace secmed {
namespace plan {

namespace {

/// Modular-exponentiation work scales ~cubically in the modulus size
/// relative to the calibrated reference.
double CubicScale(size_t bits, size_t ref_bits) {
  double r = double(bits) / double(ref_bits);
  return r * r * r;
}

/// Framing overhead per protocol message (header + field prefixes +
/// party/type strings; net/wire.h).
constexpr double kFrameOverheadBytes = 64.0;

/// Frame counts of the fixed protocol phases (request phase Listing 1 +
/// delivery round trips). Constants, not per-tuple: all bulk data rides
/// inside these frames and is priced per byte.
constexpr double kRequestFrames = 6.0;
constexpr double kDasDeliveryFrames = 8.0;
constexpr double kCommDeliveryFrames = 10.0;
constexpr double kPmDeliveryFrames = 10.0;

double ReadNumber(const obs::JsonValue& v, const std::string& key,
                  double fallback) {
  const obs::JsonValue* f = v.Find(key);
  return (f != nullptr && f->is_number()) ? f->number() : fallback;
}

std::string ReadString(const obs::JsonValue& v, const std::string& key) {
  const obs::JsonValue* f = v.Find(key);
  return (f != nullptr && f->is_string()) ? f->string() : std::string();
}

}  // namespace

obs::JsonValue CalibrationProfile::ToJson() const {
  return obs::JsonValue::Object({
      {"schema", obs::JsonValue::String("secmed.calibration.v1")},
      {"paillier_encrypt_us", obs::JsonValue::Number(paillier_encrypt_us)},
      {"paillier_decrypt_us", obs::JsonValue::Number(paillier_decrypt_us)},
      {"paillier_scalar_mul_us",
       obs::JsonValue::Number(paillier_scalar_mul_us)},
      {"commutative_exp_us", obs::JsonValue::Number(commutative_exp_us)},
      {"hybrid_encrypt_us", obs::JsonValue::Number(hybrid_encrypt_us)},
      {"hybrid_decrypt_us", obs::JsonValue::Number(hybrid_decrypt_us)},
      {"hybrid_byte_ns", obs::JsonValue::Number(hybrid_byte_ns)},
      {"sha256_byte_ns", obs::JsonValue::Number(sha256_byte_ns)},
      {"wire_byte_ns", obs::JsonValue::Number(wire_byte_ns)},
      {"frame_rtt_us", obs::JsonValue::Number(frame_rtt_us)},
      {"paillier_ref_bits", obs::JsonValue::Number(double(paillier_ref_bits))},
      {"group_ref_bits", obs::JsonValue::Number(double(group_ref_bits))},
      {"rsa_ref_bits", obs::JsonValue::Number(double(rsa_ref_bits))},
      {"host", obs::JsonValue::String(host)},
      {"build", obs::JsonValue::String(build)},
  });
}

Result<CalibrationProfile> CalibrationProfile::FromJson(
    const obs::JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("calibration profile: not a JSON object");
  }
  std::string schema = ReadString(v, "schema");
  if (schema != "secmed.calibration.v1") {
    return Status::InvalidArgument("calibration profile: unknown schema '" +
                                   schema + "'");
  }
  CalibrationProfile defaults;
  CalibrationProfile p;
  p.paillier_encrypt_us =
      ReadNumber(v, "paillier_encrypt_us", defaults.paillier_encrypt_us);
  p.paillier_decrypt_us =
      ReadNumber(v, "paillier_decrypt_us", defaults.paillier_decrypt_us);
  p.paillier_scalar_mul_us =
      ReadNumber(v, "paillier_scalar_mul_us", defaults.paillier_scalar_mul_us);
  p.commutative_exp_us =
      ReadNumber(v, "commutative_exp_us", defaults.commutative_exp_us);
  p.hybrid_encrypt_us =
      ReadNumber(v, "hybrid_encrypt_us", defaults.hybrid_encrypt_us);
  p.hybrid_decrypt_us =
      ReadNumber(v, "hybrid_decrypt_us", defaults.hybrid_decrypt_us);
  p.hybrid_byte_ns = ReadNumber(v, "hybrid_byte_ns", defaults.hybrid_byte_ns);
  p.sha256_byte_ns = ReadNumber(v, "sha256_byte_ns", defaults.sha256_byte_ns);
  p.wire_byte_ns = ReadNumber(v, "wire_byte_ns", defaults.wire_byte_ns);
  p.frame_rtt_us = ReadNumber(v, "frame_rtt_us", defaults.frame_rtt_us);
  p.paillier_ref_bits =
      size_t(ReadNumber(v, "paillier_ref_bits", 1024));
  p.group_ref_bits = size_t(ReadNumber(v, "group_ref_bits", 512));
  p.rsa_ref_bits = size_t(ReadNumber(v, "rsa_ref_bits", 1024));
  p.host = ReadString(v, "host");
  p.build = ReadString(v, "build");
  return p;
}

Result<CalibrationProfile> CalibrationProfile::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("calibration profile not readable: " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  obs::JsonValue doc;
  std::string error;
  if (!obs::ParseJson(buffer.str(), &doc, &error)) {
    return Status::InvalidArgument("calibration profile " + path + ": " +
                                   error);
  }
  return FromJson(doc);
}

Status CalibrationProfile::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  out << obs::RenderJson(ToJson()) << "\n";
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

obs::JsonValue CostEstimate::ToJson() const {
  std::map<std::string, obs::JsonValue> breakdown;
  for (const auto& [k, ms] : breakdown_ms) {
    breakdown.emplace(k, obs::JsonValue::Number(ms));
  }
  return obs::JsonValue::Object({
      {"protocol", obs::JsonValue::String(protocol)},
      {"wall_ms", obs::JsonValue::Number(wall_ms)},
      {"source_ms", obs::JsonValue::Number(source_ms)},
      {"mediator_ms", obs::JsonValue::Number(mediator_ms)},
      {"client_ms", obs::JsonValue::Number(client_ms)},
      {"network_ms", obs::JsonValue::Number(network_ms)},
      {"client_decrypt_ops", obs::JsonValue::Number(client_decrypt_ops)},
      {"mediator_bytes", obs::JsonValue::Number(mediator_bytes)},
      {"client_bytes", obs::JsonValue::Number(client_bytes)},
      {"frames", obs::JsonValue::Number(frames)},
      {"expected_result_tuples",
       obs::JsonValue::Number(expected_result_tuples)},
      {"client_superset_factor",
       obs::JsonValue::Number(client_superset_factor)},
      {"feasible", obs::JsonValue::Bool(feasible)},
      {"infeasible_reason", obs::JsonValue::String(infeasible_reason)},
      {"breakdown_ms", obs::JsonValue::Object(std::move(breakdown))},
  });
}

CostEstimate CostModel::Predict(const std::string& protocol,
                                const TableStats& s1, const TableStats& s2,
                                const ProtocolParams& params) const {
  CostEstimate est;
  if (protocol == "das") {
    est = PredictDas(s1, s2, params);
  } else if (protocol == "commutative") {
    est = PredictCommutative(s1, s2, params);
  } else if (protocol == "pm") {
    est = PredictPm(s1, s2, params);
  } else {
    est.feasible = false;
    est.infeasible_reason = "unknown protocol '" + protocol + "'";
  }
  est.protocol = protocol;
  // Shared totals: the request phase plus the per-protocol delivery terms
  // accumulated by the Predict* helpers.
  est.frames += kRequestFrames;
  est.mediator_bytes += 512;  // SQL + credentials + partial queries
  est.network_ms =
      (est.mediator_bytes + est.client_bytes +
       est.frames * kFrameOverheadBytes) *
          profile_.wire_byte_ns * 1e-6 +
      est.frames * profile_.frame_rtt_us * 1e-3;
  est.wall_ms =
      est.source_ms + est.mediator_ms + est.client_ms + est.network_ms;
  return est;
}

// ---------------------------------------------------------------------------
// DAS (Section 3): sources seal every tuple individually plus the bucket
// index tables; the mediator joins on bucket identifiers, producing the
// superset RC of all tuple pairs whose buckets overlap; the client
// decrypts RC and filters the false positives.
//
// This estimate is pessimistic: it still prices an RSA seal per tuple, an
// RSA open per distinct etuple and two etuples per pair of RC. The
// protocol now seals every etuple under one key per source (two RSA opens
// per query) and sends each etuple of RC once. It is kept until the model
// prices the prepared cache as well: every query is priced cold, so a DAS
// estimate repriced alone can make `auto` pick DAS on a warm service,
// where the commutative join's cache hits are faster.
CostEstimate CostModel::PredictDas(const TableStats& s1, const TableStats& s2,
                                   const ProtocolParams& params) const {
  CostEstimate est;
  double superset = EstimateDasSupersetPairs(s1, s2);
  if (superset < 0) {
    est.feasible = false;
    est.infeasible_reason =
        "no DAS bucket histogram (domain not partitionable under the "
        "configured strategy)";
    return est;
  }
  double n1 = double(s1.tuples), n2 = double(s2.tuples);
  double b1 = s1.avg_tuple_bytes, b2 = s2.avg_tuple_bytes;
  double result = EstimateJoinTuples(s1, s2);
  double rsa_scale = CubicScale(params.rsa_bits, profile_.rsa_ref_bits);
  double seal_overhead = double(params.rsa_bits) / 8.0 + 60.0;

  // Sources: per-tuple hybrid seals + partition-identifier hashes + two
  // sealed index tables.
  double seals = n1 + n2 + 2.0;
  double sealed_bytes = n1 * b1 + n2 * b2 + 1024.0;
  double seal_ms = seals * profile_.hybrid_encrypt_us * rsa_scale * 1e-3 +
                   sealed_bytes * profile_.hybrid_byte_ns * 1e-6;
  double hash_ms =
      (n1 + n2) * 24.0 * profile_.sha256_byte_ns * 1e-6;  // id per tuple
  est.source_ms = seal_ms + hash_ms;
  est.breakdown_ms["das.seal_etuples"] = seal_ms;
  est.breakdown_ms["das.partition_ids"] = hash_ms;

  // Mediator: plaintext index-value join over the encrypted relations.
  est.mediator_ms = superset * 2e-4;  // ~0.2 µs per surviving pair
  est.breakdown_ms["das.mediator_match"] = est.mediator_ms;

  double etuple1 = b1 + seal_overhead, etuple2 = b2 + seal_overhead;
  double relations_bytes = n1 * etuple1 + n2 * etuple2 + 1024.0;
  double rc_bytes = superset * (etuple1 + etuple2);
  est.mediator_bytes = relations_bytes + rc_bytes;
  est.client_bytes = rc_bytes + 1024.0;
  est.frames = kDasDeliveryFrames;

  // Client: RC pairs reference n1+n2 distinct etuples, each priced as one
  // hybrid open; the per-byte work is priced per pair.
  double distinct_decrypts = std::min(2.0 * superset, n1 + n2) + 2.0;
  double decrypt_ms =
      distinct_decrypts * profile_.hybrid_decrypt_us * rsa_scale * 1e-3 +
      superset * (b1 + b2) * profile_.hybrid_byte_ns * 1e-6;
  double filter_ms = superset * 5e-4;  // qC re-evaluation per pair
  est.client_ms = decrypt_ms + filter_ms;
  est.breakdown_ms["das.client_decrypt"] = decrypt_ms;
  est.breakdown_ms["das.client_filter"] = filter_ms;

  est.client_decrypt_ops = superset;
  est.expected_result_tuples = result;
  est.client_superset_factor = superset / std::max(result, 1.0);
  return est;
}

// ---------------------------------------------------------------------------
// Commutative encryption (Section 4): each source encrypts its active
// join domain (one exponentiation per distinct value), the mediator
// routes the lists for the second encryption (one more exponentiation
// per value), matches the doubly-encrypted lists exactly, and delivers
// the hybrid-sealed tuple sets of matched values to the client.
CostEstimate CostModel::PredictCommutative(const TableStats& s1,
                                           const TableStats& s2,
                                           const ProtocolParams& params) const {
  CostEstimate est;
  double d1 = double(s1.distinct_join_values);
  double d2 = double(s2.distinct_join_values);
  double n1 = double(s1.tuples), n2 = double(s2.tuples);
  double b1 = s1.avg_tuple_bytes, b2 = s2.avg_tuple_bytes;
  double intersection = EstimateDomainIntersection(s1, s2);
  double result = EstimateJoinTuples(s1, s2);
  double group_scale = CubicScale(params.group_bits, profile_.group_ref_bits);
  double rsa_scale = CubicScale(params.rsa_bits, profile_.rsa_ref_bits);
  double group_bytes = double(params.group_bits) / 8.0;
  double seal_overhead = double(params.rsa_bits) / 8.0 + 60.0;

  // Sources: hash-to-group + first encryption of the own domain, second
  // encryption of the peer's list — 2(d1+d2) commutative exponentiations
  // plus d1+d2 sealed tuple sets.
  double exps = 2.0 * (d1 + d2);
  double exp_ms = exps * profile_.commutative_exp_us * group_scale * 1e-3;
  double seal_ms =
      (d1 + d2) * profile_.hybrid_encrypt_us * rsa_scale * 1e-3 +
      (n1 * b1 + n2 * b2) * profile_.hybrid_byte_ns * 1e-6;
  est.source_ms = exp_ms + seal_ms;
  est.breakdown_ms["comm.exponentiations"] = exp_ms;
  est.breakdown_ms["comm.seal_tuple_sets"] = seal_ms;

  // Mediator: exact match of the doubly-encrypted value lists.
  est.mediator_ms = (d1 + d2) * 1e-3;
  est.breakdown_ms["comm.mediator_match"] = est.mediator_ms;

  double lists_bytes = 2.0 * (d1 + d2) * group_bytes;
  double sets_bytes =
      n1 * b1 + n2 * b2 + (d1 + d2) * seal_overhead;
  double matched_bytes =
      intersection * (n1 / std::max(d1, 1.0) * b1 + n2 / std::max(d2, 1.0) * b2 +
                      2.0 * seal_overhead);
  est.mediator_bytes = 2.0 * lists_bytes + sets_bytes + matched_bytes;
  est.client_bytes = matched_bytes;
  est.frames = kCommDeliveryFrames;

  // Client: open the two sealed tuple sets of each matched value and
  // build the pairwise combinations.
  double decrypt_ms =
      2.0 * intersection * profile_.hybrid_decrypt_us * rsa_scale * 1e-3 +
      matched_bytes * profile_.hybrid_byte_ns * 1e-6;
  double join_ms = result * 5e-4;
  est.client_ms = decrypt_ms + join_ms;
  est.breakdown_ms["comm.client_open_sets"] = decrypt_ms;
  est.breakdown_ms["comm.client_join"] = join_ms;

  est.client_decrypt_ops = result;
  est.expected_result_tuples = result;
  est.client_superset_factor = 1.0;
  return est;
}

// ---------------------------------------------------------------------------
// Private matching (Section 5): each source Paillier-encrypts the
// coefficients of the polynomial with its domain as roots (degree d_i),
// blindly evaluates the peer polynomial at each own value (Horner:
// one ciphertext exponentiation per coefficient), and masks the result;
// the client decrypts all d1+d2 evaluations and opens the matched
// session-key-sealed tuple sets.
CostEstimate CostModel::PredictPm(const TableStats& s1, const TableStats& s2,
                                  const ProtocolParams& params) const {
  CostEstimate est;
  double d1 = double(s1.distinct_join_values);
  double d2 = double(s2.distinct_join_values);
  double n1 = double(s1.tuples), n2 = double(s2.tuples);
  double b1 = s1.avg_tuple_bytes, b2 = s2.avg_tuple_bytes;
  double intersection = EstimateDomainIntersection(s1, s2);
  double result = EstimateJoinTuples(s1, s2);
  double p_scale = CubicScale(params.paillier_bits, profile_.paillier_ref_bits);
  double ct_bytes = 2.0 * double(params.paillier_bits) / 8.0;

  // Sources: coefficient encryption plus one payload encryption per
  // evaluation, and the O(d1·d2) blind Horner evaluations.
  double encs = (d1 + 1.0) + (d2 + 1.0) + (d1 + d2);
  double horner_steps = 2.0 * d1 * d2 + (d1 + d2);  // + masking exponent
  double enc_ms = encs * profile_.paillier_encrypt_us * p_scale * 1e-3;
  double eval_ms =
      horner_steps * profile_.paillier_scalar_mul_us * p_scale * 1e-3;
  double seal_ms = (n1 * b1 + n2 * b2) * profile_.hybrid_byte_ns * 1e-6;
  est.source_ms = enc_ms + eval_ms + seal_ms;
  est.breakdown_ms["pm.encrypt_coeffs"] = enc_ms;
  est.breakdown_ms["pm.blind_evaluate"] = eval_ms;
  est.breakdown_ms["pm.seal_tuple_sets"] = seal_ms;

  // Mediator: pure routing of ciphertext lists.
  est.mediator_ms = (d1 + d2) * 1e-3;
  est.breakdown_ms["pm.mediator_route"] = est.mediator_ms;

  double coeff_bytes = ((d1 + 1.0) + (d2 + 1.0)) * ct_bytes;
  double eval_bytes = (d1 + d2) * ct_bytes;
  double sets_bytes = n1 * b1 + n2 * b2 + (d1 + d2) * 64.0;
  est.mediator_bytes = 2.0 * coeff_bytes + eval_bytes + sets_bytes;
  est.client_bytes = eval_bytes + sets_bytes;
  est.frames = kPmDeliveryFrames;

  // Client: one Paillier decryption per evaluation (matched or not),
  // then open the matched tuple sets with the recovered session keys.
  double decrypt_ms =
      (d1 + d2) * profile_.paillier_decrypt_us * p_scale * 1e-3;
  double open_ms = intersection *
                       (n1 / std::max(d1, 1.0) * b1 +
                        n2 / std::max(d2, 1.0) * b2) *
                       profile_.hybrid_byte_ns * 1e-6 +
                   result * 5e-4;
  est.client_ms = decrypt_ms + open_ms;
  est.breakdown_ms["pm.client_decrypt"] = decrypt_ms;
  est.breakdown_ms["pm.client_open_sets"] = open_ms;

  est.client_decrypt_ops = d1 + d2;
  est.expected_result_tuples = result;
  est.client_superset_factor = 1.0;
  return est;
}

}  // namespace plan
}  // namespace secmed
