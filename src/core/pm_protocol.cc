#include "core/pm_protocol.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "core/prepared.h"
#include "crypto/hybrid.h"
#include "crypto/paillier.h"
#include "crypto/sha256.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr char kMsgPmCoefficients[] = "pm_coefficients";
constexpr char kMsgPmExchange[] = "pm_exchange";
constexpr char kMsgPmEvaluations[] = "pm_evaluations";
constexpr char kMsgPmResult[] = "pm_result";

constexpr size_t kValueHashLen = 16;  // 128-bit join-value fingerprint
constexpr uint8_t kPayloadMarker = 0x01;
constexpr size_t kSessionKeyLen = 32;
constexpr size_t kIdLen = 8;
// Marker + hash + id + key for the footnote-2 payload format.
constexpr size_t kSessionPayloadLen =
    1 + kValueHashLen + kIdLen + kSessionKeyLen;

// 128-bit fingerprint of a (composite) join value encoding; the field
// representative both sources agree on.
Bytes ValueFingerprint(const Bytes& composite_encoding) {
  Bytes digest = Sha256::Hash(composite_encoding);
  digest.resize(kValueHashLen);
  return digest;
}

// Coefficients (c0..cn) of P(x) = prod (root_i - x) over Z_n, computed
// iteratively: multiplying a polynomial by (r - x) maps coefficient k to
// r*c_k - c_{k-1}.
std::vector<BigInt> PolynomialFromRoots(const std::vector<BigInt>& roots,
                                        const BigInt& n) {
  std::vector<BigInt> coeffs = {BigInt(1)};  // empty product
  for (const BigInt& r : roots) {
    std::vector<BigInt> next(coeffs.size() + 1);
    for (size_t k = 0; k < coeffs.size(); ++k) {
      next[k] = BigInt::Mod(next[k] + r * coeffs[k], n).value();
    }
    for (size_t k = 1; k <= coeffs.size(); ++k) {
      next[k] = BigInt::Mod(next[k] + n - coeffs[k - 1] % n, n).value();
    }
    coeffs = std::move(next);
  }
  return coeffs;
}

}  // namespace

Result<std::vector<uint64_t>> DrawDistinctPayloadIds(size_t count,
                                                     RandomSource* rng) {
  constexpr int kMaxAttempts = 64;
  std::set<uint64_t> seen;
  std::vector<uint64_t> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    for (int attempt = 0;; ++attempt) {
      if (attempt == kMaxAttempts) {
        return Status::Internal(
            "could not draw a distinct 64-bit payload ID; broken RandomSource?");
      }
      Bytes id_bytes = rng->Generate(kIdLen);
      id = 0;
      for (size_t b = 0; b < kIdLen; ++b) id = (id << 8) | id_bytes[b];
      if (seen.insert(id).second) break;
    }
    ids.push_back(id);
  }
  return ids;
}

Result<Relation> PmJoinProtocol::Run(const std::string& sql,
                                     ProtocolContext* ctx) {
  SECMED_ASSIGN_OR_RETURN(RequestState state, RunRequestPhase(sql, ctx));
  const size_t threads = ResolveThreads(ctx->threads);
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();

  // Each source recovers the client's homomorphic key from the forwarded
  // credentials (Section 5.1: distributed with the credentials).
  if (state.credentials.empty() || state.credentials[0].paillier_key.empty()) {
    return Status::ProtocolError(
        "PM protocol requires a homomorphic key in the client credentials");
  }
  SECMED_ASSIGN_OR_RETURN(
      PaillierPublicKey paillier,
      PaillierPublicKey::Deserialize(state.credentials[0].paillier_key));
  const size_t key_bytes = (paillier.n_squared().BitLength() + 7) / 8;

  // Steps 2/3 at each source: polynomial from the active domain, encrypted
  // coefficients to the mediator (with the encrypted schema metadata).
  struct SourceState {
    std::string name;
    const Relation* rel;
    const RsaPublicKey* client_key;
    std::map<Bytes, Relation> tuple_sets;
    std::vector<BigInt> own_roots;
  };
  std::vector<SourceState> sources(2);
  auto source_coefficients = [&](SourceState* ss, uint8_t which) -> Status {
    const char* role = which == 1 ? "source1" : "source2";
    obs::Span span =
        obs::StartSpan(ctx->obs, role, "delivery", "pm.encrypt_coeffs");
    SECMED_ASSIGN_OR_RETURN(
        std::vector<size_t> join_idx,
        JoinColumnIndexes(ss->rel->schema(), state.plan.join_attributes));
    ss->tuple_sets = GroupTuplesByJoinValue(*ss->rel, join_idx);
    for (const auto& [value_enc, tuples] : ss->tuple_sets) {
      ss->own_roots.push_back(BigInt::FromBytes(ValueFingerprint(value_enc)));
    }

    // Sealed schema + encrypted polynomial as a pure function of the
    // relation, keys and join attributes under the supplied randomness —
    // everything after the source tag of the coefficients message.
    auto compute = [&](RandomSource* rng)
        -> Result<std::shared_ptr<const PreparedBlob>> {
      std::vector<BigInt> coeffs =
          PolynomialFromRoots(ss->own_roots, paillier.n());

      SECMED_ASSIGN_OR_RETURN(
          Bytes schema_blob,
          HybridEncrypt(*ss->client_key, [&] {
            BinaryWriter w;
            ss->rel->schema().EncodeTo(&w);
            return w.TakeBuffer();
          }(), rng));

      // Coefficient encryption is one independent Paillier exponentiation
      // per coefficient — the protocol's first hot loop. Per-item RNG forks
      // keep the ciphertexts identical for every thread count.
      std::vector<std::unique_ptr<RandomSource>> rngs =
          ForkN(rng, coeffs.size());
      std::vector<BigInt> enc(coeffs.size());
      std::string loop_label =
          obs::SpanName(role, "delivery", "pm.encrypt_coeffs");
      SECMED_RETURN_IF_ERROR(ParallelForStatus(
          coeffs.size(), threads, [&](size_t i) -> Status {
            SECMED_ASSIGN_OR_RETURN(
                enc[i], paillier.Encrypt(coeffs[i], rngs[i].get()));
            return Status::OK();
          }, ctx->obs, loop_label.c_str()));
      span.AddItems(enc.size());

      BinaryWriter w;
      w.WriteBytes(schema_blob);
      w.WriteU32(static_cast<uint32_t>(enc.size()));
      for (const BigInt& e : enc) w.WriteBytes(e.ToBytes(key_bytes));
      return std::make_shared<const PreparedBlob>(w.TakeBuffer());
    };

    std::shared_ptr<const PreparedBlob> payload;
    if (ctx->prepared != nullptr) {
      BinaryWriter mat;
      mat.WriteBytes(state.credentials[0].paillier_key);
      mat.WriteBytes(ss->client_key->Serialize());
      mat.WriteU32(static_cast<uint32_t>(state.plan.join_attributes.size()));
      for (const std::string& a : state.plan.join_attributes) {
        mat.WriteString(a);
      }
      mat.WriteBytes(ss->rel->Serialize());
      std::string cache_key =
          PreparedKey("pm.coeffs", ss->name,
                      SourceCatalogVersion(ctx, ss->name), mat.TakeBuffer());
      SECMED_ASSIGN_OR_RETURN(
          payload,
          GetOrCompute<PreparedBlob>(ctx->prepared, cache_key, compute));
    } else {
      SECMED_ASSIGN_OR_RETURN(payload, compute(ctx->rng));
    }

    BinaryWriter w;
    w.WriteU8(which);
    w.WriteRaw(payload->bytes);
    bus.Send(ss->name, mediator, kMsgPmCoefficients, w.TakeBuffer());
    return Status::OK();
  };
  sources[0] = SourceState{state.plan.source1, &state.r1, &state.client_key1,
                           {}, {}};
  sources[1] = SourceState{state.plan.source2, &state.r2, &state.client_key2,
                           {}, {}};
  SECMED_RETURN_IF_ERROR(source_coefficients(&sources[0], 1));
  SECMED_RETURN_IF_ERROR(source_coefficients(&sources[1], 2));

  // Step 4 at the mediator: forward coefficients to the opposite source,
  // keep the schema blobs for the client.
  obs::Span forward_span =
      obs::StartSpan(ctx->obs, "mediator", "delivery", "pm.forward");
  std::vector<Bytes> schema_blobs(3);
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgPmCoefficients));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t which, r.ReadU8());
    if (which != 1 && which != 2) {
      return Status::ProtocolError("bad source tag in coefficients");
    }
    SECMED_ASSIGN_OR_RETURN(schema_blobs[which], r.ReadBytes());
    const std::string& opposite =
        which == 1 ? state.plan.source2 : state.plan.source1;
    BinaryWriter w;
    w.WriteU8(which);
    // Remaining payload (count + coefficient ciphertexts) is forwarded
    // verbatim.
    SECMED_ASSIGN_OR_RETURN(Bytes rest, r.ReadRaw(r.remaining()));
    w.WriteRaw(rest);
    bus.Send(mediator, opposite, kMsgPmExchange, w.TakeBuffer());
  }
  forward_span.End();

  // Steps 5/6 at each source: blind evaluation of the opposite polynomial
  // at the own values, payload attached.
  auto source_evaluate = [&](SourceState* ss, uint8_t which) -> Status {
    const char* role = which == 1 ? "source1" : "source2";
    obs::Span span =
        obs::StartSpan(ctx->obs, role, "delivery", "pm.evaluate");
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(ss->name, kMsgPmExchange));

    // Blind evaluation of the received polynomial over the own tuple sets
    // — a pure function of the exchange message, the own relation and the
    // keys under the supplied randomness (everything after the source tag
    // of the evaluations message).
    auto compute = [&](RandomSource* prep_rng)
        -> Result<std::shared_ptr<const PreparedBlob>> {
      BinaryReader r(msg.payload);
      SECMED_ASSIGN_OR_RETURN(uint8_t origin, r.ReadU8());
      (void)origin;
      SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
      std::vector<BigInt> enc_coeffs;
      enc_coeffs.reserve(std::min<size_t>(count, r.remaining()));
      for (uint32_t k = 0; k < count; ++k) {
        SECMED_ASSIGN_OR_RETURN(Bytes raw, r.ReadBytes());
        enc_coeffs.push_back(BigInt::FromBytes(raw));
      }
      if (enc_coeffs.empty()) {
        return Status::ProtocolError("opposite polynomial has no coefficients");
      }

      // Items in deterministic (join value) order; each is an independent
      // blind Horner evaluation — the protocol's quadratic hot loop.
      struct EvalItem {
        const Bytes* value_enc;
        const Relation* tuples;
      };
      std::vector<EvalItem> eval_items;
      eval_items.reserve(ss->tuple_sets.size());
      for (const auto& [value_enc, tuples] : ss->tuple_sets) {
        eval_items.push_back(EvalItem{&value_enc, &tuples});
      }

      // IDs are drawn at random (not sequential): the tuple sets are grouped
      // in value order here, and sequential IDs would disclose the relative
      // order of the join values to the mediator. Drawn distinct up front
      // (serially, before forking) so a 64-bit collision can never make two
      // payload-table entries shadow each other at the client.
      std::vector<uint64_t> ids;
      if (options_.session_key_payloads) {
        SECMED_ASSIGN_OR_RETURN(
            ids, DrawDistinctPayloadIds(eval_items.size(), prep_rng));
      }
      std::vector<std::unique_ptr<RandomSource>> rngs =
          ForkN(prep_rng, eval_items.size());

      std::vector<Bytes> evaluations(eval_items.size());
      // id -> session-encrypted tuple set.
      std::vector<std::pair<uint64_t, Bytes>> payload_entries(
          options_.session_key_payloads ? eval_items.size() : 0);
      std::string loop_label = obs::SpanName(role, "delivery", "pm.evaluate");
      SECMED_RETURN_IF_ERROR(ParallelForStatus(
          eval_items.size(), threads, [&](size_t i) -> Status {
            RandomSource* rng = rngs[i].get();
            const Bytes fingerprint =
                ValueFingerprint(*eval_items[i].value_enc);
            const BigInt a = BigInt::FromBytes(fingerprint);

            // Horner: E(P(a)) from encrypted coefficients (c0 + a c1 + ...).
            BigInt acc = enc_coeffs.back();
            for (size_t k = enc_coeffs.size() - 1; k-- > 0;) {
              acc = paillier.Add(paillier.ScalarMul(acc, a), enc_coeffs[k]);
            }

            // Payload m = marker || fingerprint || (id || session key | tuples).
            Bytes m_bytes;
            m_bytes.push_back(kPayloadMarker);
            Append(&m_bytes, fingerprint);
            if (options_.session_key_payloads) {
              const uint64_t id = ids[i];
              for (int b = static_cast<int>(kIdLen) - 1; b >= 0; --b) {
                m_bytes.push_back(static_cast<uint8_t>(id >> (8 * b)));
              }
              Bytes session_key = rng->Generate(kSessionKeyLen);
              Append(&m_bytes, session_key);
              SECMED_ASSIGN_OR_RETURN(
                  Bytes enc_tup,
                  SessionEncrypt(session_key,
                                 eval_items[i].tuples->Serialize(), rng));
              payload_entries[i] = {id, std::move(enc_tup)};
            } else {
              Append(&m_bytes, eval_items[i].tuples->Serialize());
            }
            if (m_bytes.size() > paillier.MaxPlaintextBytes()) {
              return Status::InvalidArgument(
                  "tuple-set payload exceeds the Paillier plaintext space; "
                  "enable session_key_payloads (footnote 2)");
            }
            const BigInt m = BigInt::FromBytes(m_bytes);
            // ek = E(rk * P(a) + m) with fresh random rk in [1, n).
            BigInt rk;
            do {
              rk = BigInt::RandomBelow(paillier.n(), rng);
            } while (rk.is_zero());
            BigInt ek = paillier.AddPlain(paillier.ScalarMul(acc, rk), m);
            evaluations[i] = ek.ToBytes(key_bytes);
            return Status::OK();
          }, ctx->obs, loop_label.c_str()));
      span.AddItems(eval_items.size());
      // Arbitrary order, independent of plaintext order.
      std::sort(evaluations.begin(), evaluations.end());
      std::sort(payload_entries.begin(), payload_entries.end());

      BinaryWriter w;
      w.WriteU32(static_cast<uint32_t>(evaluations.size()));
      for (const Bytes& e : evaluations) w.WriteBytes(e);
      w.WriteU32(static_cast<uint32_t>(payload_entries.size()));
      for (const auto& [id, sealed] : payload_entries) {
        // Big-endian so the table order (sorted by random id) carries no
        // structure either.
        for (int b = static_cast<int>(kIdLen) - 1; b >= 0; --b) {
          w.WriteU8(static_cast<uint8_t>(id >> (8 * b)));
        }
        w.WriteBytes(sealed);
      }
      return std::make_shared<const PreparedBlob>(w.TakeBuffer());
    };

    std::shared_ptr<const PreparedBlob> payload;
    if (ctx->prepared != nullptr) {
      BinaryWriter mat;
      mat.WriteBytes(msg.payload);
      mat.WriteBytes(state.credentials[0].paillier_key);
      mat.WriteU8(options_.session_key_payloads ? 1 : 0);
      mat.WriteU32(static_cast<uint32_t>(state.plan.join_attributes.size()));
      for (const std::string& a : state.plan.join_attributes) {
        mat.WriteString(a);
      }
      mat.WriteBytes(ss->rel->Serialize());
      std::string cache_key =
          PreparedKey("pm.evaluate", ss->name,
                      SourceCatalogVersion(ctx, ss->name), mat.TakeBuffer());
      SECMED_ASSIGN_OR_RETURN(
          payload,
          GetOrCompute<PreparedBlob>(ctx->prepared, cache_key, compute));
    } else {
      SECMED_ASSIGN_OR_RETURN(payload, compute(ctx->rng));
    }

    BinaryWriter w;
    w.WriteU8(which);
    w.WriteRaw(payload->bytes);
    bus.Send(ss->name, mediator, kMsgPmEvaluations, w.TakeBuffer());
    return Status::OK();
  };
  SECMED_RETURN_IF_ERROR(source_evaluate(&sources[0], 1));
  SECMED_RETURN_IF_ERROR(source_evaluate(&sources[1], 2));

  // Step 7 at the mediator: ship the n + m encrypted values (and, in the
  // footnote-2 mode, the session-encrypted payload tables) to the client.
  {
    obs::Span span =
        obs::StartSpan(ctx->obs, "mediator", "delivery", "pm.ship_result");
    BinaryWriter w;
    w.WriteBytes(schema_blobs[1]);
    w.WriteBytes(schema_blobs[2]);
    for (int i = 0; i < 2; ++i) {
      SECMED_ASSIGN_OR_RETURN(Message msg,
                              bus.ReceiveOfType(mediator, kMsgPmEvaluations));
      w.WriteBytes(msg.payload);
    }
    bus.Send(mediator, client, kMsgPmResult, w.TakeBuffer());
  }

  // Step 8 at the client: decrypt everything, keep well-formed payloads,
  // match fingerprints across the two sources, combine tuple sets.
  obs::Span decrypt_span = obs::StartSpan(ctx->obs, "client", "post", "decrypt");
  SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(client, kMsgPmResult));
  BinaryReader r(msg.payload);
  Schema schema1, schema2;
  for (int which = 1; which <= 2; ++which) {
    SECMED_ASSIGN_OR_RETURN(Bytes blob, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes plain, ClientHybridDecrypt(ctx, blob));
    BinaryReader sr(plain);
    SECMED_ASSIGN_OR_RETURN(Schema schema, Schema::DecodeFrom(&sr));
    (which == 1 ? schema1 : schema2) = std::move(schema);
  }

  struct Opened {
    Bytes fingerprint;
    // session-key mode:
    uint64_t id = 0;
    Bytes session_key;
    // direct mode:
    Bytes tuple_bytes;
  };
  std::map<Bytes, Opened> opened_by_fp[3];      // index by source tag
  std::map<uint64_t, Bytes> payload_tables[3];  // id -> sealed tuple set
  size_t evaluation_count = 0;

  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Bytes sub, r.ReadBytes());
    BinaryReader er(sub);
    SECMED_ASSIGN_OR_RETURN(uint8_t which, er.ReadU8());
    if (which != 1 && which != 2) {
      return Status::ProtocolError("bad source tag in evaluations");
    }
    SECMED_ASSIGN_OR_RETURN(uint32_t count, er.ReadU32());
    evaluation_count += count;
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes e_raw, er.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(Bytes m_bytes, ClientPaillierDecrypt(ctx, e_raw));
      // Masked non-members decrypt to random values; real payloads carry
      // the marker byte and a plausible structure.
      if (m_bytes.size() < 1 + kValueHashLen || m_bytes[0] != kPayloadMarker) {
        continue;
      }
      if (options_.session_key_payloads &&
          m_bytes.size() != kSessionPayloadLen) {
        continue;
      }
      Opened o;
      o.fingerprint.assign(m_bytes.begin() + 1,
                           m_bytes.begin() + 1 + kValueHashLen);
      size_t off = 1 + kValueHashLen;
      if (options_.session_key_payloads) {
        for (size_t b = 0; b < kIdLen; ++b) o.id = (o.id << 8) | m_bytes[off + b];
        off += kIdLen;
        o.session_key.assign(m_bytes.begin() + off, m_bytes.end());
      } else {
        o.tuple_bytes.assign(m_bytes.begin() + off, m_bytes.end());
      }
      opened_by_fp[which].emplace(o.fingerprint, std::move(o));
    }
    SECMED_ASSIGN_OR_RETURN(uint32_t payloads, er.ReadU32());
    for (uint32_t k = 0; k < payloads; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes id_bytes, er.ReadRaw(kIdLen));
      uint64_t id = 0;
      for (size_t b = 0; b < kIdLen; ++b) id = (id << 8) | id_bytes[b];
      SECMED_ASSIGN_OR_RETURN(Bytes sealed, er.ReadBytes());
      // A well-behaved source draws distinct IDs (DrawDistinctPayloadIds);
      // a duplicate here would silently shadow one tuple set, so fail loud.
      if (!payload_tables[which].emplace(id, std::move(sealed)).second) {
        return Status::ProtocolError(
            "duplicate payload-table ID in PM evaluations");
      }
    }
  }
  last_evaluation_count_ = evaluation_count;
  decrypt_span.AddItems(evaluation_count);
  decrypt_span.End();

  obs::Span match_span =
      obs::StartSpan(ctx->obs, "client", "post", "pm.match_fingerprints");
  SECMED_ASSIGN_OR_RETURN(
      Schema joined_schema,
      JoinedSchema(schema1, schema2, state.plan.join_attributes));
  SECMED_ASSIGN_OR_RETURN(
      std::vector<size_t> j2,
      JoinColumnIndexes(schema2, state.plan.join_attributes));
  Relation result(joined_schema);

  auto open_tuples = [&](int which, const Opened& o) -> Result<Relation> {
    if (!options_.session_key_payloads) {
      return Relation::Deserialize(o.tuple_bytes);
    }
    auto it = payload_tables[which].find(o.id);
    if (it == payload_tables[which].end()) {
      return Status::ProtocolError("missing payload table entry");
    }
    SECMED_ASSIGN_OR_RETURN(Bytes plain,
                            SessionDecrypt(o.session_key, it->second));
    return Relation::Deserialize(plain);
  };

  for (const auto& [fp, o1] : opened_by_fp[1]) {
    auto it = opened_by_fp[2].find(fp);
    if (it == opened_by_fp[2].end()) continue;
    SECMED_ASSIGN_OR_RETURN(Relation tup1, open_tuples(1, o1));
    SECMED_ASSIGN_OR_RETURN(Relation tup2, open_tuples(2, it->second));
    AppendJoinedCrossProduct(tup1, tup2, j2, &result);
  }
  return result;
}

}  // namespace secmed
