#include "core/matching.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/prepared.h"
#include "crypto/commutative.h"
#include "crypto/group_params.h"
#include "crypto/hybrid.h"
#include "crypto/paillier.h"
#include "crypto/sha256.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr char kMsgCommMessageSet[] = "comm_message_set";
constexpr char kMsgCommExchange[] = "comm_exchange";
constexpr char kMsgCommDoubleEncrypted[] = "comm_double_encrypted";
constexpr char kMsgPmCoefficients[] = "pm_coefficients";
constexpr char kMsgPmExchange[] = "pm_exchange";
constexpr char kMsgPmEvaluations[] = "pm_evaluations";

constexpr size_t kValueHashLen = 16;  // 128-bit join-value fingerprint
constexpr uint8_t kPayloadMarker = 0x01;
constexpr size_t kSessionKeyLen = 32;
constexpr size_t kIdLen = 8;
// Marker + fingerprint + id + key for the footnote-2 payload format.
constexpr size_t kSessionPayloadLen =
    1 + kValueHashLen + kIdLen + kSessionKeyLen;

/// One datasource of a round, as its own steps see it.
struct Source {
  uint8_t which;     // source tag on the wire
  const char* role;  // span party, independent of the deployment's names
  const std::string& name;
  const Relation& rel;
  const RsaPublicKey& client_key;
};

Source SourceOf(const RequestState& state, uint8_t which) {
  if (which == 1) {
    return {1, "source1", state.plan.source1, state.r1, state.client_key1};
  }
  return {2, "source2", state.plan.source2, state.r2, state.client_key2};
}

/// A join value with its tuple set, in value order.
struct ValueItem {
  const Bytes* value;
  const Relation* tuples;
};

std::vector<ValueItem> ValueItems(const std::map<Bytes, Relation>& sets) {
  std::vector<ValueItem> items;
  items.reserve(sets.size());
  for (const auto& [value, tuples] : sets) items.push_back({&value, &tuples});
  return items;
}

void WriteJoinAttributes(BinaryWriter* w,
                         const std::vector<std::string>& attrs) {
  w->WriteU32(static_cast<uint32_t>(attrs.size()));
  for (const std::string& a : attrs) w->WriteString(a);
}

void WriteId(uint64_t id, Bytes* out) {
  for (int b = static_cast<int>(kIdLen) - 1; b >= 0; --b) {
    out->push_back(static_cast<uint8_t>(id >> (8 * b)));
  }
}

uint64_t ReadId(const uint8_t* bytes) {
  uint64_t id = 0;
  for (size_t b = 0; b < kIdLen; ++b) id = (id << 8) | bytes[b];
  return id;
}

/// Prepared delivery of one source in the commutative round (steps 1-3):
/// the commutative key and the message set after its source tag. Both
/// come from the entry's prepare RNG, so the key a warm session
/// double-encrypts with matches the ciphertexts of the cached payload.
struct PreparedCommDeliver : PreparedValue {
  CommutativeKey key;
  Bytes payload;
  uint32_t entries = 0;

  PreparedCommDeliver(CommutativeKey k, Bytes p, uint32_t n)
      : key(std::move(k)), payload(std::move(p)), entries(n) {}
  size_t ByteSize() const override {
    return payload.size() + 4 * ((key.group().p().BitLength() + 7) / 8);
  }
};

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

Bytes ValueFingerprint(const Bytes& value) {
  Bytes digest = Sha256::Hash(value);
  digest.resize(kValueHashLen);
  return digest;
}

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
      id = ReadId(rng->Generate(kIdLen).data());
      if (seen.insert(id).second) break;
    }
    ids.push_back(id);
  }
  return ids;
}

Result<CommutativeMatch> RunCommutativeRound(const RequestState& state,
                                             const CommutativeRound& round,
                                             ProtocolContext* ctx) {
  SECMED_ASSIGN_OR_RETURN(QrGroup group, StandardGroup(round.group_bits));
  const size_t threads = ResolveThreads(ctx->threads);
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::vector<std::string>& join_attrs = state.plan.join_attributes;
  const size_t group_bytes = (group.p().BitLength() + 7) / 8;

  // Steps 1-3 at each source: encrypt the hashed join values under a
  // fresh commutative key, attach the payloads and send the message set
  // Mi with the sealed schema.
  std::vector<CommutativeKey> keys;
  for (uint8_t which = 1; which <= 2; ++which) {
    const Source src = SourceOf(state, which);
    obs::Span span =
        obs::StartSpan(ctx->obs, src.role, "delivery", "comm.deliver");
    // The delivery as a pure function of its cache material under the
    // supplied randomness: the key first, then one fork per join value,
    // then the schema seal.
    auto compute = [&](RandomSource* rng)
        -> Result<std::shared_ptr<const PreparedCommDeliver>> {
      CommutativeKey key = CommutativeKey::Generate(group, rng);
      SECMED_ASSIGN_OR_RETURN(std::vector<size_t> join_idx,
                              JoinColumnIndexes(src.rel.schema(), join_attrs));
      const std::map<Bytes, Relation> tuple_sets =
          GroupTuplesByJoinValue(src.rel, join_idx);
      const std::vector<ValueItem> items = ValueItems(tuple_sets);
      std::vector<std::unique_ptr<RandomSource>> rngs =
          ForkN(rng, items.size());
      std::vector<std::pair<Bytes, Bytes>> entries(  // (f_ei(h(a)), payload)
          items.size());
      std::string loop_label =
          obs::SpanName(src.role, "delivery", "comm.encrypt_sets");
      SECMED_RETURN_IF_ERROR(ParallelForStatus(
          items.size(), threads, [&](size_t i) -> Status {
            Bytes cipher = key.Encrypt(group.HashToGroup(*items[i].value))
                               .ToBytes(group_bytes);
            SECMED_ASSIGN_OR_RETURN(
                Bytes payload, round.attach(which, *items[i].value,
                                            *items[i].tuples, rngs[i].get()));
            entries[i] = {std::move(cipher), std::move(payload)};
            return Status::OK();
          }, ctx->obs, loop_label.c_str()));
      // Sorted by ciphertext: an order independent of the plaintexts.
      std::sort(entries.begin(), entries.end());
      Bytes schema_blob;
      if (round.seal_schema) {
        SECMED_ASSIGN_OR_RETURN(
            schema_blob, SealSchema(src.client_key, src.rel.schema(), rng));
      }

      BinaryWriter w;
      w.WriteBytes(schema_blob);
      w.WriteU32(static_cast<uint32_t>(entries.size()));
      for (const auto& [cipher, payload] : entries) {
        w.WriteBytes(cipher);
        w.WriteBytes(payload);
      }
      return std::make_shared<const PreparedCommDeliver>(
          std::move(key), w.TakeBuffer(),
          static_cast<uint32_t>(entries.size()));
    };
    auto material = [&] {
      BinaryWriter mat;
      mat.WriteU32(static_cast<uint32_t>(round.group_bits));
      WriteJoinAttributes(&mat, join_attrs);
      mat.WriteBytes(src.client_key.Serialize());
      mat.WriteBytes(src.rel.Serialize());
      mat.WriteRaw(round.payload_material);
      return mat.TakeBuffer();
    };
    SECMED_ASSIGN_OR_RETURN(
        std::shared_ptr<const PreparedCommDeliver> prepared,
        PreparedOrCompute<PreparedCommDeliver>(ctx, round.deliver_kind,
                                               src.name, material, compute));

    BinaryWriter w;
    w.WriteU8(which);
    w.WriteRaw(prepared->payload);
    bus.Send(src.name, mediator, kMsgCommMessageSet, w.TakeBuffer());
    keys.push_back(prepared->key);
    span.AddItems(prepared->entries);
  }

  // Step 4 at the mediator: keep the payloads and exchange the hash parts
  // between the sources. Unless footnote 1's forwarding is on, only
  // fixed-length IDs travel with them.
  struct Held {
    Bytes cipher;
    Bytes payload;
  };
  std::vector<Held> held[3];  // by source tag
  Bytes schema_blobs[3];
  obs::Span exchange_span =
      obs::StartSpan(ctx->obs, "mediator", "delivery", "comm.exchange");
  bool set_tags[3] = {};
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgCommMessageSet));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t which,
                            ReadSourceTag(&r, set_tags, kMsgCommMessageSet));
    SECMED_ASSIGN_OR_RETURN(schema_blobs[which], r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    for (uint32_t k = 0; k < count; ++k) {
      Held h;
      SECMED_ASSIGN_OR_RETURN(h.cipher, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(h.payload, r.ReadBytes());
      held[which].push_back(std::move(h));
    }
  }
  for (uint8_t from = 1; from <= 2; ++from) {
    BinaryWriter w;
    w.WriteU8(from);
    w.WriteU32(static_cast<uint32_t>(held[from].size()));
    for (size_t id = 0; id < held[from].size(); ++id) {
      w.WriteBytes(held[from][id].cipher);
      if (round.forward_payloads) {
        w.WriteBytes(held[from][id].payload);
      } else {
        w.WriteU64(id);
      }
    }
    bus.Send(mediator, SourceOf(state, 3 - from).name, kMsgCommExchange,
             w.TakeBuffer());
  }
  exchange_span.End();

  // Steps 5/6 at each source: apply the own key on top of the received
  // single ciphertexts and return the double ciphertexts.
  for (uint8_t which = 1; which <= 2; ++which) {
    const Source src = SourceOf(state, which);
    const CommutativeKey& key = keys[which - 1];
    obs::Span span =
        obs::StartSpan(ctx->obs, src.role, "delivery", "comm.double_encrypt");
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(src.name, kMsgCommExchange));

    // Double encryption is deterministic in (own exponent, received
    // message), so the whole reply is cacheable as one blob.
    size_t count_out = 0;
    auto compute = [&](RandomSource*)
        -> Result<std::shared_ptr<const PreparedBlob>> {
      BinaryReader r(msg.payload);
      SECMED_ASSIGN_OR_RETURN(uint8_t origin, r.ReadU8());
      if (origin != 3 - which) {
        return Status::ProtocolError("bad source tag in comm_exchange");
      }
      SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
      // Parse serially, exponentiate in parallel (pure compute, no RNG),
      // serialize serially.
      std::vector<BigInt> singles;
      std::vector<Bytes> payloads;
      std::vector<uint64_t> ids;
      singles.reserve(std::min<size_t>(count, r.remaining()));
      for (uint32_t k = 0; k < count; ++k) {
        SECMED_ASSIGN_OR_RETURN(Bytes single, r.ReadBytes());
        singles.push_back(BigInt::FromBytes(single));
        if (round.forward_payloads) {
          SECMED_ASSIGN_OR_RETURN(Bytes payload, r.ReadBytes());
          payloads.push_back(std::move(payload));
        } else {
          SECMED_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
          ids.push_back(id);
        }
      }
      std::string loop_label =
          obs::SpanName(src.role, "delivery", "comm.double_encrypt");
      std::vector<BigInt> doubled =
          key.EncryptMany(singles, threads, ctx->obs, loop_label.c_str());
      count_out = count;
      BinaryWriter w;
      w.WriteU8(origin);
      w.WriteU32(count);
      for (uint32_t k = 0; k < count; ++k) {
        w.WriteBytes(doubled[k].ToBytes(group_bytes));
        if (round.forward_payloads) {
          w.WriteBytes(payloads[k]);
        } else {
          w.WriteU64(ids[k]);
        }
      }
      return std::make_shared<const PreparedBlob>(w.TakeBuffer());
    };
    auto material = [&] {
      BinaryWriter mat;
      mat.WriteBytes(key.exponent().ToBytes());
      mat.WriteBytes(msg.payload);
      return mat.TakeBuffer();
    };
    SECMED_ASSIGN_OR_RETURN(
        std::shared_ptr<const PreparedBlob> reply,
        PreparedOrCompute<PreparedBlob>(ctx, "comm.double", src.name,
                                        material, compute));
    span.AddItems(count_out);
    bus.Send(src.name, mediator, kMsgCommDoubleEncrypted, reply->bytes);
  }

  // Step 7 at the mediator: match equal double ciphertexts; commutativity
  // makes them equal exactly for the common join values.
  obs::Span match_span =
      obs::StartSpan(ctx->obs, "mediator", "delivery", "comm.match");
  std::map<Bytes, std::pair<std::vector<Bytes>, std::vector<Bytes>>> matches;
  bool double_tags[3] = {};
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(
        Message msg, bus.ReceiveOfType(mediator, kMsgCommDoubleEncrypted));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(
        uint8_t origin,
        ReadSourceTag(&r, double_tags, kMsgCommDoubleEncrypted));
    const std::vector<Held>& forwarded = held[origin];
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    if (count != forwarded.size()) {
      return Status::ProtocolError(
          "double-encrypted set differs in size from the forwarded set");
    }
    std::vector<bool> returned(forwarded.size(), false);
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes doubled, r.ReadBytes());
      Bytes payload;
      if (round.forward_payloads) {
        SECMED_ASSIGN_OR_RETURN(payload, r.ReadBytes());
      } else {
        SECMED_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
        if (id >= forwarded.size() || returned[id]) {
          return Status::ProtocolError("payload ID out of range or repeated");
        }
        returned[id] = true;
        payload = forwarded[id].payload;
      }
      auto& slot = matches[doubled];
      (origin == 1 ? slot.first : slot.second).push_back(std::move(payload));
    }
  }
  CommutativeMatch out;
  out.schema1 = std::move(schema_blobs[1]);
  out.schema2 = std::move(schema_blobs[2]);
  for (const auto& [doubled, slot] : matches) {
    for (const Bytes& p1 : slot.first) {
      for (const Bytes& p2 : slot.second) out.pairs.emplace_back(p1, p2);
    }
  }
  match_span.AddItems(out.pairs.size());
  return out;
}

Result<PmOpened> RunPmRound(const RequestState& state, const PmRound& round,
                            ProtocolContext* ctx) {
  const size_t threads = ResolveThreads(ctx->threads);
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();
  const std::vector<std::string>& join_attrs = state.plan.join_attributes;

  // Each source recovers the client's homomorphic key from the forwarded
  // credentials (Section 5.1: distributed with the credentials).
  if (state.credentials.empty() || state.credentials[0].paillier_key.empty()) {
    return Status::ProtocolError(
        "PM protocol requires a homomorphic key in the client credentials");
  }
  const Bytes& paillier_key = state.credentials[0].paillier_key;
  SECMED_ASSIGN_OR_RETURN(PaillierPublicKey paillier,
                          PaillierPublicKey::Deserialize(paillier_key));
  const size_t key_bytes = (paillier.n_squared().BitLength() + 7) / 8;

  // Steps 2/3 at each source: the polynomial whose roots are the own
  // join values, its coefficients encrypted under the client's key and
  // sent to the mediator with the sealed schema.
  std::map<Bytes, Relation> tuple_sets[3];  // by source tag
  for (uint8_t which = 1; which <= 2; ++which) {
    const Source src = SourceOf(state, which);
    obs::Span span =
        obs::StartSpan(ctx->obs, src.role, "delivery", "pm.encrypt_coeffs");
    SECMED_ASSIGN_OR_RETURN(std::vector<size_t> join_idx,
                            JoinColumnIndexes(src.rel.schema(), join_attrs));
    tuple_sets[which] = GroupTuplesByJoinValue(src.rel, join_idx);
    std::vector<BigInt> roots;
    for (const auto& [value, tuples] : tuple_sets[which]) {
      roots.push_back(BigInt::FromBytes(ValueFingerprint(value)));
    }

    // Everything after the source tag as a pure function of the cache
    // material under the supplied randomness: the schema seal first, then
    // one fork per coefficient.
    auto compute = [&](RandomSource* rng)
        -> Result<std::shared_ptr<const PreparedBlob>> {
      std::vector<BigInt> coeffs = PolynomialFromRoots(roots, paillier.n());
      Bytes schema_blob;
      if (round.seal_schema) {
        SECMED_ASSIGN_OR_RETURN(
            schema_blob, SealSchema(src.client_key, src.rel.schema(), rng));
      }
      // One independent Paillier exponentiation per coefficient; per-item
      // forks keep the ciphertexts identical for every thread count.
      std::vector<std::unique_ptr<RandomSource>> rngs =
          ForkN(rng, coeffs.size());
      std::vector<BigInt> enc(coeffs.size());
      std::string loop_label =
          obs::SpanName(src.role, "delivery", "pm.encrypt_coeffs");
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
    auto material = [&] {
      BinaryWriter mat;
      mat.WriteBytes(paillier_key);
      mat.WriteBytes(src.client_key.Serialize());
      WriteJoinAttributes(&mat, join_attrs);
      mat.WriteBytes(src.rel.Serialize());
      return mat.TakeBuffer();
    };
    SECMED_ASSIGN_OR_RETURN(
        std::shared_ptr<const PreparedBlob> payload,
        PreparedOrCompute<PreparedBlob>(ctx, round.coeffs_kind, src.name,
                                        material, compute));

    BinaryWriter w;
    w.WriteU8(which);
    w.WriteRaw(payload->bytes);
    bus.Send(src.name, mediator, kMsgPmCoefficients, w.TakeBuffer());
  }

  // Step 4 at the mediator: forward the coefficients to the opposite
  // source, keep the schema blobs for the client.
  Bytes schema_blobs[3];
  obs::Span forward_span =
      obs::StartSpan(ctx->obs, "mediator", "delivery", "pm.forward");
  bool coeff_tags[3] = {};
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgPmCoefficients));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t which,
                            ReadSourceTag(&r, coeff_tags, kMsgPmCoefficients));
    SECMED_ASSIGN_OR_RETURN(schema_blobs[which], r.ReadBytes());
    // The count and the coefficient ciphertexts travel on verbatim.
    SECMED_ASSIGN_OR_RETURN(Bytes rest, r.ReadRaw(r.remaining()));
    BinaryWriter w;
    w.WriteU8(which);
    w.WriteRaw(rest);
    bus.Send(mediator, SourceOf(state, 3 - which).name, kMsgPmExchange,
             w.TakeBuffer());
  }
  forward_span.End();

  // Steps 5/6 at each source: blind evaluation of the opposite polynomial
  // at the own values, payload attached.
  for (uint8_t which = 1; which <= 2; ++which) {
    const Source src = SourceOf(state, which);
    obs::Span span =
        obs::StartSpan(ctx->obs, src.role, "delivery", "pm.evaluate");
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(src.name, kMsgPmExchange));

    // Everything after the source tag as a pure function of the cache
    // material under the supplied randomness: the payload IDs first, then
    // one fork per join value.
    auto compute = [&](RandomSource* prep_rng)
        -> Result<std::shared_ptr<const PreparedBlob>> {
      BinaryReader r(msg.payload);
      SECMED_ASSIGN_OR_RETURN(uint8_t origin, r.ReadU8());
      if (origin != 3 - which) {
        return Status::ProtocolError("bad source tag in pm_exchange");
      }
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

      // Each item is an independent blind Horner evaluation: the round's
      // quadratic hot loop.
      const std::vector<ValueItem> items = ValueItems(tuple_sets[which]);
      // IDs are random, not sequential: the values are grouped in value
      // order here, and sequential IDs would disclose that order to the
      // mediator. Drawn distinct up front (serially, before forking) so a
      // 64-bit collision can never make two payload-table entries shadow
      // each other at the client.
      std::vector<uint64_t> ids;
      if (round.session_keys) {
        SECMED_ASSIGN_OR_RETURN(
            ids, DrawDistinctPayloadIds(items.size(), prep_rng));
      }
      std::vector<std::unique_ptr<RandomSource>> rngs =
          ForkN(prep_rng, items.size());

      std::vector<Bytes> evaluations(items.size());
      std::vector<std::pair<uint64_t, Bytes>> table(  // id -> sealed payload
          round.session_keys ? items.size() : 0);
      std::string loop_label =
          obs::SpanName(src.role, "delivery", "pm.evaluate");
      SECMED_RETURN_IF_ERROR(ParallelForStatus(
          items.size(), threads, [&](size_t i) -> Status {
            RandomSource* rng = rngs[i].get();
            const Bytes fingerprint = ValueFingerprint(*items[i].value);
            const BigInt a = BigInt::FromBytes(fingerprint);

            // Horner: E(P(a)) from encrypted coefficients (c0 + a c1 + ...).
            BigInt acc = enc_coeffs.back();
            for (size_t k = enc_coeffs.size() - 1; k-- > 0;) {
              acc = paillier.Add(paillier.ScalarMul(acc, a), enc_coeffs[k]);
            }

            SECMED_ASSIGN_OR_RETURN(
                Bytes payload,
                round.attach(which, *items[i].value, *items[i].tuples, rng));
            // m = marker || fingerprint || (id || session key | payload).
            Bytes m_bytes;
            m_bytes.push_back(kPayloadMarker);
            Append(&m_bytes, fingerprint);
            if (round.session_keys) {
              WriteId(ids[i], &m_bytes);
              Bytes session_key = rng->Generate(kSessionKeyLen);
              Append(&m_bytes, session_key);
              SECMED_ASSIGN_OR_RETURN(Bytes sealed,
                                      SessionEncrypt(session_key, payload, rng));
              table[i] = {ids[i], std::move(sealed)};
            } else {
              Append(&m_bytes, payload);
            }
            if (m_bytes.size() > paillier.MaxPlaintextBytes()) {
              return Status::InvalidArgument(
                  "payload exceeds the Paillier plaintext space; footnote-2 "
                  "session keys lift the limit");
            }
            // ek = E(rk * P(a) + m) with fresh random rk in [1, n).
            BigInt rk;
            do {
              rk = BigInt::RandomBelow(paillier.n(), rng);
            } while (rk.is_zero());
            BigInt ek = paillier.AddPlain(paillier.ScalarMul(acc, rk),
                                          BigInt::FromBytes(m_bytes));
            evaluations[i] = ek.ToBytes(key_bytes);
            return Status::OK();
          }, ctx->obs, loop_label.c_str()));
      span.AddItems(items.size());
      // Arbitrary order, independent of plaintext order.
      std::sort(evaluations.begin(), evaluations.end());
      std::sort(table.begin(), table.end());

      BinaryWriter w;
      w.WriteU32(static_cast<uint32_t>(evaluations.size()));
      for (const Bytes& e : evaluations) w.WriteBytes(e);
      w.WriteU32(static_cast<uint32_t>(table.size()));
      for (const auto& [id, sealed] : table) {
        // Big-endian so the table order (sorted by random id) carries no
        // structure either.
        Bytes id_bytes;
        WriteId(id, &id_bytes);
        w.WriteRaw(id_bytes);
        w.WriteBytes(sealed);
      }
      return std::make_shared<const PreparedBlob>(w.TakeBuffer());
    };
    auto material = [&] {
      BinaryWriter mat;
      mat.WriteBytes(msg.payload);
      mat.WriteBytes(paillier_key);
      mat.WriteU8(round.session_keys ? 1 : 0);
      WriteJoinAttributes(&mat, join_attrs);
      mat.WriteBytes(src.rel.Serialize());
      return mat.TakeBuffer();
    };
    SECMED_ASSIGN_OR_RETURN(
        std::shared_ptr<const PreparedBlob> payload,
        PreparedOrCompute<PreparedBlob>(ctx, round.evaluate_kind, src.name,
                                        material, compute));

    BinaryWriter w;
    w.WriteU8(which);
    w.WriteRaw(payload->bytes);
    bus.Send(src.name, mediator, kMsgPmEvaluations, w.TakeBuffer());
  }

  // Step 7 at the mediator: ship the n + m encrypted values (and the
  // payload tables) to the client.
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
    bus.Send(mediator, client, round.result_type, w.TakeBuffer());
  }

  // Step 8 at the client: decrypt everything, keep well-formed payloads
  // and match fingerprints across the two sources.
  obs::Span decrypt_span =
      obs::StartSpan(ctx->obs, "client", "post", "decrypt");
  SECMED_ASSIGN_OR_RETURN(Message msg,
                          bus.ReceiveOfType(client, round.result_type));
  BinaryReader r(msg.payload);
  PmOpened out;
  for (Schema* schema : {&out.schema1, &out.schema2}) {
    SECMED_ASSIGN_OR_RETURN(Bytes blob, r.ReadBytes());
    if (round.seal_schema) {
      SECMED_ASSIGN_OR_RETURN(*schema, OpenSchema(ctx, blob));
    }
  }

  struct Opened {
    uint64_t id = 0;  // session-key mode
    Bytes rest;       // the session key or the payload itself
  };
  std::map<Bytes, Opened> opened[3];    // by source tag, by fingerprint
  std::map<uint64_t, Bytes> tables[3];  // id -> sealed payload
  bool eval_tags[3] = {};
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Bytes sub, r.ReadBytes());
    BinaryReader er(sub);
    SECMED_ASSIGN_OR_RETURN(uint8_t which,
                            ReadSourceTag(&er, eval_tags, kMsgPmEvaluations));
    SECMED_ASSIGN_OR_RETURN(uint32_t count, er.ReadU32());
    out.evaluations += count;
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes e_raw, er.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(Bytes m_bytes, ClientPaillierDecrypt(ctx, e_raw));
      // Masked non-members decrypt to random values; real payloads carry
      // the marker byte and a plausible structure.
      if (m_bytes.size() < 1 + kValueHashLen || m_bytes[0] != kPayloadMarker) {
        continue;
      }
      if (round.session_keys && m_bytes.size() != kSessionPayloadLen) {
        continue;
      }
      size_t off = 1 + kValueHashLen;
      Bytes fingerprint(m_bytes.begin() + 1, m_bytes.begin() + off);
      Opened o;
      if (round.session_keys) {
        o.id = ReadId(m_bytes.data() + off);
        off += kIdLen;
      }
      o.rest.assign(m_bytes.begin() + off, m_bytes.end());
      opened[which].emplace(std::move(fingerprint), std::move(o));
    }
    SECMED_ASSIGN_OR_RETURN(uint32_t entries, er.ReadU32());
    for (uint32_t k = 0; k < entries; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes id_bytes, er.ReadRaw(kIdLen));
      SECMED_ASSIGN_OR_RETURN(Bytes sealed, er.ReadBytes());
      // A well-behaved source draws distinct IDs (DrawDistinctPayloadIds);
      // a duplicate here would silently shadow one tuple set, so fail loud.
      if (!tables[which].emplace(ReadId(id_bytes.data()), std::move(sealed))
               .second) {
        return Status::ProtocolError(
            "duplicate payload-table ID in PM evaluations");
      }
    }
  }
  decrypt_span.AddItems(out.evaluations);
  decrypt_span.End();

  obs::Span match_span =
      obs::StartSpan(ctx->obs, "client", "post", "pm.match_fingerprints");
  auto open = [&](uint8_t which, const Opened& o) -> Result<Bytes> {
    if (!round.session_keys) return o.rest;
    auto it = tables[which].find(o.id);
    if (it == tables[which].end()) {
      return Status::ProtocolError("missing payload table entry");
    }
    return SessionDecrypt(o.rest, it->second);
  };
  for (const auto& [fingerprint, o1] : opened[1]) {
    auto it = opened[2].find(fingerprint);
    if (it == opened[2].end()) continue;
    PmMatch m;
    m.fingerprint = fingerprint;
    SECMED_ASSIGN_OR_RETURN(m.payload1, open(1, o1));
    SECMED_ASSIGN_OR_RETURN(m.payload2, open(2, it->second));
    out.matches.push_back(std::move(m));
  }
  return out;
}

}  // namespace secmed
