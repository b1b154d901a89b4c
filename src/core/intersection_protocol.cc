#include "core/intersection_protocol.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "crypto/commutative.h"
#include "crypto/group_params.h"
#include "crypto/hybrid.h"
#include "crypto/paillier.h"
#include "crypto/sha256.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr char kMsgIxMessageSet[] = "ix_message_set";
constexpr char kMsgIxExchange[] = "ix_exchange";
constexpr char kMsgIxDouble[] = "ix_double";
constexpr char kMsgIxResult[] = "ix_result";
constexpr char kMsgIxCoefficients[] = "ix_coefficients";
constexpr char kMsgIxEvaluations[] = "ix_evaluations";

constexpr size_t kFpLen = 16;
constexpr uint8_t kMarker = 0x01;

// Distinct non-NULL composite join value encodings of a partial result.
Result<std::vector<Bytes>> CompositeValues(
    const Relation& rel, const std::vector<std::string>& join_attrs) {
  SECMED_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                          JoinColumnIndexes(rel.schema(), join_attrs));
  std::set<Bytes> values;
  for (const Tuple& t : rel.tuples()) {
    Bytes key = CompositeJoinKey(t, idx);
    if (!key.empty()) values.insert(std::move(key));
  }
  return std::vector<Bytes>(values.begin(), values.end());
}

// Output schema: one column per join attribute, types from the global
// schema of table1.
Result<Schema> IntersectionSchema(const JoinQueryPlan& plan) {
  std::vector<Column> cols;
  for (const std::string& attr : plan.join_attributes) {
    SECMED_ASSIGN_OR_RETURN(size_t i, plan.schema1.IndexOf(attr));
    cols.push_back({attr, plan.schema1.column(i).type});
  }
  return Schema(std::move(cols));
}

// Decodes a composite encoding back into a row of join values.
Result<Tuple> DecodeComposite(const Bytes& encoding, size_t arity) {
  BinaryReader r(encoding);
  Tuple t;
  for (size_t i = 0; i < arity; ++i) {
    SECMED_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(&r));
    t.push_back(std::move(v));
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in join value");
  return t;
}

Bytes Fingerprint(const Bytes& encoding) {
  Bytes digest = Sha256::Hash(encoding);
  digest.resize(kFpLen);
  return digest;
}
}  // namespace

Result<Relation> CommutativeIntersectionProtocol::Run(const std::string& sql,
                                                      ProtocolContext* ctx) {
  SECMED_ASSIGN_OR_RETURN(RequestState state, RunRequestPhase(sql, ctx));
  SECMED_ASSIGN_OR_RETURN(QrGroup group, StandardGroup(group_bits_));
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();
  const size_t group_bytes = (group.p().BitLength() + 7) / 8;
  const size_t threads = ResolveThreads(ctx->threads);

  // Each source: encrypt hashed values with a fresh commutative key; the
  // value itself is hybrid-encrypted for the client.
  std::vector<CommutativeKey> keys;
  auto deliver = [&](const std::string& source, const Relation& rel,
                     const RsaPublicKey& client_key, uint8_t which) -> Status {
    const char* role = which == 1 ? "source1" : "source2";
    obs::Span span =
        obs::StartSpan(ctx->obs, role, "delivery", "ix.encrypt_values");
    CommutativeKey key = CommutativeKey::Generate(group, ctx->rng);
    SECMED_ASSIGN_OR_RETURN(std::vector<Bytes> values,
                            CompositeValues(rel, state.plan.join_attributes));
    std::vector<std::unique_ptr<RandomSource>> rngs =
        ForkN(ctx->rng, values.size());
    std::vector<std::pair<Bytes, Bytes>> entries(values.size());
    std::string loop_label = obs::SpanName(role, "delivery", "ix.encrypt_values");
    SECMED_RETURN_IF_ERROR(
        ParallelForStatus(values.size(), threads, [&](size_t i) -> Status {
          const Bytes& v = values[i];
          Bytes cipher = key.Encrypt(group.HashToGroup(v)).ToBytes(group_bytes);
          SECMED_ASSIGN_OR_RETURN(Bytes ev,
                                  HybridEncrypt(client_key, v, rngs[i].get()));
          entries[i] = {std::move(cipher), std::move(ev)};
          return Status::OK();
        }, ctx->obs, loop_label.c_str()));
    span.AddItems(values.size());
    std::sort(entries.begin(), entries.end());
    BinaryWriter w;
    w.WriteU8(which);
    w.WriteU32(static_cast<uint32_t>(entries.size()));
    for (const auto& [c, ev] : entries) {
      w.WriteBytes(c);
      w.WriteBytes(ev);
    }
    bus.Send(source, mediator, kMsgIxMessageSet, w.TakeBuffer());
    keys.push_back(std::move(key));
    return Status::OK();
  };
  SECMED_RETURN_IF_ERROR(
      deliver(state.plan.source1, state.r1, state.client_key1, 1));
  SECMED_RETURN_IF_ERROR(
      deliver(state.plan.source2, state.r2, state.client_key2, 2));

  // Mediator: keep encrypted values, exchange single ciphertexts (with
  // fixed-length IDs, as in the footnote-1 join optimization).
  std::vector<std::vector<std::pair<Bytes, Bytes>>> entries(3);
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgIxMessageSet));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t which, r.ReadU8());
    if (which != 1 && which != 2) {
      return Status::ProtocolError("bad source tag");
    }
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes c, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(Bytes ev, r.ReadBytes());
      entries[which].emplace_back(std::move(c), std::move(ev));
    }
  }
  auto forward = [&](uint8_t from_which, const std::string& to_source) {
    BinaryWriter w;
    w.WriteU8(from_which);
    w.WriteU32(static_cast<uint32_t>(entries[from_which].size()));
    for (size_t id = 0; id < entries[from_which].size(); ++id) {
      w.WriteBytes(entries[from_which][id].first);
      w.WriteU64(id);
    }
    bus.Send(mediator, to_source, kMsgIxExchange, w.TakeBuffer());
  };
  forward(1, state.plan.source2);
  forward(2, state.plan.source1);

  // Sources double-encrypt.
  auto double_at = [&](const std::string& source, size_t key_idx) -> Status {
    const char* role = key_idx == 0 ? "source1" : "source2";
    obs::Span span =
        obs::StartSpan(ctx->obs, role, "delivery", "ix.double_encrypt");
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(source, kMsgIxExchange));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t origin, r.ReadU8());
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    std::vector<Bytes> singles(count);
    std::vector<uint64_t> ids(count);
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(singles[k], r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(ids[k], r.ReadU64());
    }
    std::string loop_label = obs::SpanName(role, "delivery", "ix.double_encrypt");
    std::vector<BigInt> xs(count);
    for (uint32_t k = 0; k < count; ++k) xs[k] = BigInt::FromBytes(singles[k]);
    std::vector<BigInt> enc =
        keys[key_idx].EncryptMany(xs, threads, ctx->obs, loop_label.c_str());
    std::vector<Bytes> doubled(count);
    for (uint32_t k = 0; k < count; ++k) doubled[k] = enc[k].ToBytes(group_bytes);
    span.AddItems(count);
    BinaryWriter w;
    w.WriteU8(origin);
    w.WriteU32(count);
    for (uint32_t k = 0; k < count; ++k) {
      w.WriteBytes(doubled[k]);
      w.WriteU64(ids[k]);
    }
    bus.Send(source, mediator, kMsgIxDouble, w.TakeBuffer());
    return Status::OK();
  };
  SECMED_RETURN_IF_ERROR(double_at(state.plan.source1, 0));
  SECMED_RETURN_IF_ERROR(double_at(state.plan.source2, 1));

  // Mediator matches doubles; the matched source-1 encrypted values are
  // the encrypted intersection.
  std::map<Bytes, std::pair<std::vector<uint64_t>, bool>> matches;
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgIxDouble));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t origin, r.ReadU8());
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes doubled, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
      auto& slot = matches[doubled];
      if (origin == 1) {
        slot.first.push_back(id);
      } else {
        slot.second = true;
      }
    }
  }
  BinaryWriter result_writer;
  std::vector<Bytes> matched_values;
  for (const auto& [doubled, slot] : matches) {
    if (!slot.second) continue;
    for (uint64_t id : slot.first) {
      if (id < entries[1].size()) {
        matched_values.push_back(entries[1][id].second);
      }
    }
  }
  result_writer.WriteU32(static_cast<uint32_t>(matched_values.size()));
  for (const Bytes& ev : matched_values) result_writer.WriteBytes(ev);
  bus.Send(mediator, client, kMsgIxResult, result_writer.TakeBuffer());

  // Client decrypts the common values.
  SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(client, kMsgIxResult));
  BinaryReader r(msg.payload);
  SECMED_ASSIGN_OR_RETURN(Schema schema, IntersectionSchema(state.plan));
  Relation out(schema);
  SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  for (uint32_t k = 0; k < count; ++k) {
    SECMED_ASSIGN_OR_RETURN(Bytes ev, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes v,
                            HybridDecrypt(ctx->client->private_key(), ev));
    SECMED_ASSIGN_OR_RETURN(Tuple t, DecodeComposite(v, schema.size()));
    SECMED_RETURN_IF_ERROR(out.Append(std::move(t)));
  }
  out.SortCanonically();
  return out;
}

Result<Relation> PmIntersectionProtocol::Run(const std::string& sql,
                                             ProtocolContext* ctx) {
  SECMED_ASSIGN_OR_RETURN(RequestState state, RunRequestPhase(sql, ctx));
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();

  if (state.credentials.empty() || state.credentials[0].paillier_key.empty()) {
    return Status::ProtocolError(
        "PM intersection requires a homomorphic key in the credentials");
  }
  SECMED_ASSIGN_OR_RETURN(
      PaillierPublicKey paillier,
      PaillierPublicKey::Deserialize(state.credentials[0].paillier_key));
  const size_t key_bytes = (paillier.n_squared().BitLength() + 7) / 8;
  const size_t threads = ResolveThreads(ctx->threads);

  // Sources: polynomial coefficients from their value fingerprints.
  std::vector<std::vector<Bytes>> values_at(3);
  auto coefficients = [&](const std::string& source, const Relation& rel,
                          uint8_t which) -> Status {
    SECMED_ASSIGN_OR_RETURN(std::vector<Bytes> values,
                            CompositeValues(rel, state.plan.join_attributes));
    values_at[which] = values;
    std::vector<BigInt> roots;
    for (const Bytes& v : values) {
      roots.push_back(BigInt::FromBytes(Fingerprint(v)));
    }
    // P(x) = prod (root - x) over Z_n.
    std::vector<BigInt> coeffs = {BigInt(1)};
    for (const BigInt& root : roots) {
      std::vector<BigInt> next(coeffs.size() + 1);
      for (size_t k = 0; k < coeffs.size(); ++k) {
        next[k] = BigInt::Mod(next[k] + root * coeffs[k], paillier.n()).value();
      }
      for (size_t k = 1; k <= coeffs.size(); ++k) {
        next[k] = BigInt::Mod(next[k] + paillier.n() -
                                  coeffs[k - 1] % paillier.n(),
                              paillier.n())
                      .value();
      }
      coeffs = std::move(next);
    }
    std::vector<std::unique_ptr<RandomSource>> rngs =
        ForkN(ctx->rng, coeffs.size());
    std::vector<BigInt> enc(coeffs.size());
    const char* src_role = which == 1 ? "source1" : "source2";
    std::string loop_label =
        obs::SpanName(src_role, "delivery", "ix.encrypt_coeffs");
    SECMED_RETURN_IF_ERROR(
        ParallelForStatus(coeffs.size(), threads, [&](size_t k) -> Status {
          SECMED_ASSIGN_OR_RETURN(enc[k],
                                  paillier.Encrypt(coeffs[k], rngs[k].get()));
          return Status::OK();
        }, ctx->obs, loop_label.c_str()));
    BinaryWriter w;
    w.WriteU8(which);
    w.WriteU32(static_cast<uint32_t>(coeffs.size()));
    for (const BigInt& e : enc) w.WriteBytes(e.ToBytes(key_bytes));
    bus.Send(source, mediator, kMsgIxCoefficients, w.TakeBuffer());
    return Status::OK();
  };
  SECMED_RETURN_IF_ERROR(coefficients(state.plan.source1, state.r1, 1));
  SECMED_RETURN_IF_ERROR(coefficients(state.plan.source2, state.r2, 2));

  // Mediator forwards to the opposite source.
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgIxCoefficients));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t which, r.ReadU8());
    const std::string& opposite =
        which == 1 ? state.plan.source2 : state.plan.source1;
    BinaryWriter w;
    w.WriteU8(which);
    SECMED_ASSIGN_OR_RETURN(Bytes rest, r.ReadRaw(r.remaining()));
    w.WriteRaw(rest);
    bus.Send(mediator, opposite, kMsgIxExchange, w.TakeBuffer());
  }

  // Sources: blind evaluation, payload = the value encoding itself.
  auto evaluate = [&](const std::string& source, uint8_t which) -> Status {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(source, kMsgIxExchange));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t origin, r.ReadU8());
    (void)origin;
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    std::vector<BigInt> enc_coeffs;
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes raw, r.ReadBytes());
      enc_coeffs.push_back(BigInt::FromBytes(raw));
    }
    const std::vector<Bytes>& values = values_at[which];
    std::vector<std::unique_ptr<RandomSource>> rngs =
        ForkN(ctx->rng, values.size());
    std::vector<Bytes> evaluations(values.size());
    std::string loop_label = obs::SpanName(
        which == 1 ? "source1" : "source2", "delivery", "ix.evaluate");
    SECMED_RETURN_IF_ERROR(
        ParallelForStatus(values.size(), threads, [&](size_t i) -> Status {
          const Bytes& v = values[i];
          const Bytes fp = Fingerprint(v);
          const BigInt a = BigInt::FromBytes(fp);
          BigInt acc = enc_coeffs.back();
          for (size_t k = enc_coeffs.size() - 1; k-- > 0;) {
            acc = paillier.Add(paillier.ScalarMul(acc, a), enc_coeffs[k]);
          }
          Bytes m_bytes;
          m_bytes.push_back(kMarker);
          Append(&m_bytes, fp);
          Append(&m_bytes, v);
          if (m_bytes.size() > paillier.MaxPlaintextBytes()) {
            return Status::InvalidArgument("join value too large for payload");
          }
          BigInt rk;
          do {
            rk = BigInt::RandomBelow(paillier.n(), rngs[i].get());
          } while (rk.is_zero());
          BigInt ek = paillier.AddPlain(paillier.ScalarMul(acc, rk),
                                        BigInt::FromBytes(m_bytes));
          evaluations[i] = ek.ToBytes(key_bytes);
          return Status::OK();
        }, ctx->obs, loop_label.c_str()));
    std::sort(evaluations.begin(), evaluations.end());
    BinaryWriter w;
    w.WriteU8(which);
    w.WriteU32(static_cast<uint32_t>(evaluations.size()));
    for (const Bytes& e : evaluations) w.WriteBytes(e);
    bus.Send(source, mediator, kMsgIxEvaluations, w.TakeBuffer());
    return Status::OK();
  };
  SECMED_RETURN_IF_ERROR(evaluate(state.plan.source1, 1));
  SECMED_RETURN_IF_ERROR(evaluate(state.plan.source2, 2));

  // Mediator ships all evaluations to the client.
  {
    BinaryWriter w;
    for (int i = 0; i < 2; ++i) {
      SECMED_ASSIGN_OR_RETURN(Message msg,
                              bus.ReceiveOfType(mediator, kMsgIxEvaluations));
      w.WriteBytes(msg.payload);
    }
    bus.Send(mediator, client, kMsgIxResult, w.TakeBuffer());
  }

  // Client: decrypt, keep well-formed payloads, match fingerprints.
  SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(client, kMsgIxResult));
  BinaryReader r(msg.payload);
  std::map<Bytes, Bytes> opened[3];  // fingerprint -> value encoding
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Bytes sub, r.ReadBytes());
    BinaryReader er(sub);
    SECMED_ASSIGN_OR_RETURN(uint8_t which, er.ReadU8());
    if (which != 1 && which != 2) {
      return Status::ProtocolError("bad source tag in evaluations");
    }
    SECMED_ASSIGN_OR_RETURN(uint32_t count, er.ReadU32());
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes raw, er.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(
          BigInt m,
          ctx->client->paillier_private_key().Decrypt(BigInt::FromBytes(raw)));
      Bytes mb = m.ToBytes();
      if (mb.size() <= 1 + kFpLen || mb[0] != kMarker) continue;
      Bytes fp(mb.begin() + 1, mb.begin() + 1 + kFpLen);
      Bytes value(mb.begin() + 1 + kFpLen, mb.end());
      if (Fingerprint(value) != fp) continue;  // random-garbage guard
      opened[which].emplace(std::move(fp), std::move(value));
    }
  }
  SECMED_ASSIGN_OR_RETURN(Schema schema, IntersectionSchema(state.plan));
  Relation out(schema);
  for (const auto& [fp, value] : opened[1]) {
    if (opened[2].count(fp) == 0) continue;
    SECMED_ASSIGN_OR_RETURN(Tuple t, DecodeComposite(value, schema.size()));
    SECMED_RETURN_IF_ERROR(out.Append(std::move(t)));
  }
  out.SortCanonically();
  return out;
}

}  // namespace secmed
