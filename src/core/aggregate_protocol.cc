#include "core/aggregate_protocol.h"

#include <algorithm>
#include <map>
#include <memory>

#include "crypto/commutative.h"
#include "crypto/group_params.h"
#include "crypto/paillier.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr char kMsgAggMessageSet[] = "agg_message_set";
constexpr char kMsgAggExchange[] = "agg_exchange";
constexpr char kMsgAggDouble[] = "agg_double";
constexpr char kMsgAggResult[] = "agg_result";

// Maps a mod-n residue back into the signed 64-bit range (sums of int64
// cells stay far below n/2 in magnitude).
Result<int64_t> DecodeSigned(const BigInt& m, const BigInt& n) {
  BigInt half = n >> 1;
  BigInt v = m;
  bool negative = false;
  if (v > half) {
    v = n - v;
    negative = true;
  }
  if (v.BitLength() > 63) {
    return Status::OutOfRange("aggregate exceeds 64-bit range");
  }
  int64_t out = static_cast<int64_t>(v.LowU64());
  return negative ? -out : out;
}
}  // namespace

Result<int64_t> AggregateJoinProtocol::Run(const std::string& sql,
                                           const JoinAggregateSpec& spec,
                                           ProtocolContext* ctx) {
  if (spec.fn != AggregateFn::kCount && spec.fn != AggregateFn::kSum) {
    return Status::Unimplemented(
        "aggregate-join protocol supports COUNT and SUM");
  }
  SECMED_ASSIGN_OR_RETURN(RequestState state, RunRequestPhase(sql, ctx));
  SECMED_ASSIGN_OR_RETURN(QrGroup group, StandardGroup(group_bits_));
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();
  const size_t group_bytes = (group.p().BitLength() + 7) / 8;

  if (state.credentials.empty() || state.credentials[0].paillier_key.empty()) {
    return Status::ProtocolError(
        "aggregate protocol requires a homomorphic key in the credentials");
  }
  SECMED_ASSIGN_OR_RETURN(
      PaillierPublicKey paillier,
      PaillierPublicKey::Deserialize(state.credentials[0].paillier_key));
  const size_t pail_bytes = (paillier.n_squared().BitLength() + 7) / 8;
  const size_t threads = ResolveThreads(ctx->threads);

  // Which source owns the summed column?
  bool sum_at_source1 = false;
  if (spec.fn == AggregateFn::kSum) {
    const std::string base = Schema::BaseName(spec.column);
    const bool in1 = state.r1.schema().HasColumn(base);
    const bool in2 = state.r2.schema().HasColumn(base);
    if (in1 == in2) {
      return Status::InvalidArgument(
          "summed column must belong to exactly one relation: " + spec.column);
    }
    sum_at_source1 = in1;
  }

  // Each source: commutative matching entries with Paillier aggregate
  // payloads <f_ei(h(a)), E(count_i(a)) [, E(sum_i(a))]>.
  std::vector<CommutativeKey> keys;
  auto deliver = [&](const std::string& source, const Relation& rel,
                     bool carries_sum, uint8_t which) -> Status {
    CommutativeKey key = CommutativeKey::Generate(group, ctx->rng);
    SECMED_ASSIGN_OR_RETURN(
        std::vector<size_t> join_idx,
        JoinColumnIndexes(rel.schema(), state.plan.join_attributes));
    std::map<Bytes, Relation> tuple_sets =
        GroupTuplesByJoinValue(rel, join_idx);

    size_t sum_col = 0;
    if (carries_sum) {
      SECMED_ASSIGN_OR_RETURN(sum_col, rel.schema().IndexOf(
                                           Schema::BaseName(spec.column)));
      if (rel.schema().column(sum_col).type != ValueType::kInt64) {
        return Status::InvalidArgument("SUM requires an integer column");
      }
    }

    struct Entry {
      Bytes cipher;
      Bytes enc_count;
      Bytes enc_sum;  // empty unless carries_sum
    };
    struct Item {
      const Bytes* value_enc;
      const Relation* tuples;
    };
    std::vector<Item> items;
    items.reserve(tuple_sets.size());
    for (const auto& [value_enc, tuples] : tuple_sets) {
      items.push_back({&value_enc, &tuples});
    }
    std::vector<std::unique_ptr<RandomSource>> rngs =
        ForkN(ctx->rng, items.size());
    std::vector<Entry> entries(items.size());
    const char* src_role = which == 1 ? "source1" : "source2";
    std::string loop_label =
        obs::SpanName(src_role, "delivery", "agg.encrypt_sets");
    // Each item encrypts its count and then (optionally) its sum, both
    // from the item's own forked RNG stream.
    SECMED_RETURN_IF_ERROR(
        ParallelForStatus(items.size(), threads, [&](size_t i) -> Status {
          Entry& e = entries[i];
          e.cipher = key.Encrypt(group.HashToGroup(*items[i].value_enc))
                         .ToBytes(group_bytes);
          BigInt count(static_cast<uint64_t>(items[i].tuples->size()));
          SECMED_ASSIGN_OR_RETURN(BigInt enc_count,
                                  paillier.Encrypt(count, rngs[i].get()));
          e.enc_count = enc_count.ToBytes(pail_bytes);
          if (carries_sum) {
            int64_t sum = 0;
            for (const Tuple& t : items[i].tuples->tuples()) {
              if (!t[sum_col].is_null()) sum += t[sum_col].as_int();
            }
            SECMED_ASSIGN_OR_RETURN(BigInt m,
                                    BigInt::Mod(BigInt(sum), paillier.n()));
            SECMED_ASSIGN_OR_RETURN(BigInt enc_sum,
                                    paillier.Encrypt(m, rngs[i].get()));
            e.enc_sum = enc_sum.ToBytes(pail_bytes);
          }
          return Status::OK();
        }, ctx->obs, loop_label.c_str()));
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.cipher < b.cipher; });

    BinaryWriter w;
    w.WriteU8(which);
    w.WriteU8(carries_sum ? 1 : 0);
    w.WriteU32(static_cast<uint32_t>(entries.size()));
    for (const Entry& e : entries) {
      w.WriteBytes(e.cipher);
      w.WriteBytes(e.enc_count);
      w.WriteBytes(e.enc_sum);
    }
    bus.Send(source, mediator, kMsgAggMessageSet, w.TakeBuffer());
    keys.push_back(std::move(key));
    return Status::OK();
  };
  SECMED_RETURN_IF_ERROR(deliver(state.plan.source1, state.r1,
                                 spec.fn == AggregateFn::kSum && sum_at_source1,
                                 1));
  SECMED_RETURN_IF_ERROR(
      deliver(state.plan.source2, state.r2,
              spec.fn == AggregateFn::kSum && !sum_at_source1, 2));

  // Mediator: keep the aggregate ciphertexts, exchange the hash parts.
  struct MedEntry {
    Bytes cipher;
    Bytes enc_count;
    Bytes enc_sum;
  };
  std::vector<std::vector<MedEntry>> med(3);
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgAggMessageSet));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t which, r.ReadU8());
    if (which != 1 && which != 2) return Status::ProtocolError("bad tag");
    SECMED_ASSIGN_OR_RETURN(uint8_t carries_sum, r.ReadU8());
    (void)carries_sum;
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    for (uint32_t k = 0; k < count; ++k) {
      MedEntry e;
      SECMED_ASSIGN_OR_RETURN(e.cipher, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(e.enc_count, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(e.enc_sum, r.ReadBytes());
      med[which].push_back(std::move(e));
    }
  }
  auto forward = [&](uint8_t from_which, const std::string& to_source) {
    BinaryWriter w;
    w.WriteU8(from_which);
    w.WriteU32(static_cast<uint32_t>(med[from_which].size()));
    for (size_t id = 0; id < med[from_which].size(); ++id) {
      w.WriteBytes(med[from_which][id].cipher);
      w.WriteU64(id);
    }
    bus.Send(mediator, to_source, kMsgAggExchange, w.TakeBuffer());
  };
  forward(1, state.plan.source2);
  forward(2, state.plan.source1);

  // Sources double-encrypt.
  auto double_at = [&](const std::string& source, size_t key_idx) -> Status {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(source, kMsgAggExchange));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t origin, r.ReadU8());
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    std::vector<Bytes> singles(count);
    std::vector<uint64_t> ids(count);
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(singles[k], r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(ids[k], r.ReadU64());
    }
    std::string loop_label = obs::SpanName(
        key_idx == 0 ? "source1" : "source2", "delivery", "agg.double_encrypt");
    std::vector<BigInt> xs(count);
    for (uint32_t k = 0; k < count; ++k) xs[k] = BigInt::FromBytes(singles[k]);
    std::vector<BigInt> enc =
        keys[key_idx].EncryptMany(xs, threads, ctx->obs, loop_label.c_str());
    std::vector<Bytes> doubled(count);
    for (uint32_t k = 0; k < count; ++k) doubled[k] = enc[k].ToBytes(group_bytes);
    BinaryWriter w;
    w.WriteU8(origin);
    w.WriteU32(count);
    for (uint32_t k = 0; k < count; ++k) {
      w.WriteBytes(doubled[k]);
      w.WriteU64(ids[k]);
    }
    bus.Send(source, mediator, kMsgAggDouble, w.TakeBuffer());
    return Status::OK();
  };
  SECMED_RETURN_IF_ERROR(double_at(state.plan.source1, 0));
  SECMED_RETURN_IF_ERROR(double_at(state.plan.source2, 1));

  // Mediator: match doubles; per matched value forward the two aggregate
  // ciphertext pairs to the client.
  std::map<Bytes, std::pair<std::vector<uint64_t>, std::vector<uint64_t>>>
      matches;
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgAggDouble));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t origin, r.ReadU8());
    SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    for (uint32_t k = 0; k < count; ++k) {
      SECMED_ASSIGN_OR_RETURN(Bytes doubled, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
      auto& slot = matches[doubled];
      (origin == 1 ? slot.first : slot.second).push_back(id);
    }
  }
  BinaryWriter result_writer;
  uint32_t matched = 0;
  BinaryWriter rows;
  for (const auto& [doubled, slot] : matches) {
    for (uint64_t id1 : slot.first) {
      for (uint64_t id2 : slot.second) {
        if (id1 >= med[1].size() || id2 >= med[2].size()) {
          return Status::ProtocolError("aggregate ID out of range");
        }
        rows.WriteBytes(med[1][id1].enc_count);
        rows.WriteBytes(med[1][id1].enc_sum);
        rows.WriteBytes(med[2][id2].enc_count);
        rows.WriteBytes(med[2][id2].enc_sum);
        ++matched;
      }
    }
  }
  last_intersection_size_ = matched;
  result_writer.WriteU32(matched);
  result_writer.WriteRaw(rows.buffer());
  bus.Send(mediator, client, kMsgAggResult, result_writer.TakeBuffer());

  // Client: decrypt the per-value aggregates and combine.
  SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(client, kMsgAggResult));
  BinaryReader r(msg.payload);
  SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  const PaillierPrivateKey& sk = ctx->client->paillier_private_key();
  int64_t total = 0;
  for (uint32_t k = 0; k < count; ++k) {
    SECMED_ASSIGN_OR_RETURN(Bytes c1, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes s1, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes c2, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes s2, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(BigInt count1, sk.Decrypt(BigInt::FromBytes(c1)));
    SECMED_ASSIGN_OR_RETURN(BigInt count2, sk.Decrypt(BigInt::FromBytes(c2)));
    if (spec.fn == AggregateFn::kCount) {
      total += static_cast<int64_t>(count1.LowU64()) *
               static_cast<int64_t>(count2.LowU64());
      continue;
    }
    const Bytes& sum_raw = sum_at_source1 ? s1 : s2;
    const BigInt other_count = sum_at_source1 ? count2 : count1;
    SECMED_ASSIGN_OR_RETURN(BigInt sum_m,
                            sk.Decrypt(BigInt::FromBytes(sum_raw)));
    SECMED_ASSIGN_OR_RETURN(int64_t sum, DecodeSigned(sum_m, paillier.n()));
    total += static_cast<int64_t>(other_count.LowU64()) * sum;
  }
  return total;
}

}  // namespace secmed
