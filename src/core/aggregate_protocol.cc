#include "core/aggregate_protocol.h"

#include "core/matching.h"
#include "core/prepared.h"
#include "crypto/paillier.h"
#include "util/serialize.h"

namespace secmed {

namespace {
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
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();

  if (state.credentials.empty() || state.credentials[0].paillier_key.empty()) {
    return Status::ProtocolError(
        "aggregate protocol requires a homomorphic key in the credentials");
  }
  const Bytes& paillier_key = state.credentials[0].paillier_key;
  SECMED_ASSIGN_OR_RETURN(PaillierPublicKey paillier,
                          PaillierPublicKey::Deserialize(paillier_key));
  const size_t pail_bytes = (paillier.n_squared().BitLength() + 7) / 8;

  // Which source owns the summed column (0 for COUNT), and where.
  uint8_t sum_source = 0;
  size_t sum_col = 0;
  if (spec.fn == AggregateFn::kSum) {
    const std::string base = Schema::BaseName(spec.column);
    const bool in1 = state.r1.schema().HasColumn(base);
    const bool in2 = state.r2.schema().HasColumn(base);
    if (in1 == in2) {
      return Status::InvalidArgument(
          "summed column must belong to exactly one relation: " + spec.column);
    }
    sum_source = in1 ? 1 : 2;
    const Schema& schema = in1 ? state.r1.schema() : state.r2.schema();
    SECMED_ASSIGN_OR_RETURN(sum_col, schema.IndexOf(base));
    if (schema.column(sum_col).type != ValueType::kInt64) {
      return Status::InvalidArgument("SUM requires an integer column");
    }
  }

  // Steps 1-7 of the commutative round; each join value carries E(|Tup_i(a)|)
  // under the client's homomorphic key, followed at the summing source by
  // E(Σ t.col over Tup_i(a)), both from the value's own forked RNG stream.
  CommutativeRound round;
  round.group_bits = group_bits_;
  round.deliver_kind = "agg.deliver";
  BinaryWriter material;
  material.WriteBytes(paillier_key);
  material.WriteU8(sum_source);
  material.WriteU32(static_cast<uint32_t>(sum_col));
  round.payload_material = material.TakeBuffer();
  round.attach = [&](uint8_t which, const Bytes&, const Relation& tuples,
                     RandomSource* rng) -> Result<Bytes> {
    SECMED_ASSIGN_OR_RETURN(
        BigInt enc_count,
        paillier.Encrypt(BigInt(static_cast<uint64_t>(tuples.size())), rng));
    Bytes payload = enc_count.ToBytes(pail_bytes);
    if (which == sum_source) {
      int64_t sum = 0;
      for (const Tuple& t : tuples.tuples()) {
        if (!t[sum_col].is_null()) sum += t[sum_col].as_int();
      }
      SECMED_ASSIGN_OR_RETURN(BigInt m, BigInt::Mod(BigInt(sum), paillier.n()));
      SECMED_ASSIGN_OR_RETURN(BigInt enc_sum, paillier.Encrypt(m, rng));
      Append(&payload, enc_sum.ToBytes(pail_bytes));
    }
    return payload;
  };
  SECMED_ASSIGN_OR_RETURN(CommutativeMatch match,
                          RunCommutativeRound(state, round, ctx));

  // The mediator forwards the aggregate ciphertexts of every match.
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(match.pairs.size()));
  for (const auto& [payload1, payload2] : match.pairs) {
    w.WriteBytes(payload1);
    w.WriteBytes(payload2);
  }
  last_intersection_size_ = match.pairs.size();
  bus.Send(mediator, client, kMsgAggResult, w.TakeBuffer());

  // Client: decrypt the per-value aggregates and combine.
  SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(client, kMsgAggResult));
  BinaryReader r(msg.payload);
  // Decrypts the count (field 0) or the sum (field 1) of a payload that
  // must hold `fields` ciphertexts.
  auto decrypt = [&](const Bytes& payload, size_t fields,
                     size_t field) -> Result<BigInt> {
    if (payload.size() != fields * pail_bytes) {
      return Status::ProtocolError("malformed aggregate payload");
    }
    const auto begin = payload.begin() + field * pail_bytes;
    SECMED_ASSIGN_OR_RETURN(
        Bytes m, ClientPaillierDecrypt(ctx, Bytes(begin, begin + pail_bytes)));
    return BigInt::FromBytes(m);
  };
  SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  int64_t total = 0;
  for (uint32_t k = 0; k < count; ++k) {
    Bytes payloads[3];
    SECMED_ASSIGN_OR_RETURN(payloads[1], r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(payloads[2], r.ReadBytes());
    const size_t fields1 = sum_source == 1 ? 2 : 1;
    const size_t fields2 = sum_source == 2 ? 2 : 1;
    SECMED_ASSIGN_OR_RETURN(BigInt count1, decrypt(payloads[1], fields1, 0));
    SECMED_ASSIGN_OR_RETURN(BigInt count2, decrypt(payloads[2], fields2, 0));
    if (spec.fn == AggregateFn::kCount) {
      total += static_cast<int64_t>(count1.LowU64()) *
               static_cast<int64_t>(count2.LowU64());
      continue;
    }
    SECMED_ASSIGN_OR_RETURN(BigInt sum_m,
                            decrypt(payloads[sum_source], 2, 1));
    SECMED_ASSIGN_OR_RETURN(int64_t sum, DecodeSigned(sum_m, paillier.n()));
    const BigInt& other_count = sum_source == 1 ? count2 : count1;
    total += static_cast<int64_t>(other_count.LowU64()) * sum;
  }
  return total;
}

}  // namespace secmed
