#include "core/commutative_protocol.h"

#include <set>

#include "core/matching.h"
#include "core/prepared.h"
#include "crypto/hybrid.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr char kMsgCommResult[] = "comm_result";

// The join value that every tuple of a delivered tuple set carries. The
// sources seal the sets, so a mismatch can only come from the mediator's
// pairing; a set that is empty or mixes values cannot come from a source.
Result<Bytes> SharedJoinValue(const Relation& tuples,
                              const std::vector<size_t>& join_columns) {
  Bytes value;
  for (const Tuple& t : tuples.tuples()) {
    Bytes key = CompositeJoinKey(t, join_columns);
    if (key.empty() || (!value.empty() && key != value)) {
      return Status::ProtocolError(
          "tuple set in comm_result mixes join values");
    }
    value = std::move(key);
  }
  if (value.empty()) {
    return Status::ProtocolError("empty tuple set in comm_result");
  }
  return value;
}
}  // namespace

Result<Relation> CommutativeJoinProtocol::Run(const std::string& sql,
                                              ProtocolContext* ctx) {
  SECMED_ASSIGN_OR_RETURN(RequestState state, RunRequestPhase(sql, ctx));
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();

  // Steps 1-7: the commutative round; each source hybrid-encrypts its
  // tuple set Tup_i(a) for the client as the payload of join value a.
  CommutativeRound round;
  round.group_bits = options_.group_bits;
  round.forward_payloads = options_.forward_payloads;
  round.seal_schema = true;
  round.deliver_kind = "comm.deliver";
  round.attach = [&state](uint8_t which, const Bytes&, const Relation& tuples,
                          RandomSource* rng) {
    return HybridEncrypt(which == 1 ? state.client_key1 : state.client_key2,
                         tuples.Serialize(), rng);
  };
  SECMED_ASSIGN_OR_RETURN(CommutativeMatch match,
                          RunCommutativeRound(state, round, ctx));

  // The matched encrypted tuple-set pairs are the encrypted global result.
  BinaryWriter w;
  w.WriteBytes(match.schema1);
  w.WriteBytes(match.schema2);
  w.WriteU32(static_cast<uint32_t>(match.pairs.size()));
  for (const auto& [e1, e2] : match.pairs) {
    w.WriteBytes(e1);
    w.WriteBytes(e2);
  }
  last_intersection_size_ = match.pairs.size();
  bus.Send(mediator, client, kMsgCommResult, w.TakeBuffer());

  // Step 8 at the client: decrypt the tuple-set pairs and construct the
  // join tuples (cross product of each corresponding pair). The client
  // checks the mediator's pairing: both sets of a pair must carry the same
  // join value, and no set may appear in two pairs.
  obs::Span decrypt_span = obs::StartSpan(ctx->obs, "client", "post", "decrypt");
  SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(client, kMsgCommResult));
  BinaryReader r(msg.payload);
  SECMED_ASSIGN_OR_RETURN(Bytes blob1, r.ReadBytes());
  SECMED_ASSIGN_OR_RETURN(Bytes blob2, r.ReadBytes());
  SECMED_ASSIGN_OR_RETURN(Schema schema1, OpenSchema(ctx, blob1));
  SECMED_ASSIGN_OR_RETURN(Schema schema2, OpenSchema(ctx, blob2));
  SECMED_ASSIGN_OR_RETURN(
      Schema joined_schema,
      JoinedSchema(schema1, schema2, state.plan.join_attributes));
  SECMED_ASSIGN_OR_RETURN(
      std::vector<size_t> j1,
      JoinColumnIndexes(schema1, state.plan.join_attributes));
  SECMED_ASSIGN_OR_RETURN(
      std::vector<size_t> j2,
      JoinColumnIndexes(schema2, state.plan.join_attributes));

  Relation result(joined_schema);
  std::set<Bytes> seen1, seen2;
  SECMED_ASSIGN_OR_RETURN(uint32_t pairs, r.ReadU32());
  for (uint32_t k = 0; k < pairs; ++k) {
    SECMED_ASSIGN_OR_RETURN(Bytes e1, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes e2, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes p1, ClientHybridDecrypt(ctx, e1));
    SECMED_ASSIGN_OR_RETURN(Bytes p2, ClientHybridDecrypt(ctx, e2));
    if (!seen1.insert(std::move(e1)).second ||
        !seen2.insert(std::move(e2)).second) {
      return Status::ProtocolError("tuple set in two pairs of comm_result");
    }
    SECMED_ASSIGN_OR_RETURN(Relation tup1, Relation::Deserialize(p1));
    SECMED_ASSIGN_OR_RETURN(Relation tup2, Relation::Deserialize(p2));
    SECMED_ASSIGN_OR_RETURN(Bytes value1, SharedJoinValue(tup1, j1));
    SECMED_ASSIGN_OR_RETURN(Bytes value2, SharedJoinValue(tup2, j2));
    if (value1 != value2) {
      return Status::ProtocolError(
          "comm_result pairs tuple sets with different join values");
    }
    AppendJoinedCrossProduct(tup1, tup2, j2, &result);
  }
  decrypt_span.AddItems(pairs);
  return result;
}

}  // namespace secmed
