#include "core/intersection_protocol.h"

#include "core/matching.h"
#include "core/prepared.h"
#include "crypto/hybrid.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr char kMsgIxResult[] = "ix_result";

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
}  // namespace

Result<Relation> CommutativeIntersectionProtocol::Run(const std::string& sql,
                                                      ProtocolContext* ctx) {
  SECMED_ASSIGN_OR_RETURN(RequestState state, RunRequestPhase(sql, ctx));
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();

  // Source 1 attaches each join value, hybrid-encrypted for the client;
  // only its side of a match reaches the client, so source 2 attaches
  // nothing.
  CommutativeRound round;
  round.group_bits = group_bits_;
  round.deliver_kind = "ix.deliver";
  round.attach = [&state](uint8_t which, const Bytes& value, const Relation&,
                          RandomSource* rng) -> Result<Bytes> {
    if (which == 2) return Bytes();
    return HybridEncrypt(state.client_key1, value, rng);
  };
  SECMED_ASSIGN_OR_RETURN(CommutativeMatch match,
                          RunCommutativeRound(state, round, ctx));

  // The matched encrypted values are the encrypted intersection.
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(match.pairs.size()));
  for (const auto& [value1, value2] : match.pairs) w.WriteBytes(value1);
  bus.Send(mediator, client, kMsgIxResult, w.TakeBuffer());

  // The client decrypts the common values.
  SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(client, kMsgIxResult));
  BinaryReader r(msg.payload);
  SECMED_ASSIGN_OR_RETURN(Schema schema, IntersectionSchema(state.plan));
  Relation out(schema);
  SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  for (uint32_t k = 0; k < count; ++k) {
    SECMED_ASSIGN_OR_RETURN(Bytes sealed, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes value, ClientHybridDecrypt(ctx, sealed));
    SECMED_ASSIGN_OR_RETURN(Tuple t, DecodeComposite(value, schema.size()));
    SECMED_RETURN_IF_ERROR(out.Append(std::move(t)));
  }
  out.SortCanonically();
  return out;
}

Result<Relation> PmIntersectionProtocol::Run(const std::string& sql,
                                             ProtocolContext* ctx) {
  SECMED_ASSIGN_OR_RETURN(RequestState state, RunRequestPhase(sql, ctx));

  // The polynomial payload is the join value itself, always small enough
  // to ride in the Paillier plaintext.
  PmRound round;
  round.coeffs_kind = "ix.coeffs";
  round.evaluate_kind = "ix.evaluate";
  round.result_type = kMsgIxResult;
  round.attach = [](uint8_t, const Bytes& value, const Relation&,
                    RandomSource*) -> Result<Bytes> { return value; };
  SECMED_ASSIGN_OR_RETURN(PmOpened opened, RunPmRound(state, round, ctx));

  SECMED_ASSIGN_OR_RETURN(Schema schema, IntersectionSchema(state.plan));
  Relation out(schema);
  for (const PmMatch& m : opened.matches) {
    if (ValueFingerprint(m.payload1) != m.fingerprint) {
      return Status::ProtocolError("join value does not match its fingerprint");
    }
    SECMED_ASSIGN_OR_RETURN(Tuple t, DecodeComposite(m.payload1, schema.size()));
    SECMED_RETURN_IF_ERROR(out.Append(std::move(t)));
  }
  out.SortCanonically();
  return out;
}

}  // namespace secmed
