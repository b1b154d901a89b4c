#include "core/protocol.h"

#include "core/prepared.h"
#include "crypto/hybrid.h"
#include "util/serialize.h"

namespace secmed {

namespace {
Bytes EncodeCredentials(const std::vector<Credential>& credentials) {
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(credentials.size()));
  for (const Credential& c : credentials) w.WriteBytes(c.Serialize());
  return w.TakeBuffer();
}

Result<std::vector<Credential>> DecodeCredentials(BinaryReader* r) {
  SECMED_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
  std::vector<Credential> out;
  out.reserve(std::min<size_t>(n, r->remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    SECMED_ASSIGN_OR_RETURN(Bytes raw, r->ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Credential c, Credential::Deserialize(raw));
    out.push_back(std::move(c));
  }
  return out;
}
}  // namespace

Result<RequestState> RunRequestPhase(const std::string& sql,
                                     ProtocolContext* ctx) {
  if (ctx == nullptr || ctx->client == nullptr || ctx->mediator == nullptr ||
      ctx->bus == nullptr || ctx->rng == nullptr) {
    return Status::InvalidArgument("incomplete protocol context");
  }
  Transport& bus = *ctx->bus;

  // Step 1: client -> mediator: query q with credential set CR.
  {
    obs::Span span =
        obs::StartSpan(ctx->obs, "client", "request", "submit_query");
    BinaryWriter w;
    w.WriteString(sql);
    w.WriteRaw(EncodeCredentials(ctx->client->credentials()));
    bus.Send(ctx->client->name(), ctx->mediator->name(), kMsgGlobalQuery,
             w.TakeBuffer());
  }

  // Step 2: mediator localizes S1, S2 and decomposes q.
  RequestState state;
  {
    obs::Span span = obs::StartSpan(ctx->obs, "mediator", "request", "plan");
    SECMED_ASSIGN_OR_RETURN(
        Message msg, bus.ReceiveOfType(ctx->mediator->name(), kMsgGlobalQuery));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(std::string received_sql, r.ReadString());
    SECMED_ASSIGN_OR_RETURN(state.credentials, DecodeCredentials(&r));
    SECMED_ASSIGN_OR_RETURN(state.plan,
                            ctx->mediator->PlanJoinQuery(received_sql));

    // Step 3: mediator -> Si: <qi, CRi, Ai>.
    auto send_partial = [&](const std::string& source,
                            const std::string& partial_sql) {
      BinaryWriter w;
      w.WriteString(partial_sql);
      w.WriteString(state.plan.join_attribute);
      w.WriteRaw(EncodeCredentials(state.credentials));
      bus.Send(ctx->mediator->name(), source, kMsgPartialQuery, w.TakeBuffer());
    };
    send_partial(state.plan.source1, state.plan.partial_query1);
    send_partial(state.plan.source2, state.plan.partial_query2);
  }

  // Step 4: each Si checks credentials and executes qi. Span names use
  // the *role* (source1/source2), not the deployment party name, so the
  // set of span names is the same for every testbed naming.
  auto execute_at = [&](const std::string& source_name, const char* role,
                        Relation* result, RsaPublicKey* client_key) -> Status {
    obs::Span span = obs::StartSpan(ctx->obs, role, "request",
                                    "execute_partial");
    auto it = ctx->sources.find(source_name);
    if (it == ctx->sources.end()) {
      return Status::NotFound("datasource " + source_name + " not in context");
    }
    DataSource* source = it->second;
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(source_name, kMsgPartialQuery));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(std::string partial_sql, r.ReadString());
    SECMED_ASSIGN_OR_RETURN(std::string join_attr, r.ReadString());
    SECMED_ASSIGN_OR_RETURN(std::vector<Credential> creds,
                            DecodeCredentials(&r));
    (void)join_attr;
    SECMED_ASSIGN_OR_RETURN(*result,
                            source->ExecutePartialQuery(partial_sql, creds));
    SECMED_ASSIGN_OR_RETURN(*client_key, source->ClientKeyFrom(creds));
    span.AddItems(result->size());
    return Status::OK();
  };
  SECMED_RETURN_IF_ERROR(execute_at(state.plan.source1, "source1", &state.r1,
                                    &state.client_key1));
  SECMED_RETURN_IF_ERROR(execute_at(state.plan.source2, "source2", &state.r2,
                                    &state.client_key2));
  return state;
}

Result<Schema> JoinedSchema(const Schema& schema1, const Schema& schema2,
                            const std::vector<std::string>& join_attributes) {
  SECMED_ASSIGN_OR_RETURN(std::vector<size_t> j2,
                          JoinColumnIndexes(schema2, join_attributes));
  std::vector<bool> drop(schema2.size(), false);
  for (size_t i : j2) drop[i] = true;
  std::vector<Column> cols = schema1.columns();
  for (size_t i = 0; i < schema2.size(); ++i) {
    if (!drop[i]) cols.push_back(schema2.column(i));
  }
  return Schema(std::move(cols));
}

Result<Schema> JoinedSchema(const Schema& schema1, const Schema& schema2,
                            const std::string& join_attribute) {
  return JoinedSchema(schema1, schema2,
                      std::vector<std::string>{join_attribute});
}

Result<std::vector<size_t>> JoinColumnIndexes(
    const Schema& schema, const std::vector<std::string>& join_attributes) {
  std::vector<size_t> out;
  out.reserve(join_attributes.size());
  for (const std::string& attr : join_attributes) {
    SECMED_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(attr));
    out.push_back(idx);
  }
  return out;
}

Bytes CompositeJoinKey(const Tuple& tuple, const std::vector<size_t>& indexes) {
  Bytes key;
  for (size_t i : indexes) {
    if (tuple[i].is_null()) return Bytes();
    Append(&key, tuple[i].Encode());
  }
  return key;
}

std::map<Bytes, Relation> GroupTuplesByJoinValue(
    const Relation& rel, const std::vector<size_t>& indexes) {
  std::map<Bytes, Relation> groups;
  for (const Tuple& t : rel.tuples()) {
    Bytes key = CompositeJoinKey(t, indexes);
    if (key.empty()) continue;  // NULL never joins
    auto [it, inserted] = groups.try_emplace(std::move(key), rel.schema());
    it->second.AppendUnchecked(t);
  }
  return groups;
}

Result<Bytes> SealSchema(const RsaPublicKey& client_key, const Schema& schema,
                         RandomSource* rng) {
  BinaryWriter w;
  schema.EncodeTo(&w);
  return HybridEncrypt(client_key, w.TakeBuffer(), rng);
}

Result<Schema> OpenSchema(ProtocolContext* ctx, const Bytes& blob) {
  SECMED_ASSIGN_OR_RETURN(Bytes plain, ClientHybridDecrypt(ctx, blob));
  BinaryReader r(plain);
  return Schema::DecodeFrom(&r);
}

Result<uint8_t> ReadSourceTag(BinaryReader* r, bool (&seen)[3],
                              const char* kind) {
  SECMED_ASSIGN_OR_RETURN(uint8_t tag, r->ReadU8());
  if (tag != 1 && tag != 2) {
    return Status::ProtocolError(std::string("bad source tag in ") + kind);
  }
  if (seen[tag]) {
    return Status::ProtocolError(std::string("repeated source tag in ") +
                                 kind);
  }
  seen[tag] = true;
  return tag;
}

void AppendJoinedCrossProduct(const Relation& tup1, const Relation& tup2,
                              const std::vector<size_t>& j2, Relation* out) {
  std::vector<bool> drop(tup2.schema().size(), false);
  for (size_t i : j2) drop[i] = true;
  for (const Tuple& t1 : tup1.tuples()) {
    for (const Tuple& t2 : tup2.tuples()) {
      Tuple t = t1;
      for (size_t i = 0; i < t2.size(); ++i) {
        if (!drop[i]) t.push_back(t2[i]);
      }
      out->AppendUnchecked(std::move(t));
    }
  }
}

}  // namespace secmed
