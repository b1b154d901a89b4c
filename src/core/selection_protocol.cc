#include "core/selection_protocol.h"

#include "crypto/hybrid.h"
#include "das/searchable.h"
#include "relational/sql.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr char kMsgSelQuery[] = "sel_query";
constexpr char kMsgSelPartial[] = "sel_partial_query";
constexpr char kMsgSelEncrypted[] = "sel_encrypted_relation";
constexpr char kMsgSelKeys[] = "sel_search_keys";
constexpr char kMsgSelToken[] = "sel_token";
constexpr char kMsgSelResult[] = "sel_result";
}  // namespace

Result<Relation> SelectionProtocol::Run(const std::string& sql,
                                        ProtocolContext* ctx) {
  if (ctx == nullptr || ctx->client == nullptr || ctx->mediator == nullptr ||
      ctx->bus == nullptr || ctx->rng == nullptr) {
    return Status::InvalidArgument("incomplete protocol context");
  }
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();

  // Client-side planning: parse the query locally and *redact* the WHERE
  // clause before anything leaves the client — the selection constants
  // must never reach the mediator in the clear (it will only ever see the
  // search tokens derived from them).
  std::vector<std::pair<std::string, Value>> equalities;
  std::string redacted_sql;
  {
    SECMED_ASSIGN_OR_RETURN(ParsedQuery query, ParseSql(sql));
    if (!query.joins.empty()) {
      return Status::Unimplemented(
          "selection protocol handles single-table queries");
    }
    if (!query.select_columns.empty() || query.HasAggregates()) {
      return Status::Unimplemented(
          "selection protocol supports SELECT *; project client-side");
    }
    if (!query.where || query.where->kind() == Predicate::Kind::kTrue) {
      return Status::InvalidArgument(
          "selection protocol requires a WHERE condition");
    }
    SECMED_RETURN_IF_ERROR(
        ExtractEqualityConditions(query.where, &equalities));
    redacted_sql = "SELECT * FROM " + query.from.name;
  }

  // Request phase (Listing 1 shape, single datasource): client sends the
  // redacted query with credentials; the mediator localizes the source and
  // forwards the partial query.
  {
    BinaryWriter w;
    w.WriteString(redacted_sql);
    w.WriteU32(static_cast<uint32_t>(ctx->client->credentials().size()));
    for (const Credential& c : ctx->client->credentials()) {
      w.WriteBytes(c.Serialize());
    }
    bus.Send(client, mediator, kMsgSelQuery, w.TakeBuffer());
  }

  Mediator::SelectionQueryPlan plan;
  std::vector<Credential> credentials;
  {
    SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(mediator, kMsgSelQuery));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(std::string received_sql, r.ReadString());
    SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
    for (uint32_t i = 0; i < n; ++i) {
      SECMED_ASSIGN_OR_RETURN(Bytes raw, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(Credential c, Credential::Deserialize(raw));
      credentials.push_back(std::move(c));
    }
    SECMED_ASSIGN_OR_RETURN(plan,
                            ctx->mediator->PlanSelectionQuery(received_sql));
    BinaryWriter w;
    w.WriteString(plan.partial_query);
    w.WriteU32(static_cast<uint32_t>(credentials.size()));
    for (const Credential& c : credentials) w.WriteBytes(c.Serialize());
    bus.Send(mediator, plan.source, kMsgSelPartial, w.TakeBuffer());
  }

  // Datasource: execute under policy, encrypt searchably, send the
  // relation to the mediator and the sealed keys (via the mediator) to the
  // client.
  {
    auto it = ctx->sources.find(plan.source);
    if (it == ctx->sources.end()) {
      return Status::NotFound("datasource " + plan.source + " not in context");
    }
    DataSource* source = it->second;
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(plan.source, kMsgSelPartial));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(std::string partial_sql, r.ReadString());
    SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
    std::vector<Credential> creds;
    for (uint32_t i = 0; i < n; ++i) {
      SECMED_ASSIGN_OR_RETURN(Bytes raw, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(Credential c, Credential::Deserialize(raw));
      creds.push_back(std::move(c));
    }
    SECMED_ASSIGN_OR_RETURN(Relation partial,
                            source->ExecutePartialQuery(partial_sql, creds));
    SECMED_ASSIGN_OR_RETURN(RsaPublicKey client_key,
                            source->ClientKeyFrom(creds));

    SearchKeys keys = GenerateSearchKeys(partial.schema(), ctx->rng);
    SECMED_ASSIGN_OR_RETURN(
        SearchableRelation encrypted,
        SearchableEncrypt(partial, keys, ctx->rng));
    bus.Send(plan.source, mediator, kMsgSelEncrypted, encrypted.Serialize());

    BinaryWriter kw;
    partial.schema().EncodeTo(&kw);
    kw.WriteBytes(keys.Serialize());
    SECMED_ASSIGN_OR_RETURN(Bytes sealed_keys,
                            HybridEncrypt(client_key, kw.buffer(), ctx->rng));
    bus.Send(plan.source, mediator, kMsgSelKeys, sealed_keys);
  }

  // Mediator holds the encrypted relation, forwards the sealed keys.
  SearchableRelation encrypted;
  {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgSelEncrypted));
    SECMED_ASSIGN_OR_RETURN(encrypted,
                            SearchableRelation::Deserialize(msg.payload));
    SECMED_ASSIGN_OR_RETURN(Message keys_msg,
                            bus.ReceiveOfType(mediator, kMsgSelKeys));
    bus.Send(mediator, client, kMsgSelKeys, keys_msg.payload);
  }

  // Client: recover the keys, derive the token from the WHERE condition.
  Schema schema;
  SearchKeys keys;
  {
    SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(client, kMsgSelKeys));
    SECMED_ASSIGN_OR_RETURN(
        Bytes plain, HybridDecrypt(ctx->client->private_key(), msg.payload));
    BinaryReader r(plain);
    SECMED_ASSIGN_OR_RETURN(schema, Schema::DecodeFrom(&r));
    SECMED_ASSIGN_OR_RETURN(Bytes keys_raw, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(keys, SearchKeys::Deserialize(keys_raw));
    SECMED_ASSIGN_OR_RETURN(SelectionToken token,
                            MakeSelectionToken(keys, schema, equalities));
    bus.Send(client, mediator, kMsgSelToken, token.Serialize());
  }

  // Mediator: evaluate the token and return the exact matching rows.
  {
    SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(mediator, kMsgSelToken));
    SECMED_ASSIGN_OR_RETURN(SelectionToken token,
                            SelectionToken::Deserialize(msg.payload));
    SECMED_ASSIGN_OR_RETURN(std::vector<Bytes> rows,
                            EvaluateSelection(encrypted, token));
    BinaryWriter w;
    w.WriteU32(static_cast<uint32_t>(rows.size()));
    for (const Bytes& row : rows) w.WriteBytes(row);
    bus.Send(mediator, client, kMsgSelResult, w.TakeBuffer());
  }

  // Client: open the rows.
  SECMED_ASSIGN_OR_RETURN(Message msg, bus.ReceiveOfType(client, kMsgSelResult));
  BinaryReader r(msg.payload);
  SECMED_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  std::vector<Bytes> sealed;
  sealed.reserve(std::min<size_t>(count, r.remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    SECMED_ASSIGN_OR_RETURN(Bytes row, r.ReadBytes());
    sealed.push_back(std::move(row));
  }
  last_selected_rows_ = sealed.size();
  return OpenSelection(sealed, schema, keys);
}

}  // namespace secmed
