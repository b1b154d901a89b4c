#include "core/das_protocol.h"

#include "core/prepared.h"
#include "crypto/hybrid.h"
#include "das/das_relation.h"
#include "das/index_table.h"
#include "das/query_translator.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace secmed {

namespace {
constexpr char kMsgDasEncryptedResult[] = "das_encrypted_result";
constexpr char kMsgDasIndexTable[] = "das_index_table";
constexpr char kMsgDasServerQuery[] = "das_server_query";
constexpr char kMsgDasServerResult[] = "das_server_result";
// Source setting: index tables travel source-to-source over a secure
// channel (e.g. TLS) that the mediator does not observe.
constexpr char kMsgDasSourceItables[] = "das_source_itables";

// What a datasource ships for the client: the index tables (one per join
// attribute, client setting only) and the partial-result schema.
Bytes EncodeItableBlob(const std::vector<IndexTable>& itables,
                       const Schema& schema) {
  BinaryWriter w;
  schema.EncodeTo(&w);
  w.WriteU32(static_cast<uint32_t>(itables.size()));
  for (const IndexTable& it : itables) w.WriteBytes(it.Serialize());
  return w.TakeBuffer();
}

Status DecodeItableBlob(const Bytes& blob, Schema* schema,
                        std::vector<IndexTable>* itables) {
  BinaryReader r(blob);
  SECMED_ASSIGN_OR_RETURN(*schema, Schema::DecodeFrom(&r));
  SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  itables->clear();
  for (uint32_t i = 0; i < n; ++i) {
    SECMED_ASSIGN_OR_RETURN(Bytes raw, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(IndexTable it, IndexTable::Deserialize(raw));
    itables->push_back(std::move(it));
  }
  return Status::OK();
}

// Per-source delivery state computed by BuildSourceDelivery.
struct SourceDelivery {
  DasRelation encrypted;
  std::vector<IndexTable> itables;
  Bytes sealed_blob;  // itables+schema (client setting) or schema only
};

/// Cached delivery state of one source: salted index tables, the
/// DAS-encrypted relation and the sealed blob, all derived from the
/// entry's prepare RNG. The relation's name field is stamped per send,
/// so sessions copy out of the entry instead of aliasing it.
struct PreparedDasDelivery : PreparedValue {
  SourceDelivery delivery;
  size_t approx_bytes = 0;

  size_t ByteSize() const override { return approx_bytes; }
};
}  // namespace

const char* DasTranslatorSettingToString(DasTranslatorSetting s) {
  switch (s) {
    case DasTranslatorSetting::kClient: return "client";
    case DasTranslatorSetting::kSource: return "source";
    case DasTranslatorSetting::kMediator: return "mediator";
  }
  return "?";
}

Result<Relation> DasJoinProtocol::Run(const std::string& sql,
                                      ProtocolContext* ctx) {
  SECMED_ASSIGN_OR_RETURN(RequestState state, RunRequestPhase(sql, ctx));
  Transport& bus = *ctx->bus;
  const std::string& mediator = ctx->mediator->name();
  const std::string& client = ctx->client->name();
  const std::vector<std::string>& join_attrs = state.plan.join_attributes;
  const DasTranslatorSetting setting = options_.translator;

  // Delivery steps 1-2 at each datasource: build one index table per join
  // attribute and DAS-encrypt the partial result. What accompanies the
  // encrypted relation depends on the translator setting:
  //   kClient:  sealed (schema + itables) for the client;
  //   kSource:  sealed schema for the client, plaintext itables for the
  //             peer source (secure channel);
  //   kMediator: sealed schema for the client, plaintext itables for the
  //             mediator.
  auto build_with = [&](const Relation& rel, const RsaPublicKey& client_key,
                        const char* role,
                        RandomSource* rng) -> Result<SourceDelivery> {
    SourceDelivery d;
    {
      obs::Span span =
          obs::StartSpan(ctx->obs, role, "delivery", "das.build_itables");
      for (const std::string& attr : join_attrs) {
        Bytes salt = rng->Generate(16);
        SECMED_ASSIGN_OR_RETURN(
            IndexTable itable,
            IndexTable::Build(rel, attr, options_.strategy,
                              options_.num_partitions, salt));
        d.itables.push_back(std::move(itable));
      }
      span.AddItems(join_attrs.size());
    }
    std::vector<std::string> clear_cols;
    for (const std::string& col : options_.plaintext_columns) {
      if (rel.schema().HasColumn(Schema::BaseName(col))) {
        clear_cols.push_back(Schema::BaseName(col));
      }
    }
    {
      obs::Span span =
          obs::StartSpan(ctx->obs, role, "delivery", "das.encrypt_relation");
      std::string label = obs::SpanName(role, "delivery", "das.encrypt_relation");
      SECMED_ASSIGN_OR_RETURN(
          d.encrypted,
          DasEncryptRelation(rel, join_attrs, d.itables, client_key, rng,
                             clear_cols, ResolveThreads(ctx->threads),
                             ctx->obs, label.c_str()));
      span.AddItems(rel.size());
    }
    obs::Span span = obs::StartSpan(ctx->obs, role, "delivery", "das.seal");
    if (setting == DasTranslatorSetting::kClient) {
      SECMED_ASSIGN_OR_RETURN(
          d.sealed_blob,
          HybridEncrypt(client_key, EncodeItableBlob(d.itables, rel.schema()),
                        rng));
    } else {
      SECMED_ASSIGN_OR_RETURN(d.sealed_blob,
                              SealSchema(client_key, rel.schema(), rng));
    }
    return d;
  };
  auto build = [&](const std::string& source, const Relation& rel,
                   const RsaPublicKey& client_key,
                   const char* role) -> Result<SourceDelivery> {
    auto material = [&] {
      BinaryWriter mat;
      mat.WriteU8(static_cast<uint8_t>(setting));
      mat.WriteU32(static_cast<uint32_t>(options_.strategy));
      mat.WriteU32(static_cast<uint32_t>(options_.num_partitions));
      mat.WriteU32(static_cast<uint32_t>(options_.plaintext_columns.size()));
      for (const std::string& col : options_.plaintext_columns) {
        mat.WriteString(col);
      }
      mat.WriteU32(static_cast<uint32_t>(join_attrs.size()));
      for (const std::string& a : join_attrs) mat.WriteString(a);
      mat.WriteBytes(client_key.Serialize());
      mat.WriteBytes(rel.Serialize());
      return mat.TakeBuffer();
    };
    SECMED_ASSIGN_OR_RETURN(
        std::shared_ptr<const PreparedDasDelivery> entry,
        PreparedOrCompute<PreparedDasDelivery>(
            ctx, "das.build", source, material,
            [&](RandomSource* rng)
                -> Result<std::shared_ptr<const PreparedDasDelivery>> {
              auto e = std::make_shared<PreparedDasDelivery>();
              SECMED_ASSIGN_OR_RETURN(e->delivery,
                                      build_with(rel, client_key, role, rng));
              e->approx_bytes = e->delivery.sealed_blob.size() +
                                e->delivery.encrypted.Serialize().size();
              return std::shared_ptr<const PreparedDasDelivery>(std::move(e));
            }));
    return entry->delivery;  // copy: sessions stamp encrypted.name per send
  };

  SECMED_ASSIGN_OR_RETURN(
      SourceDelivery d1,
      build(state.plan.source1, state.r1, state.client_key1, "source1"));
  SECMED_ASSIGN_OR_RETURN(
      SourceDelivery d2,
      build(state.plan.source2, state.r2, state.client_key2, "source2"));

  // Step 3: each source sends <RiS, blob(s)> to the mediator; non-client
  // settings additionally expose the index tables to the translator party.
  auto send_from_source = [&](const std::string& source, SourceDelivery* d,
                              uint8_t which) {
    BinaryWriter w;
    w.WriteU8(which);
    d->encrypted.name = source;
    w.WriteBytes(d->encrypted.Serialize());
    w.WriteBytes(d->sealed_blob);
    if (setting == DasTranslatorSetting::kMediator) {
      w.WriteBytes(EncodeItableBlob(d->itables, Schema()));
    } else {
      w.WriteBytes(Bytes());
    }
    bus.Send(source, mediator, kMsgDasEncryptedResult, w.TakeBuffer());
  };
  send_from_source(state.plan.source1, &d1, 1);
  send_from_source(state.plan.source2, &d2, 2);

  // Source setting: S1 ships its index tables to S2 over the secure
  // source-to-source channel; S2 runs the translator and sends qS to the
  // mediator.
  if (setting == DasTranslatorSetting::kSource) {
    bus.Send(state.plan.source1, state.plan.source2, kMsgDasSourceItables,
             EncodeItableBlob(d1.itables, state.r1.schema()));
    SECMED_ASSIGN_OR_RETURN(
        Message msg,
        bus.ReceiveOfType(state.plan.source2, kMsgDasSourceItables));
    Schema peer_schema;
    std::vector<IndexTable> peer_itables;
    SECMED_RETURN_IF_ERROR(
        DecodeItableBlob(msg.payload, &peer_schema, &peer_itables));
    DasServerQuery qs = TranslateToServerQuery(peer_itables, d2.itables);
    bus.Send(state.plan.source2, mediator, kMsgDasServerQuery, qs.Serialize());
  }

  // Step 4 at the mediator: keep R1S/R2S; route per setting.
  DasRelation r1s, r2s;
  std::vector<IndexTable> med_itables1, med_itables2;
  Bytes sealed1, sealed2;
  obs::Span route_span =
      obs::StartSpan(ctx->obs, "mediator", "delivery", "das.route");
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgDasEncryptedResult));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(uint8_t which, r.ReadU8());
    SECMED_ASSIGN_OR_RETURN(Bytes rel_raw, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes sealed, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes clear_itables, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(DasRelation rel, DasRelation::Deserialize(rel_raw));
    if (which == 1) {
      r1s = std::move(rel);
      sealed1 = std::move(sealed);
    } else {
      r2s = std::move(rel);
      sealed2 = std::move(sealed);
    }
    if (setting == DasTranslatorSetting::kMediator) {
      Schema ignored;
      std::vector<IndexTable>* dst =
          which == 1 ? &med_itables1 : &med_itables2;
      SECMED_RETURN_IF_ERROR(DecodeItableBlob(clear_itables, &ignored, dst));
    }
    if (setting == DasTranslatorSetting::kClient) {
      BinaryWriter w;
      w.WriteU8(which);
      w.WriteBytes(which == 1 ? sealed1 : sealed2);
      bus.Send(mediator, client, kMsgDasIndexTable, w.TakeBuffer());
    }
  }
  route_span.End();

  // The server query, produced by the party the setting selects.
  Schema schema1, schema2;  // learned by the client before post-processing
  if (setting == DasTranslatorSetting::kClient) {
    // Step 5 at the client: decrypt index tables, translate, reply with qS.
    obs::Span span =
        obs::StartSpan(ctx->obs, "client", "delivery", "das.translate");
    std::vector<IndexTable> itables1, itables2;
    for (int i = 0; i < 2; ++i) {
      SECMED_ASSIGN_OR_RETURN(Message msg,
                              bus.ReceiveOfType(client, kMsgDasIndexTable));
      BinaryReader r(msg.payload);
      SECMED_ASSIGN_OR_RETURN(uint8_t which, r.ReadU8());
      SECMED_ASSIGN_OR_RETURN(Bytes blob, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(Bytes plain, ClientHybridDecrypt(ctx, blob));
      Schema* schema = which == 1 ? &schema1 : &schema2;
      std::vector<IndexTable>* itables = which == 1 ? &itables1 : &itables2;
      SECMED_RETURN_IF_ERROR(DecodeItableBlob(plain, schema, itables));
    }
    DasServerQuery server_query = TranslateToServerQuery(itables1, itables2);
    bus.Send(client, mediator, kMsgDasServerQuery, server_query.Serialize());
  }

  // Step 6 at the mediator: obtain qS (received or self-translated) and
  // evaluate it over the encrypted relations.
  {
    obs::Span span =
        obs::StartSpan(ctx->obs, "mediator", "delivery", "das.evaluate");
    DasServerQuery query;
    if (setting == DasTranslatorSetting::kMediator) {
      query = TranslateToServerQuery(med_itables1, med_itables2);
    } else {
      SECMED_ASSIGN_OR_RETURN(Message msg,
                              bus.ReceiveOfType(mediator, kMsgDasServerQuery));
      SECMED_ASSIGN_OR_RETURN(query,
                              DasServerQuery::Deserialize(msg.payload));
    }
    DasServerResult rc = EvaluateServerQuery(r1s, r2s, query);
    BinaryWriter w;
    if (setting != DasTranslatorSetting::kClient) {
      // The client has not seen the schemas yet; attach the sealed blobs.
      w.WriteBytes(sealed1);
      w.WriteBytes(sealed2);
    }
    w.WriteBytes(rc.Serialize());
    bus.Send(mediator, client, kMsgDasServerResult, w.TakeBuffer());
  }

  // Step 7 at the client: decrypt RC and apply the client query qC.
  SECMED_ASSIGN_OR_RETURN(Message msg,
                          bus.ReceiveOfType(client, kMsgDasServerResult));
  BinaryReader r(msg.payload);
  if (setting != DasTranslatorSetting::kClient) {
    for (Schema* schema : {&schema1, &schema2}) {
      SECMED_ASSIGN_OR_RETURN(Bytes blob, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(*schema, OpenSchema(ctx, blob));
    }
  }
  SECMED_ASSIGN_OR_RETURN(Bytes rc_raw, r.ReadBytes());
  SECMED_ASSIGN_OR_RETURN(DasServerResult rc,
                          DasServerResult::Deserialize(rc_raw));
  last_server_result_size_ = rc.size();
  obs::Span span =
      obs::StartSpan(ctx->obs, "client", "post", "das.apply_client_query");
  span.AddItems(rc.size());
  // Per-etuple hybrid decryption through the prepared cache: warm
  // sessions see the same ciphertexts (the delivery is cache-derived)
  // and skip the RSA work, which dominates the DAS client cost.
  return ApplyClientQuery(rc, schema1, schema2, join_attrs,
                          [ctx](const Bytes& etuple) {
                            return ClientHybridDecrypt(ctx, etuple);
                          });
}

}  // namespace secmed
