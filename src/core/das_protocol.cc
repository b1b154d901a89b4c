#include "core/das_protocol.h"

#include "core/prepared.h"
#include "crypto/aead.h"
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

// What one source seals for the client, and the only place its etuple
// key travels: the key, then the itable blob (index tables in the client
// setting, none otherwise).
struct SourceSecrets {
  Bytes etuple_key;
  Schema schema;
  std::vector<IndexTable> itables;
};

Result<Bytes> SealSourceSecrets(const RsaPublicKey& client_key,
                                const SourceSecrets& secrets,
                                RandomSource* rng) {
  BinaryWriter w;
  w.WriteBytes(secrets.etuple_key);
  w.WriteRaw(EncodeItableBlob(secrets.itables, secrets.schema));
  return HybridEncrypt(client_key, w.TakeBuffer(), rng);
}

// Opens a SealSourceSecrets blob, memoized through ctx->prepared.
Result<SourceSecrets> OpenSourceSecrets(ProtocolContext* ctx,
                                        const Bytes& sealed) {
  SECMED_ASSIGN_OR_RETURN(Bytes plain, ClientHybridDecrypt(ctx, sealed));
  BinaryReader r(plain);
  SourceSecrets secrets;
  SECMED_ASSIGN_OR_RETURN(secrets.etuple_key, r.ReadBytes());
  SECMED_ASSIGN_OR_RETURN(Bytes itable_blob, r.ReadRaw(r.remaining()));
  SECMED_RETURN_IF_ERROR(
      DecodeItableBlob(itable_blob, &secrets.schema, &secrets.itables));
  return secrets;
}

// Per-source delivery state computed by build_with.
struct SourceDelivery {
  DasRelation encrypted;
  std::vector<IndexTable> itables;
  Bytes sealed_blob;  // SealSourceSecrets
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
  // attribute, draw one etuple key and DAS-encrypt the partial result
  // under it. The key and the schema are sealed for the client; where the
  // index tables go depends on the translator setting:
  //   kClient:  into the blob sealed for the client;
  //   kSource:  in plaintext to the peer source (secure channel);
  //   kMediator: in plaintext to the mediator.
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
    SourceSecrets secrets;
    secrets.etuple_key = Aead::GenerateKey(rng);
    secrets.schema = rel.schema();
    {
      obs::Span span =
          obs::StartSpan(ctx->obs, role, "delivery", "das.encrypt_relation");
      std::string label = obs::SpanName(role, "delivery", "das.encrypt_relation");
      SECMED_ASSIGN_OR_RETURN(
          d.encrypted,
          DasEncryptRelation(rel, join_attrs, d.itables, secrets.etuple_key,
                             rng, ResolveThreads(ctx->threads), ctx->obs,
                             label.c_str()));
      span.AddItems(rel.size());
    }
    obs::Span span = obs::StartSpan(ctx->obs, role, "delivery", "das.seal");
    if (setting == DasTranslatorSetting::kClient) secrets.itables = d.itables;
    SECMED_ASSIGN_OR_RETURN(d.sealed_blob,
                            SealSourceSecrets(client_key, secrets, rng));
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

  // Step 4 at the mediator: keep R1S/R2S; route per setting. The arrays
  // are indexed by source tag.
  DasRelation rs[3];
  std::vector<IndexTable> med_itables[3];
  Bytes sealed[3];
  obs::Span route_span =
      obs::StartSpan(ctx->obs, "mediator", "delivery", "das.route");
  bool result_tags[3] = {};
  for (int i = 0; i < 2; ++i) {
    SECMED_ASSIGN_OR_RETURN(Message msg,
                            bus.ReceiveOfType(mediator, kMsgDasEncryptedResult));
    BinaryReader r(msg.payload);
    SECMED_ASSIGN_OR_RETURN(
        uint8_t which, ReadSourceTag(&r, result_tags, kMsgDasEncryptedResult));
    SECMED_ASSIGN_OR_RETURN(Bytes rel_raw, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(sealed[which], r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(Bytes clear_itables, r.ReadBytes());
    SECMED_ASSIGN_OR_RETURN(rs[which], DasRelation::Deserialize(rel_raw));
    if (setting == DasTranslatorSetting::kMediator) {
      Schema ignored;
      SECMED_RETURN_IF_ERROR(
          DecodeItableBlob(clear_itables, &ignored, &med_itables[which]));
    }
    if (setting == DasTranslatorSetting::kClient) {
      BinaryWriter w;
      w.WriteU8(which);
      w.WriteBytes(sealed[which]);
      bus.Send(mediator, client, kMsgDasIndexTable, w.TakeBuffer());
    }
  }
  route_span.End();

  // The server query, produced by the party the setting selects.
  // secrets[i]: what the client opened of source i's sealed blob.
  SourceSecrets secrets[3];
  if (setting == DasTranslatorSetting::kClient) {
    // Step 5 at the client: decrypt index tables, translate, reply with qS.
    obs::Span span =
        obs::StartSpan(ctx->obs, "client", "delivery", "das.translate");
    bool itable_tags[3] = {};
    for (int i = 0; i < 2; ++i) {
      SECMED_ASSIGN_OR_RETURN(Message msg,
                              bus.ReceiveOfType(client, kMsgDasIndexTable));
      BinaryReader r(msg.payload);
      SECMED_ASSIGN_OR_RETURN(
          uint8_t which, ReadSourceTag(&r, itable_tags, kMsgDasIndexTable));
      SECMED_ASSIGN_OR_RETURN(Bytes blob, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(secrets[which], OpenSourceSecrets(ctx, blob));
    }
    DasServerQuery server_query =
        TranslateToServerQuery(secrets[1].itables, secrets[2].itables);
    bus.Send(client, mediator, kMsgDasServerQuery, server_query.Serialize());
  }

  // Step 6 at the mediator: obtain qS (received or self-translated) and
  // evaluate it over the encrypted relations.
  {
    obs::Span span =
        obs::StartSpan(ctx->obs, "mediator", "delivery", "das.evaluate");
    DasServerQuery query;
    if (setting == DasTranslatorSetting::kMediator) {
      query = TranslateToServerQuery(med_itables[1], med_itables[2]);
    } else {
      SECMED_ASSIGN_OR_RETURN(Message msg,
                              bus.ReceiveOfType(mediator, kMsgDasServerQuery));
      SECMED_ASSIGN_OR_RETURN(query,
                              DasServerQuery::Deserialize(msg.payload));
    }
    DasServerResult rc = EvaluateServerQuery(rs[1], rs[2], query);
    BinaryWriter w;
    if (setting != DasTranslatorSetting::kClient) {
      // The client has not opened the sealed blobs yet; attach them.
      w.WriteBytes(sealed[1]);
      w.WriteBytes(sealed[2]);
    }
    w.WriteBytes(rc.Serialize());
    bus.Send(mediator, client, kMsgDasServerResult, w.TakeBuffer());
  }

  // Step 7 at the client: decrypt RC and apply the client query qC.
  SECMED_ASSIGN_OR_RETURN(Message msg,
                          bus.ReceiveOfType(client, kMsgDasServerResult));
  BinaryReader r(msg.payload);
  if (setting != DasTranslatorSetting::kClient) {
    for (int which = 1; which <= 2; ++which) {
      SECMED_ASSIGN_OR_RETURN(Bytes blob, r.ReadBytes());
      SECMED_ASSIGN_OR_RETURN(secrets[which], OpenSourceSecrets(ctx, blob));
    }
  }
  SECMED_ASSIGN_OR_RETURN(Bytes rc_raw, r.ReadBytes());
  SECMED_ASSIGN_OR_RETURN(DasServerResult rc,
                          DasServerResult::Deserialize(rc_raw));
  last_server_result_size_ = rc.size();
  obs::Span span =
      obs::StartSpan(ctx->obs, "client", "post", "das.apply_client_query");
  span.AddItems(rc.size());
  return ApplyClientQuery(rc, secrets[1].schema, secrets[2].schema,
                          join_attrs, secrets[1].etuple_key,
                          secrets[2].etuple_key);
}

}  // namespace secmed
