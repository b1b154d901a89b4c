#include "core/remote.h"

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/pm_protocol.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "util/serialize.h"

namespace secmed {

Bytes RunSpec::Encode() const {
  BinaryWriter w;
  w.WriteU32(session);
  w.WriteString(protocol);
  w.WriteString(query);
  w.WriteU32(static_cast<uint32_t>(das_partitions));
  w.WriteU32(static_cast<uint32_t>(group_bits));
  w.WriteU32(static_cast<uint32_t>(threads));
  w.WriteString(rng_label);
  w.WriteString(reply_to);
  w.WriteU8(use_prepared ? 1 : 0);
  return w.TakeBuffer();
}

Result<RunSpec> RunSpec::Decode(const Bytes& raw) {
  BinaryReader r(raw);
  RunSpec spec;
  SECMED_ASSIGN_OR_RETURN(spec.session, r.ReadU32());
  SECMED_ASSIGN_OR_RETURN(spec.protocol, r.ReadString());
  SECMED_ASSIGN_OR_RETURN(spec.query, r.ReadString());
  SECMED_ASSIGN_OR_RETURN(uint32_t partitions, r.ReadU32());
  SECMED_ASSIGN_OR_RETURN(uint32_t bits, r.ReadU32());
  SECMED_ASSIGN_OR_RETURN(uint32_t threads, r.ReadU32());
  SECMED_ASSIGN_OR_RETURN(spec.rng_label, r.ReadString());
  SECMED_ASSIGN_OR_RETURN(spec.reply_to, r.ReadString());
  SECMED_ASSIGN_OR_RETURN(uint8_t use_prepared, r.ReadU8());
  spec.use_prepared = use_prepared != 0;
  spec.das_partitions = partitions;
  spec.group_bits = bits;
  spec.threads = threads;
  if (spec.session == kCtlSession) {
    return Status::InvalidArgument("session id 0 is reserved for control");
  }
  return spec;
}

Bytes RunReport::Encode() const {
  BinaryWriter w;
  w.WriteU32(session);
  w.WriteString(party_set);
  w.WriteU8(ok ? 1 : 0);
  w.WriteString(error);
  w.WriteU32(error_code);
  w.WriteBytes(result_digest);
  w.WriteU64(result_rows);
  w.WriteU64(messages);
  w.WriteU64(total_bytes);
  w.WriteU32(static_cast<uint32_t>(stats.size()));
  for (const auto& [party, s] : stats) {
    w.WriteString(party);
    w.WriteU64(s.messages_sent);
    w.WriteU64(s.messages_received);
    w.WriteU64(s.bytes_sent);
    w.WriteU64(s.bytes_received);
    w.WriteU64(s.interactions);
    w.WriteU32(static_cast<uint32_t>(s.by_type.size()));
    for (const auto& [type, ts] : s.by_type) {
      w.WriteString(type);
      w.WriteU64(ts.messages_sent);
      w.WriteU64(ts.messages_received);
      w.WriteU64(ts.bytes_sent);
      w.WriteU64(ts.bytes_received);
    }
  }
  return w.TakeBuffer();
}

Result<RunReport> RunReport::Decode(const Bytes& raw) {
  BinaryReader r(raw);
  RunReport rep;
  SECMED_ASSIGN_OR_RETURN(rep.session, r.ReadU32());
  SECMED_ASSIGN_OR_RETURN(rep.party_set, r.ReadString());
  SECMED_ASSIGN_OR_RETURN(uint8_t ok, r.ReadU8());
  rep.ok = ok != 0;
  SECMED_ASSIGN_OR_RETURN(rep.error, r.ReadString());
  SECMED_ASSIGN_OR_RETURN(rep.error_code, r.ReadU32());
  SECMED_ASSIGN_OR_RETURN(rep.result_digest, r.ReadBytes());
  SECMED_ASSIGN_OR_RETURN(rep.result_rows, r.ReadU64());
  SECMED_ASSIGN_OR_RETURN(rep.messages, r.ReadU64());
  SECMED_ASSIGN_OR_RETURN(rep.total_bytes, r.ReadU64());
  SECMED_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  for (uint32_t i = 0; i < n; ++i) {
    std::string party;
    PartyStats s;
    SECMED_ASSIGN_OR_RETURN(party, r.ReadString());
    SECMED_ASSIGN_OR_RETURN(s.messages_sent, r.ReadU64());
    SECMED_ASSIGN_OR_RETURN(s.messages_received, r.ReadU64());
    SECMED_ASSIGN_OR_RETURN(s.bytes_sent, r.ReadU64());
    SECMED_ASSIGN_OR_RETURN(s.bytes_received, r.ReadU64());
    SECMED_ASSIGN_OR_RETURN(s.interactions, r.ReadU64());
    SECMED_ASSIGN_OR_RETURN(uint32_t types, r.ReadU32());
    for (uint32_t k = 0; k < types; ++k) {
      SECMED_ASSIGN_OR_RETURN(std::string type, r.ReadString());
      MessageTypeStats ts;
      SECMED_ASSIGN_OR_RETURN(ts.messages_sent, r.ReadU64());
      SECMED_ASSIGN_OR_RETURN(ts.messages_received, r.ReadU64());
      SECMED_ASSIGN_OR_RETURN(ts.bytes_sent, r.ReadU64());
      SECMED_ASSIGN_OR_RETURN(ts.bytes_received, r.ReadU64());
      s.by_type.emplace(std::move(type), ts);
    }
    rep.stats.emplace_back(std::move(party), s);
  }
  return rep;
}

Result<std::unique_ptr<JoinProtocol>> BuildProtocol(const RunSpec& spec) {
  if (spec.protocol == "das") {
    return std::unique_ptr<JoinProtocol>(
        std::make_unique<DasJoinProtocol>(DasProtocolOptions{
            PartitionStrategy::kEquiDepth, spec.das_partitions}));
  }
  if (spec.protocol == "commutative") {
    return std::unique_ptr<JoinProtocol>(std::make_unique<
                                         CommutativeJoinProtocol>(
        CommutativeProtocolOptions{spec.group_bits, false}));
  }
  if (spec.protocol == "pm") {
    return std::unique_ptr<JoinProtocol>(std::make_unique<PmJoinProtocol>());
  }
  if (spec.protocol == "auto") {
    return Status::InvalidArgument(
        "protocol 'auto' must be resolved by the planner before a RunSpec "
        "is announced; secmedctl resolves it driver-side (docs/PLANNER.md)");
  }
  return Status::InvalidArgument("unknown protocol '" + spec.protocol + "'");
}

namespace {

/// Shared tail of the replicated and the local runner: execute `spec`
/// over `transport` with the deterministic per-session DRBG and collect
/// the report.
RunReport RunOverTransport(MediationTestbed* testbed, Transport* transport,
                           const RunSpec& spec, Relation* result_out,
                           obs::Scope* obs, PreparedCache* prepared) {
  RunReport report;
  report.session = spec.session;

  // Per-session DRBG: every process seeds from the same label, so the
  // replicated executions are bit-identical (the transport verifies it
  // byte-for-byte on every cross-process edge).
  HmacDrbg session_rng(ToBytes("secmed-session-" + spec.rng_label + "-" +
                               std::to_string(spec.session)));
  ProtocolContext ctx = testbed->SessionContext(transport, &session_rng);
  ctx.threads = spec.threads;
  ctx.obs = obs;
  ctx.prepared = spec.use_prepared ? prepared : nullptr;
  if (obs != nullptr && !obs->trace().valid()) {
    // Deployment-wide distributed trace id, derived from the shared
    // seed label: every process computes the same id with no
    // negotiation, so the spans of all parties merge under one trace
    // (secmedctl trace-merge). Set-if-unset keeps a daemon-wide
    // telemetry scope on its first id across sessions.
    obs->set_trace(obs::TraceContext::Derive(spec.rng_label));
  }
  transport->SetObsScope(obs);

  auto protocol = BuildProtocol(spec);
  if (!protocol.ok()) {
    report.error = protocol.status().ToString();
    report.error_code = static_cast<uint32_t>(protocol.status().code());
    transport->SetObsScope(nullptr);
    return report;
  }
  Result<Relation> result = (*protocol)->Run(spec.query, &ctx);
  if (!result.ok()) {
    // Unrecoverable failure: tell every peer process before giving up,
    // so their blocked Receives return kAborted promptly instead of
    // waiting out their full deadline budgets. No-op on the local bus;
    // TcpTransport suppresses the broadcast when the failure *is* a
    // received abort (re-broadcasting would echo forever).
    transport->Abort(result.status());
  }
  // Detach before returning: the scope may not outlive the transport
  // (TcpTransport shares it with the long-lived PeerHost).
  transport->SetObsScope(nullptr);
  if (!result.ok()) {
    report.error = result.status().ToString();
    report.error_code = static_cast<uint32_t>(result.status().code());
    return report;
  }

  report.ok = true;
  report.result_digest = Sha256::Hash(result->Serialize());
  report.result_rows = result->size();
  report.messages = transport->transcript().size();
  report.total_bytes = transport->TotalBytes();
  for (const std::string& party :
       {testbed->client().name(), testbed->mediator().name(),
        testbed->source1().name(), testbed->source2().name()}) {
    report.stats.emplace_back(party, transport->StatsOf(party));
  }
  if (result_out != nullptr) *result_out = std::move(result).value();
  return report;
}

}  // namespace

RunReport RunReplicatedSession(MediationTestbed* testbed, PeerHost* host,
                               const Deployment& deployment,
                               const RunSpec& spec, Relation* result_out,
                               obs::Scope* obs, PreparedCache* prepared) {
  TcpTransport::Options topt;
  topt.local_parties = deployment.local_parties;
  topt.directory = deployment.directory;
  topt.session = spec.session;
  topt.timeout_ms = deployment.timeout_ms;
  topt.retry = deployment.retry;
  topt.faults = deployment.faults;
  host->SetRetryPolicy(deployment.retry);
  TcpTransport transport(host, std::move(topt));

  RunReport report =
      RunOverTransport(testbed, &transport, spec, result_out, obs, prepared);
  std::string joined;
  for (const std::string& p : deployment.local_parties) {
    if (!joined.empty()) joined += ",";
    joined += p;
  }
  report.party_set = joined;
  return report;
}

RunReport RunLocalSession(MediationTestbed* testbed, const RunSpec& spec,
                          Relation* result_out, obs::Scope* obs,
                          PreparedCache* prepared) {
  NetworkBus bus;
  RunReport report =
      RunOverTransport(testbed, &bus, spec, result_out, obs, prepared);
  report.party_set = "local-bus";
  return report;
}

Status SendCtl(PeerHost* host, const Endpoint& ep, const std::string& from,
               const std::string& type, Bytes payload, int timeout_ms) {
  Message msg{from, kCtlParty, type, std::move(payload)};
  Bytes frame = EncodeFrame(kCtlSession, msg);
  return host->SendFrame("ctl:" + from + ">" + ep.ToString(), ep, frame,
                         timeout_ms);
}

std::vector<std::string> SplitCommaList(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace secmed
