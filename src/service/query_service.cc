#include "service/query_service.h"

#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "core/cascade.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "net/bus.h"
#include "relational/sql.h"
#include "util/serialize.h"

namespace secmed {

Bytes CanonicalResultDigest(Relation result) {
  result.SortCanonically();
  return Sha256::Hash(result.Serialize());
}

QueryService::QueryService(MediationTestbed* testbed, Options options)
    : testbed_(testbed),
      options_(std::move(options)),
      registry_([&] {
        PreparedDatasetRegistry::Options ropt;
        ropt.max_bytes = options_.cache_bytes;
        ropt.label = options_.rng_label;
        ropt.obs = options_.obs;
        return ropt;
      }()),
      scheduler_([&] {
        SessionScheduler::Options sopt;
        sopt.max_concurrent = options_.max_concurrent;
        sopt.queue_depth = options_.queue_depth;
        sopt.obs = options_.obs;
        return sopt;
      }()) {}

QueryService::~QueryService() { Drain(std::chrono::milliseconds(0)); }

Result<uint64_t> QueryService::Submit(const Query& query,
                                      std::function<void(QueryOutcome)> done) {
  return scheduler_.Submit(
      [this, query, done = std::move(done)](uint64_t session_id) {
        done(Execute(query, session_id));
      });
}

Result<QueryOutcome> QueryService::Run(const Query& query) {
  auto promise = std::make_shared<std::promise<QueryOutcome>>();
  std::future<QueryOutcome> future = promise->get_future();
  SECMED_ASSIGN_OR_RETURN(
      uint64_t id,
      Submit(query, [promise](QueryOutcome out) {
        promise->set_value(std::move(out));
      }));
  (void)id;
  return future.get();
}

plan::Planner QueryService::MakePlanner(const Query& query) const {
  plan::PlannerOptions popt;
  popt.params.das_partitions = query.das_partitions;
  popt.params.group_bits = query.group_bits;
  popt.params.paillier_bits = testbed_->options().paillier_bits;
  popt.params.rsa_bits = testbed_->options().rsa_bits;
  popt.policy = query.policy;
  return plan::Planner(plan::CostModel(options_.calibration), popt);
}

Result<plan::PlanChoice> QueryService::Explain(const Query& query) {
  // Planning needs a context only for source statistics; no protocol
  // traffic flows, so a throwaway bus and rng suffice. The prepared
  // registry is shared, so collected stats are reused by later sessions.
  NetworkBus bus;
  HmacDrbg rng(ToBytes("secmed-explain-" + options_.rng_label));
  ProtocolContext ctx = testbed_->SessionContext(&bus, &rng);
  ctx.threads = options_.threads;
  ctx.obs = options_.obs;
  ctx.prepared = options_.use_prepared ? &registry_ : nullptr;
  return MakePlanner(query).Plan(query.sql, &ctx);
}

QueryOutcome QueryService::Execute(const Query& query, uint64_t session_id) {
  const auto start = std::chrono::steady_clock::now();
  QueryOutcome out;
  out.session_id = session_id;

  // Session isolation as in core/remote.cc RunOverTransport: a private
  // bus and a session-ID-seeded DRBG, so the execution is a function of
  // (query, session id) alone — concurrency cannot perturb it.
  NetworkBus bus;
  HmacDrbg session_rng(ToBytes("secmed-session-" + options_.rng_label + "-" +
                               std::to_string(session_id)));
  ProtocolContext ctx = testbed_->SessionContext(&bus, &session_rng);
  ctx.threads = options_.threads;
  ctx.obs = options_.obs;
  ctx.prepared = options_.use_prepared ? &registry_ : nullptr;

  // Resolve the per-level protocol schedule: a fixed protocol repeats
  // for every cascade level; "auto" asks the planner (src/plan/), which
  // may pick a different protocol per level AND a different join order —
  // both are carried to the executor below, so the run is the plan the
  // leakage policy admitted, not a same-protocol rearrangement of it.
  std::vector<std::string> schedule_names;
  std::vector<size_t> join_order;
  Status plan_status = Status::OK();
  size_t join_clauses = 1;
  if (auto parsed = ParseSql(query.sql); parsed.ok()) {
    join_clauses = std::max<size_t>(1, parsed->joins.size());
  }
  if (query.protocol == "auto") {
    obs::AddCounter(options_.obs, "service.query.auto", 1);
    Result<plan::PlanChoice> planned = MakePlanner(query).Plan(query.sql, &ctx);
    if (planned.ok()) {
      out.plan = std::make_shared<plan::PlanChoice>(std::move(planned).value());
      schedule_names = out.plan->ProtocolSchedule();
      join_order = out.plan->chosen.join_order;
    } else {
      plan_status = planned.status();
    }
  } else {
    schedule_names.assign(join_clauses, query.protocol);
  }

  // Instantiate the protocol of each level; a cascade with k levels under
  // one protocol shares a single instance (protocols are stateless across
  // runs), matching the legacy fixed-protocol transcripts.
  std::vector<std::unique_ptr<JoinProtocol>> owned;
  std::vector<JoinProtocol*> schedule;
  for (const std::string& name : schedule_names) {
    JoinProtocol* reuse = nullptr;
    for (size_t j = 0; j < schedule.size(); ++j) {
      if (schedule_names[j] == name) {
        reuse = schedule[j];
        break;
      }
    }
    if (reuse != nullptr) {
      schedule.push_back(reuse);
      continue;
    }
    RunSpec spec;
    spec.protocol = name;
    spec.das_partitions = query.das_partitions;
    spec.group_bits = query.group_bits;
    auto built = BuildProtocol(spec);
    if (!built.ok()) {
      plan_status = built.status();
      break;
    }
    owned.push_back(std::move(built).value());
    schedule.push_back(owned.back().get());
  }

  if (!plan_status.ok() || schedule.empty()) {
    out.status = !plan_status.ok()
                     ? plan_status
                     : Status::Internal("empty protocol schedule");
  } else {
    Result<Relation> result = Status::Internal("unreached");
    if (schedule.size() == 1 && join_clauses <= 1) {
      // Single mediation: run the protocol directly — bit-identical to
      // the pre-planner fixed-protocol path.
      result = schedule[0]->Run(query.sql, &ctx);
    } else {
      // k-way cascade, possibly mixed-protocol and reordered by the
      // planner (docs/PLANNER.md). The executor validates the order and
      // fails rather than falling back to the written order, which would
      // divorce the run from the costed, policy-checked plan.
      CascadeExecutor cascade(schedule[0], testbed_->ca_key());
      cascade.SetProtocolSchedule(schedule);
      cascade.SetJoinOrder(join_order);
      result = cascade.Run(query.sql, &ctx);
    }
    if (result.ok()) {
      out.result = std::move(result).value();
      out.result_digest = CanonicalResultDigest(out.result);
      out.status = Status::OK();
    } else {
      out.status = result.status();
    }
  }

  out.messages = bus.transcript().size();
  for (const Message& m : bus.transcript()) out.bytes += m.payload.size();
  if (options_.record_transcripts) {
    out.transcript.reserve(bus.transcript().size());
    for (const Message& m : bus.transcript()) {
      BinaryWriter w;
      w.WriteString(m.from);
      w.WriteString(m.to);
      w.WriteString(m.type);
      w.WriteBytes(m.payload);
      out.transcript.push_back(w.TakeBuffer());
    }
  }

  out.latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  obs::ObserveValue(options_.obs, "service.query.latency_us",
                    static_cast<uint64_t>(out.latency_ms * 1000.0));
  obs::AddCounter(options_.obs,
                  out.status.ok() ? "service.query.ok" : "service.query.error",
                  1);
  return out;
}

}  // namespace secmed
