#ifndef SECMED_SERVICE_QUERY_SERVICE_H_
#define SECMED_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/remote.h"
#include "core/testbed.h"
#include "plan/planner.h"
#include "service/prepared_registry.h"
#include "service/scheduler.h"

namespace secmed {

/// Outcome of one mediated query executed by the QueryService.
struct QueryOutcome {
  uint64_t session_id = 0;
  Status status;       // protocol outcome; OK iff `result` is meaningful
  Relation result;     // the client's reconstructed join result
  /// SHA-256 of the canonically sorted result (the relation is a bag;
  /// delivery order varies with the session RNG, its contents must not).
  Bytes result_digest;
  double latency_ms = 0.0;  // admission-to-completion wall time
  uint64_t messages = 0;    // transcript length
  /// Message payloads of the session's bus, in send order, when
  /// Options::record_transcripts is set (determinism tests).
  std::vector<Bytes> transcript;
  /// Total payload bytes carried over the session bus (for the planner's
  /// predicted-vs-actual reconciliation).
  uint64_t bytes = 0;
  /// The planner's EXPLAIN when the query ran with protocol "auto";
  /// null for a fixed protocol. Shared so the outcome stays copyable.
  std::shared_ptr<plan::PlanChoice> plan;

  /// Measured counterpart of the plan's predicted costs, for
  /// PlanChoice::ToJson reconciliation.
  plan::PlanActuals Actuals() const {
    plan::PlanActuals a;
    a.wall_ms = latency_ms;
    a.total_bytes = double(bytes);
    a.result_rows = double(result.tuples().size());
    a.messages = double(messages);
    return a;
  }
};

/// Canonical digest of a join result: SHA-256 of the canonically sorted
/// relation. The result is a bag whose delivery order depends on the
/// session RNG, so raw serializations differ between sessions; canonical
/// digests compare across sessions, across warm and cold runs, and with
/// the plaintext reference join (MediationTestbed::ExpectedJoin).
Bytes CanonicalResultDigest(Relation result);

/// The long-lived in-process mediation service: one shared
/// MediationTestbed (parties + keys + relations), a PreparedDatasetRegistry
/// memoizing the per-relation delivery crypto across sessions, and a
/// SessionScheduler bounding concurrency and shedding overload.
///
/// Every accepted query runs as its own session: a fresh NetworkBus and a
/// session-ID-seeded DRBG, so concurrent sessions share no mutable state
/// except the cache, whose entries are key-derived and therefore
/// identical however the sessions interleave. Consequently a query's
/// result AND transcript are functions of (query, session id) alone —
/// the same under any concurrency, and the same warm or cold.
class QueryService {
 public:
  struct Options {
    size_t max_concurrent = 4;   // SessionScheduler::Options
    size_t queue_depth = 16;
    size_t cache_bytes = 256ull << 20;  // registry byte budget; 0 = unlimited
    /// Attach the prepared cache to sessions (false = every session
    /// recomputes all delivery crypto; the cold baseline of the load
    /// harness).
    bool use_prepared = true;
    /// Per-session DRBG label, as in RunSpec::rng_label.
    std::string rng_label = "service";
    /// ProtocolContext::threads inside each session.
    size_t threads = 1;
    /// Capture per-session bus transcripts into QueryOutcome.
    bool record_transcripts = false;
    obs::Scope* obs = nullptr;  // service-wide metrics; null disables
    /// Cost-model coefficients for protocol "auto" (docs/PLANNER.md).
    /// Defaults are the committed CALIBRATION.json values; refresh with
    /// `secmedctl calibrate`.
    plan::CalibrationProfile calibration;
  };

  /// A query to mediate. Protocol parameters mirror RunSpec.
  struct Query {
    /// das | commutative | pm, or "auto" to let the cost-based planner
    /// choose the protocol (possibly per cascade level) under `policy`.
    std::string protocol = "commutative";
    std::string sql;
    size_t das_partitions = 4;
    size_t group_bits = 256;
    /// Leakage budget for "auto" (plan::LeakagePolicy grammar); empty
    /// allows every protocol.
    std::string policy;
  };

  /// `testbed` must outlive the service.
  QueryService(MediationTestbed* testbed, Options options);
  ~QueryService();

  /// Admits the query and invokes `done` with its outcome on a worker
  /// thread. Returns the assigned session ID, or kUnavailable when the
  /// scheduler sheds (the query never ran; `done` is not called).
  Result<uint64_t> Submit(const Query& query,
                          std::function<void(QueryOutcome)> done);

  /// Admits the query and blocks for its outcome. Sheds like Submit.
  Result<QueryOutcome> Run(const Query& query);

  /// Plans the query without executing it — the `explain` subcommand.
  /// Statistics collection runs on the calling thread and warms the same
  /// prepared-cache entries a later "auto" execution would hit.
  Result<plan::PlanChoice> Explain(const Query& query);

  /// Stops admission and waits for in-flight sessions (<= 0: forever).
  Status Drain(std::chrono::milliseconds timeout) {
    return scheduler_.Drain(timeout);
  }

  PreparedDatasetRegistry& cache() { return registry_; }
  SessionScheduler& scheduler() { return scheduler_; }
  MediationTestbed& testbed() { return *testbed_; }

 private:
  /// Runs one admitted session on the calling (worker) thread.
  QueryOutcome Execute(const Query& query, uint64_t session_id);

  /// The planner configured for this query's knobs and the testbed keys.
  plan::Planner MakePlanner(const Query& query) const;

  MediationTestbed* testbed_;
  Options options_;
  PreparedDatasetRegistry registry_;
  SessionScheduler scheduler_;
};

}  // namespace secmed

#endif  // SECMED_SERVICE_QUERY_SERVICE_H_
