// Closed/open-loop load generation against a QueryService: the
// measurement half of the service layer (docs/SERVICE.md). Drives a
// stream of identical queries through the service's admission control
// and reports throughput, exact latency percentiles, shed rate and the
// prepared-cache hit rate over the run — the numbers the cold-vs-warm
// acceptance comparison is made of.

#ifndef SECMED_SERVICE_LOAD_HARNESS_H_
#define SECMED_SERVICE_LOAD_HARNESS_H_

#include <string>

#include "service/query_service.h"

namespace secmed {

struct LoadConfig {
  /// Closed-loop mode (open_rate_qps == 0): this many client threads,
  /// each submitting its next query the moment the previous one
  /// finishes — the service is always saturated to `clients` in-flight.
  size_t clients = 4;
  /// Total queries across all clients.
  size_t queries = 64;
  /// > 0: open-loop mode — one pacer submits at this fixed rate
  /// regardless of completions, so arrivals can outrun the service and
  /// exercise queueing + shedding.
  double open_rate_qps = 0.0;
  /// The query every client runs (the series-of-queries shape: same
  /// join, many sessions).
  QueryService::Query query;
};

struct LoadStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;  // ran and returned OK
  uint64_t shed = 0;       // refused with kUnavailable at admission
  uint64_t errors = 0;     // ran and failed
  double wall_ms = 0.0;
  double throughput_qps = 0.0;  // completed / wall
  double shed_rate = 0.0;       // shed / submitted
  /// Latency of completed queries (admission-to-completion), exact
  /// percentiles over the full sample — no reservoir, the sample is the
  /// population.
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Prepared-cache hit rate over this run (stats delta, so back-to-back
  /// runs against one service don't bleed into each other).
  double cache_hit_rate = 0.0;
  /// Every completed query must reconstruct the same relation; the
  /// digest is the byte-identity acceptance check of the cache.
  /// `secmedctl bench-load` also requires result_digest to equal
  /// CanonicalResultDigest of the plaintext join, so a protocol that is
  /// wrong the same way in every query fails too.
  bool digests_agree = true;
  Bytes result_digest;
};

/// Runs `config` against `service` and blocks until every submitted
/// query completed or shed.
LoadStats RunLoadHarness(QueryService* service, const LoadConfig& config);

/// One-line-per-metric human rendering, `label` as the header.
std::string RenderLoadStats(const std::string& label, const LoadStats& s);

}  // namespace secmed

#endif  // SECMED_SERVICE_LOAD_HARNESS_H_
