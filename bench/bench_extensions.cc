// Extension experiments: the protocols this library adds on top of the
// paper (Section 8 outlook + related-work lines), measured side by side.
//
//  E1 — secure INTERSECTION (commutative vs private matching): wall time
//       and client-bound bytes for the same workload.
//  E2 — aggregation over ciphertexts vs "join then aggregate at client":
//       the traffic and disclosure the aggregate protocol saves.

#include <chrono>
#include <cstdio>

#include "core/aggregate_protocol.h"
#include "core/commutative_protocol.h"
#include "core/intersection_protocol.h"
#include "core/testbed.h"

#include "bench_env.h"

using namespace secmed;

namespace {

double MsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Intersections() {
  std::printf("--- E1: secure intersection ---\n");
  std::printf("%12s %12s %12s %14s\n", "domain", "comm(ms)", "pm(ms)",
              "result values");
  for (size_t domain : {8u, 16u, 32u}) {
    WorkloadConfig cfg;
    cfg.r1_tuples = domain * 2;
    cfg.r2_tuples = domain * 2;
    cfg.r1_domain = domain;
    cfg.r2_domain = domain;
    cfg.common_values = domain / 2;
    Workload w = GenerateWorkload(cfg);

    double ms[2];
    size_t values = 0;
    for (int mode = 0; mode < 2; ++mode) {
      MediationTestbed::Options opt;
      opt.seed_label = "e1-" + std::to_string(domain) + std::to_string(mode);
      auto tb_or = MediationTestbed::Create(w, opt);
      if (!tb_or.ok()) {
        std::printf("testbed setup failed: %s\n",
                    tb_or.status().ToString().c_str());
        return;
      }
      MediationTestbed& tb = **tb_or;
      auto start = std::chrono::steady_clock::now();
      Result<Relation> res =
          mode == 0
              ? CommutativeIntersectionProtocol(512).Run(tb.JoinSql(), tb.ctx())
              : PmIntersectionProtocol().Run(tb.JoinSql(), tb.ctx());
      ms[mode] = MsSince(start);
      if (!res.ok()) return;
      values = res->size();
    }
    std::printf("%12zu %12.1f %12.1f %14zu\n", domain, ms[0], ms[1], values);
  }
  std::printf("\n");
}

void AggregatesVsFullJoin() {
  std::printf("--- E2: aggregation over ciphertexts vs join-then-aggregate ---\n");
  std::printf("%10s %18s %18s %10s\n", "tuples", "full-join cli-B",
              "aggregate cli-B", "ratio");
  for (size_t tuples : {40u, 80u, 160u}) {
    WorkloadConfig cfg;
    cfg.r1_tuples = tuples;
    cfg.r2_tuples = tuples;
    cfg.r1_domain = tuples / 4;
    cfg.r2_domain = tuples / 4;
    cfg.common_values = tuples / 8;
    Workload w = GenerateWorkload(cfg);

    size_t join_bytes = 0, agg_bytes = 0;
    int64_t count_via_join = 0, count_via_agg = 0;
    {
      MediationTestbed::Options opt;
      opt.seed_label = "e2j-" + std::to_string(tuples);
      auto tb_or = MediationTestbed::Create(w, opt);
      if (!tb_or.ok()) {
        std::printf("testbed setup failed: %s\n",
                    tb_or.status().ToString().c_str());
        return;
      }
      MediationTestbed& tb = **tb_or;
      CommutativeJoinProtocol join(CommutativeProtocolOptions{512, false});
      auto res = join.Run(tb.JoinSql(), tb.ctx());
      if (!res.ok()) return;
      count_via_join = static_cast<int64_t>(res->size());
      join_bytes = tb.bus().StatsOf(tb.client().name()).bytes_received;
    }
    {
      MediationTestbed::Options opt;
      opt.seed_label = "e2a-" + std::to_string(tuples);
      auto tb_or = MediationTestbed::Create(w, opt);
      if (!tb_or.ok()) {
        std::printf("testbed setup failed: %s\n",
                    tb_or.status().ToString().c_str());
        return;
      }
      MediationTestbed& tb = **tb_or;
      AggregateJoinProtocol agg(512);
      auto res = agg.Run(tb.JoinSql(), {AggregateFn::kCount, ""}, tb.ctx());
      if (!res.ok()) return;
      count_via_agg = res.value();
      agg_bytes = tb.bus().StatsOf(tb.client().name()).bytes_received;
    }
    std::printf("%10zu %18zu %18zu %9.2fx   (COUNT %lld == %lld %s)\n", tuples,
                join_bytes, agg_bytes,
                static_cast<double>(join_bytes) /
                    static_cast<double>(agg_bytes),
                static_cast<long long>(count_via_join),
                static_cast<long long>(count_via_agg),
                count_via_join == count_via_agg ? "[ok]" : "[MISMATCH]");
  }
  std::printf("(the aggregate protocol also hides every payload column from "
              "the client)\n\n");
}

}  // namespace

int main() {
  secmed::BenchCheckBuild();
  std::printf("=== Extension-protocol experiments ===\n\n");
  Intersections();
  AggregatesVsFullJoin();
  return 0;
}
