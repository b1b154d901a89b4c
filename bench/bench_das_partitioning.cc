// Experiment S3-partition — the DAS partitioning tradeoff discussed in
// Sections 3 and 6 (with references [15] Hore et al. and [8] Ceselli et
// al.): "Small partitions with only a few values are more efficient (less
// post-processing is necessary) but can leak confidential information."
//
// For a fixed workload and a sweep over the partition count the harness
// reports:
//   - superset factor |RC| / |join|  (client post-processing cost), and
//   - inference exposure at the mediator: the average number of candidate
//     values per bucket (1 = the index value pins down the join value
//     exactly; larger = more uncertainty), plus the entropy in bits.

#include <cmath>
#include <cstdio>
#include <map>

#include "core/das_protocol.h"
#include "core/testbed.h"
#include "das/index_table.h"

#include "bench_env.h"

using namespace secmed;

int main() {
  secmed::BenchCheckBuild();
  WorkloadConfig cfg;
  cfg.r1_tuples = 120;
  cfg.r2_tuples = 120;
  cfg.r1_domain = 48;
  cfg.r2_domain = 48;
  cfg.common_values = 24;
  cfg.seed = 5;
  Workload w = GenerateWorkload(cfg);

  std::printf("=== DAS partitioning tradeoff (Sections 3/6, refs [15],[8]) ===\n");
  std::printf("workload: |Ri|=120, |domactive|=48, overlap=24\n\n");
  std::printf("%10s %12s %14s %16s %14s\n", "partitions", "|RC|",
              "superset-x", "values/bucket", "entropy(bits)");

  double prev_superset = 1e18;
  bool monotone = true;

  for (size_t parts : {1u, 2u, 4u, 8u, 16u, 48u}) {
    MediationTestbed::Options opt;
    opt.seed_label = "das-part-" + std::to_string(parts);
    auto tb_or = MediationTestbed::Create(w, opt);
    if (!tb_or.ok()) {
      std::printf("testbed setup failed: %s\n",
                  tb_or.status().ToString().c_str());
      return 1;
    }
    MediationTestbed& tb = **tb_or;
    DasJoinProtocol das(DasProtocolOptions{
        parts >= 48 ? PartitionStrategy::kSingleton
                    : PartitionStrategy::kEquiDepth,
        parts});
    auto result = das.Run(tb.JoinSql(), tb.ctx());
    if (!result.ok()) {
      std::printf("run failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const double superset =
        result->empty()
            ? 0.0
            : static_cast<double>(das.last_server_result_size()) /
                  static_cast<double>(result->size());

    // Inference exposure: rebuild the same-shape index table and measure
    // how many active values share each bucket. (The mediator cannot do
    // this without the ranges, but [8] models exactly this exposure if
    // partition metadata leaks.)
    Bytes salt = tb.rng().Generate(16);
    IndexTable it =
        IndexTable::Build(w.r1, w.join_attribute,
                          parts >= 48 ? PartitionStrategy::kSingleton
                                      : PartitionStrategy::kEquiDepth,
                          parts, salt)
            .value();
    auto domain = w.r1.ActiveDomain(w.join_attribute).value();
    std::map<uint64_t, size_t> bucket_sizes;
    for (const Value& v : domain) {
      bucket_sizes[it.IndexOf(v).value()]++;
    }
    double avg_per_bucket =
        static_cast<double>(domain.size()) /
        static_cast<double>(bucket_sizes.size());
    double entropy = 0;
    for (const auto& [idx, count] : bucket_sizes) {
      double p = static_cast<double>(count) / domain.size();
      // Value uncertainty inside the bucket: log2(count), weighted by the
      // probability of landing in the bucket.
      entropy += p * std::log2(static_cast<double>(count));
    }

    std::printf("%10zu %12zu %14.2f %16.2f %14.2f\n", bucket_sizes.size(),
                das.last_server_result_size(), superset, avg_per_bucket,
                entropy);
    if (superset > prev_superset + 1e-9) monotone = false;
    prev_superset = superset;
  }

  std::printf(
      "\nshape check: superset factor falls as partitions grow"
      " (post-processing ↓) %s\n"
      "             while per-bucket uncertainty falls too (leakage ↑)\n",
      monotone ? "[ok]" : "[MISMATCH]");
  return monotone ? 0 : 1;
}
