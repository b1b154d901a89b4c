// Ablation experiments for the design choices DESIGN.md calls out:
//
//  A1 — footnote 1 (commutative): forwarding fixed-length IDs instead of
//       the encrypted tuple sets to the opposite datasource. Measures the
//       traffic each source must receive and re-send.
//  A2 — DAS partitioning strategy under skew: equi-width ranges degenerate
//       on skewed integer domains while equi-depth buckets stay balanced;
//       measured as the server-result superset factor.
//  A3 — hybrid vs pure-asymmetric encryption of partial results: what the
//       paper's hybrid `encrypt` buys over per-tuple RSA-OAEP chunks.

#include <chrono>
#include <cstdio>

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/testbed.h"
#include "crypto/drbg.h"
#include "crypto/hybrid.h"

#include "bench_env.h"

using namespace secmed;

namespace {

void AblateCommutativePayloadForwarding() {
  std::printf("--- A1: footnote-1 ID optimization (commutative) ---\n");
  std::printf("%10s %18s %18s %10s\n", "tuples", "paper bytes->src",
              "opt bytes->src", "saving");
  for (size_t tuples : {25u, 50u, 100u, 200u}) {
    WorkloadConfig cfg;
    cfg.r1_tuples = tuples;
    cfg.r2_tuples = tuples;
    cfg.r1_domain = tuples / 3;
    cfg.r2_domain = tuples / 3;
    cfg.common_values = tuples / 6;
    Workload w = GenerateWorkload(cfg);

    size_t bytes[2];
    for (int mode = 0; mode < 2; ++mode) {
      MediationTestbed::Options opt;
      opt.seed_label = "a1-" + std::to_string(tuples) + "-" +
                       std::to_string(mode);
      auto tb_or = MediationTestbed::Create(w, opt);
      if (!tb_or.ok()) {
        std::printf("testbed setup failed: %s\n",
                    tb_or.status().ToString().c_str());
        return;
      }
      MediationTestbed& tb = **tb_or;
      CommutativeJoinProtocol comm(
          CommutativeProtocolOptions{512, /*forward_payloads=*/mode == 0});
      if (!comm.Run(tb.JoinSql(), tb.ctx()).ok()) return;
      bytes[mode] = tb.bus().StatsOf(tb.source1().name()).bytes_received +
                    tb.bus().StatsOf(tb.source2().name()).bytes_received;
    }
    std::printf("%10zu %18zu %18zu %9.1fx\n", tuples, bytes[0], bytes[1],
                static_cast<double>(bytes[0]) /
                    static_cast<double>(bytes[1]));
  }
  std::printf("\n");
}

void AblateDasStrategyUnderSkew() {
  std::printf("--- A2: DAS partition strategy under domain skew ---\n");
  std::printf("%8s %22s %22s\n", "skew", "equi-width superset-x",
              "equi-depth superset-x");
  for (double skew : {0.0, 0.8, 1.4}) {
    WorkloadConfig cfg;
    cfg.r1_tuples = 120;
    cfg.r2_tuples = 120;
    cfg.r1_domain = 40;
    cfg.r2_domain = 40;
    cfg.common_values = 20;
    cfg.skew = skew;
    cfg.seed = 17;
    Workload w = GenerateWorkload(cfg);

    double factor[2] = {0, 0};
    const PartitionStrategy strategies[2] = {PartitionStrategy::kEquiWidth,
                                             PartitionStrategy::kEquiDepth};
    for (int s = 0; s < 2; ++s) {
      MediationTestbed::Options opt;
      opt.seed_label = "a2-" + std::to_string(skew) + "-" + std::to_string(s);
      auto tb_or = MediationTestbed::Create(w, opt);
      if (!tb_or.ok()) {
        std::printf("testbed setup failed: %s\n",
                    tb_or.status().ToString().c_str());
        return;
      }
      MediationTestbed& tb = **tb_or;
      DasJoinProtocol das(DasProtocolOptions{strategies[s], 8});
      auto result = das.Run(tb.JoinSql(), tb.ctx());
      if (!result.ok()) return;
      factor[s] = result->empty()
                      ? 0
                      : static_cast<double>(das.last_server_result_size()) /
                            static_cast<double>(result->size());
    }
    std::printf("%8.1f %22.2f %22.2f\n", skew, factor[0], factor[1]);
  }
  std::printf(
      "(the active domain is sparse — a shared region plus disjoint tails —\n"
      " so equi-width ranges span huge value gaps and over-merge, inflating\n"
      " the superset at every skew level; equi-depth tracks actual values)\n\n");
}

void AblateHybridVsPureAsymmetric() {
  std::printf("--- A3: hybrid vs pure-RSA encryption of a partial result ---\n");
  HmacDrbg rng(ToBytes("a3"));
  RsaPrivateKey key = RsaGenerateKey(1024, &rng).value();
  const size_t max_chunk = RsaOaepMaxPlaintext(key.PublicKey());

  std::printf("%12s %14s %14s %10s\n", "bytes", "hybrid(ms)", "pure-RSA(ms)",
              "ratio");
  for (size_t size : {1u << 10, 1u << 14, 1u << 17}) {
    Bytes payload = rng.Generate(size);

    auto t0 = std::chrono::steady_clock::now();
    Bytes hybrid = HybridEncrypt(key.PublicKey(), payload, &rng).value();
    auto t1 = std::chrono::steady_clock::now();
    // Pure asymmetric: OAEP chunk by chunk (what footnote 2 calls the
    // "length restrictions when using asymmetric encryption").
    size_t chunks = 0;
    for (size_t off = 0; off < payload.size(); off += max_chunk) {
      Bytes chunk(payload.begin() + off,
                  payload.begin() +
                      std::min(payload.size(), off + max_chunk));
      (void)RsaOaepEncrypt(key.PublicKey(), chunk, &rng).value();
      ++chunks;
    }
    auto t2 = std::chrono::steady_clock::now();
    double ms_hybrid =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    double ms_rsa = std::chrono::duration<double, std::milli>(t2 - t1).count();
    std::printf("%12zu %14.2f %14.2f %9.1fx\n", size, ms_hybrid, ms_rsa,
                ms_rsa / ms_hybrid);
    (void)chunks;
    (void)hybrid;
  }
  std::printf("\n");
}

void AblateDasTranslatorSettings() {
  std::printf("--- A4: DAS query-translator placement (Section 3.1) ---\n");
  std::printf("%10s %10s %12s %12s %28s\n", "setting", "wall(ms)", "cli-rt",
              "bytes", "mediator sees ranges?");
  WorkloadConfig cfg;
  cfg.r1_tuples = 80;
  cfg.r2_tuples = 80;
  cfg.r1_domain = 30;
  cfg.r2_domain = 30;
  cfg.common_values = 15;
  Workload w = GenerateWorkload(cfg);
  for (DasTranslatorSetting setting :
       {DasTranslatorSetting::kClient, DasTranslatorSetting::kSource,
        DasTranslatorSetting::kMediator}) {
    MediationTestbed::Options opt;
    opt.seed_label =
        std::string("a4-") + DasTranslatorSettingToString(setting);
    auto tb_or = MediationTestbed::Create(w, opt);
    if (!tb_or.ok()) {
      std::printf("testbed setup failed: %s\n",
                  tb_or.status().ToString().c_str());
      return;
    }
    MediationTestbed& tb = **tb_or;
    DasProtocolOptions das_opt;
    das_opt.translator = setting;
    DasJoinProtocol das(das_opt);
    auto start = std::chrono::steady_clock::now();
    auto result = das.Run(tb.JoinSql(), tb.ctx());
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!result.ok()) return;
    // Ranges visible to the mediator iff an active join-value encoding
    // appears in its view (the plaintext index table carries them).
    Bytes view = tb.bus().ViewOf(tb.mediator().name());
    bool ranges = false;
    for (const Value& v : w.r1.ActiveDomain(w.join_attribute).value()) {
      Bytes probe = v.Encode();
      ranges |= std::search(view.begin(), view.end(), probe.begin(),
                            probe.end()) != view.end();
    }
    std::printf("%10s %10.1f %12zu %12zu %28s\n",
                DasTranslatorSettingToString(setting), ms,
                tb.bus().StatsOf(tb.client().name()).interactions,
                tb.bus().TotalBytes(), ranges ? "YES (Section 6 warning)"
                                              : "no");
  }
  std::printf("\n");
}

void ProjectOntoNetworks() {
  std::printf("--- A5: transcripts projected onto real transports ---\n");
  std::printf("%-14s %12s | %12s %12s %12s\n", "protocol", "compute(ms)",
              "LAN(ms)", "WAN(ms)", "mobile(ms)");
  const NetworkCostModel lan{0.2, 1000000};    // 0.2 ms, 1 Gbit/s
  const NetworkCostModel wan{25, 100000};      // 25 ms, 100 Mbit/s
  const NetworkCostModel mobile{60, 10000};    // 60 ms, 10 Mbit/s

  WorkloadConfig cfg;
  cfg.r1_tuples = 100;
  cfg.r2_tuples = 100;
  cfg.r1_domain = 40;
  cfg.r2_domain = 40;
  cfg.common_values = 20;
  Workload w = GenerateWorkload(cfg);

  struct Case {
    const char* label;
    std::unique_ptr<JoinProtocol> protocol;
  };
  std::vector<Case> cases;
  cases.push_back({"das", std::make_unique<DasJoinProtocol>()});
  cases.push_back({"commutative", std::make_unique<CommutativeJoinProtocol>(
                                      CommutativeProtocolOptions{512, false})});
  for (Case& c : cases) {
    MediationTestbed::Options opt;
    opt.seed_label = std::string("a5-") + c.label;
    auto tb_or = MediationTestbed::Create(w, opt);
    if (!tb_or.ok()) {
      std::printf("testbed setup failed: %s\n",
                  tb_or.status().ToString().c_str());
      return;
    }
    MediationTestbed& tb = **tb_or;
    auto start = std::chrono::steady_clock::now();
    if (!c.protocol->Run(tb.JoinSql(), tb.ctx()).ok()) return;
    double compute = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    const auto& transcript = tb.bus().transcript();
    std::printf("%-14s %12.1f | %12.1f %12.1f %12.1f\n", c.label, compute,
                compute + EstimateTransferMs(transcript, lan),
                compute + EstimateTransferMs(transcript, wan),
                compute + EstimateTransferMs(transcript, mobile));
  }
  std::printf(
      "(DAS ships an order of magnitude more bytes; on constrained links "
      "the\n commutative protocol's lead grows accordingly)\n\n");
}

}  // namespace

int main() {
  secmed::BenchCheckBuild();
  std::printf("=== Design-choice ablations ===\n\n");
  AblateCommutativePayloadForwarding();
  AblateDasStrategyUnderSkew();
  AblateHybridVsPureAsymmetric();
  AblateDasTranslatorSettings();
  ProjectOntoNetworks();
  return 0;
}
