// Runs all three delivery-phase protocols on the same workload and prints
// the Section 6 comparison: what each party learns (Table 1), which
// primitives each protocol applies (Table 2), and the measured costs.
//
//   ./build/examples/protocol_comparison [tuples] [domain]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/leakage.h"
#include "core/pm_protocol.h"
#include "crypto/drbg.h"
#include "mediation/client.h"
#include "mediation/datasource.h"
#include "mediation/mediator.h"
#include "mediation/network.h"
#include "relational/workload.h"

using namespace secmed;

namespace {

struct Row {
  std::string protocol;
  size_t result_tuples = 0;
  size_t client_received_items = 0;  // decryption work
  double wall_ms = 0;
  size_t total_bytes = 0;
  size_t client_interactions = 0;
  size_t source_interactions = 0;
  bool mediator_plaintext = false;
};

}  // namespace

int main(int argc, char** argv) {
  const size_t tuples = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;
  const size_t domain = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 20;

  WorkloadConfig cfg;
  cfg.r1_tuples = tuples;
  cfg.r2_tuples = tuples;
  cfg.r1_domain = domain;
  cfg.r2_domain = domain;
  cfg.common_values = domain / 2;
  Workload w = GenerateWorkload(cfg);

  HmacDrbg key_rng(ToBytes("comparison-keys"));
  CertificationAuthority ca =
      CertificationAuthority::Create(1024, &key_rng).value();
  Client client = Client::Create("client", 1024, 1024, &key_rng).value();
  (void)client.AcquireCredential(ca, {{"role", "analyst"}});

  std::vector<Row> rows;
  struct Named {
    const char* label;
    std::unique_ptr<JoinProtocol> protocol;
  };
  std::vector<Named> protocols;
  protocols.push_back(
      {"das (equi-depth/4)",
       std::make_unique<DasJoinProtocol>(
           DasProtocolOptions{PartitionStrategy::kEquiDepth, 4})});
  protocols.push_back(
      {"commutative (512b)", std::make_unique<CommutativeJoinProtocol>(
                                 CommutativeProtocolOptions{512, false})});
  protocols.push_back(
      {"private matching", std::make_unique<PmJoinProtocol>()});

  for (Named& named : protocols) {
    DataSource s1("hospital"), s2("insurer");
    s1.set_ca_key(ca.public_key());
    s2.set_ca_key(ca.public_key());
    s1.AddRelation("medical", w.r1);
    s2.AddRelation("billing", w.r2);
    Mediator mediator("mediator");
    mediator.RegisterTable("medical", s1.name(), w.r1.schema());
    mediator.RegisterTable("billing", s2.name(), w.r2.schema());
    NetworkBus bus;
    HmacDrbg rng(ToBytes(std::string("run-") + named.label));
    ProtocolContext ctx;
    ctx.client = &client;
    ctx.mediator = &mediator;
    ctx.sources = {{s1.name(), &s1}, {s2.name(), &s2}};
    ctx.bus = &bus;
    ctx.rng = &rng;

    auto start = std::chrono::steady_clock::now();
    auto result = named.protocol->Run(
        "SELECT * FROM medical JOIN billing ON medical.ajoin = billing.ajoin",
        &ctx);
    auto end = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::printf("%s failed: %s\n", named.label,
                  result.status().ToString().c_str());
      return 1;
    }

    Row row;
    row.protocol = named.label;
    row.result_tuples = result->size();
    row.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    row.total_bytes = bus.TotalBytes();
    row.client_interactions = bus.StatsOf(client.name()).interactions;
    row.source_interactions = bus.StatsOf(s1.name()).interactions;
    LeakageReport rep =
        AnalyzeLeakage(named.label, bus, mediator.name(), client.name(), w.r1,
                       w.r2, w.join_attribute, 0);
    row.mediator_plaintext = rep.mediator_saw_plaintext;
    row.client_received_items = rep.client_bytes_received;
    rows.push_back(row);
  }

  std::printf("workload: |R1|=|R2|=%zu, |domactive|=%zu, overlap=%zu\n\n",
              tuples, domain, domain / 2);
  std::printf("%-20s %8s %10s %12s %7s %7s %10s\n", "protocol", "result",
              "wall(ms)", "bytes", "cli-rt", "src-rt", "med-plain");
  for (const Row& r : rows) {
    std::printf("%-20s %8zu %10.1f %12zu %7zu %7zu %10s\n", r.protocol.c_str(),
                r.result_tuples, r.wall_ms, r.total_bytes,
                r.client_interactions, r.source_interactions,
                r.mediator_plaintext ? "LEAK" : "none");
  }

  std::printf(
      "\nTable 1 (what is disclosed beyond the result):\n"
      "  das:          client sees a superset; mediator learns |Ri|, |RC|\n"
      "  commutative:  client sees the exact result; mediator learns\n"
      "                |domactive| and the intersection size\n"
      "  pm:           client receives n+m maskings; mediator learns the\n"
      "                polynomial degrees |domactive|\n"
      "\nTable 2 (applied primitives):\n"
      "  das:          collision-free hash (partition identifiers)\n"
      "  commutative:  ideal hash + commutative exponentiation over QR(p)\n"
      "  pm:           Paillier homomorphic encryption + random masking\n");
  return 0;
}
