// secmedctl — command-line driver of the secure mediation system.
//
// Default mode: loads two relations from CSV files, wires up a full
// in-process deployment (CA, client, mediator, two datasources) and runs
// a join query under the chosen delivery protocol, printing the global
// result and the transcript statistics.
//
// Usage:
//   secmedctl --table1 NAME=FILE.csv --table2 NAME=FILE.csv
//             --query "SELECT * FROM a JOIN b ON a.k = b.k"
//             [--protocol das|commutative|pm]   (default commutative)
//             [--partitions N]                  (DAS, default 4)
//             [--group-bits N]                  (commutative, default 512)
//             [--csv-out FILE]                  (write result as CSV)
//             [--trace-out FILE]                (Chrome trace-event JSON)
//             [--report-out FILE]               (structured run report)
//
// Example:
//   ./build/tools/secmedctl --table1 medical=med.csv
//       --table2 billing=bill.csv
//       --query "SELECT * FROM medical NATURAL JOIN billing"
//
// Drive mode (`secmedctl drive ...`): the client endpoint of a real
// multi-process deployment. Hosts the client party on a TCP port, tells
// each secmedd daemon to join one or more sessions, runs the join over
// the wire, and verifies the deployment agreed — including against a
// reference run over the in-process bus (bit-identical result relation
// and identical per-party byte statistics). See tools/secmedd.cc for a
// full deployment example; flags are shared (tools/deploy_flags.h:
// deployment + protocol + service sections) plus:
//
//   --no-compare-bus                skip the in-process reference run
//   --no-shutdown                   leave the daemons running at exit
//
// With --prepared the whole deployment reuses prepared datasets across
// the session series (the flag rides in the RunSpec, so the daemons
// follow the driver's setting).
//
// Bench-load mode (`secmedctl bench-load ...`): closed/open-loop load
// harness against the in-process query service (src/service/) — same
// workload/protocol/service flags, plus --clients/--queries/--open-rate
// and --compare-cold for the warm-vs-cold speedup check. Every run fails
// unless its queries reproduce the plaintext join. See docs/SERVICE.md.
//
// Telemetry modes (docs/OBSERVABILITY.md):
//   secmedctl stats --peer ... [--watch] [--prom-out F] [--json-out F]
//       scrapes every daemon over ctl_stats and renders the windowed
//       metrics snapshot (table, Prometheus exposition, raw JSON).
//   secmedctl trace-merge --out F IN...
//       splices per-party Chrome traces into one file with one process
//       lane per input, verifying they share a single trace id.
//   secmedctl shutdown --peer ...
//       asks every daemon to drain and exit.
//
// Planner modes (docs/PLANNER.md):
//   secmedctl explain [--sql SQL] [--policy SPEC] [--execute] [--json]
//       prints every candidate plan with predicted cost/leakage; with
//       --execute also runs the chosen plan and reconciles actuals.
//   secmedctl calibrate [--out FILE] | --check [--profile FILE]
//       measures the host's per-primitive cost coefficients (the cost
//       model's CALIBRATION.json) or checks the committed profile.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/pm_protocol.h"
#include "core/remote.h"
#include "core/run_obs.h"
#include "crypto/drbg.h"
#include "deploy_flags.h"
#include "mediation/client.h"
#include "mediation/datasource.h"
#include "mediation/mediator.h"
#include "mediation/network.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/window.h"
#include "plan/calibrate.h"
#include "plan/planner.h"
#include "relational/csv.h"
#include "util/bytes.h"
#include "service/load_harness.h"
#include "service/prepared_registry.h"
#include "service/query_service.h"

using namespace secmed;

namespace {

bool StatsEqual(const PartyStats& a, const PartyStats& b) {
  return a.messages_sent == b.messages_sent &&
         a.messages_received == b.messages_received &&
         a.bytes_sent == b.bytes_sent && a.bytes_received == b.bytes_received &&
         a.interactions == b.interactions;
}

/// Field-by-field expected-vs-actual diff of two parties' statistics,
/// e.g. "bytes_sent 1204 vs 1188, interactions 2 vs 3". Empty when equal.
std::string StatsDiff(const PartyStats& expected, const PartyStats& actual) {
  std::string diff;
  auto field = [&](const char* name, size_t e, size_t a) {
    if (e == a) return;
    if (!diff.empty()) diff += ", ";
    diff += std::string(name) + " " + std::to_string(e) + " vs " +
            std::to_string(a);
  };
  field("messages_sent", expected.messages_sent, actual.messages_sent);
  field("messages_received", expected.messages_received,
        actual.messages_received);
  field("bytes_sent", expected.bytes_sent, actual.bytes_sent);
  field("bytes_received", expected.bytes_received, actual.bytes_received);
  field("interactions", expected.interactions, actual.interactions);
  return diff;
}

/// True iff the two reports describe the same execution: digest, counts
/// and per-party statistics. On mismatch `why` carries a per-party
/// expected-vs-actual breakdown, not just the first offending party.
bool ReportsAgree(const RunReport& a, const RunReport& b, std::string* why) {
  if (a.result_digest != b.result_digest) {
    *why = "result digests differ";
    return false;
  }
  if (a.result_rows != b.result_rows || a.messages != b.messages ||
      a.total_bytes != b.total_bytes) {
    *why = "transcript shape differs: rows " + std::to_string(a.result_rows) +
           " vs " + std::to_string(b.result_rows) + ", messages " +
           std::to_string(a.messages) + " vs " + std::to_string(b.messages) +
           ", bytes " + std::to_string(a.total_bytes) + " vs " +
           std::to_string(b.total_bytes);
    return false;
  }
  if (a.stats.size() != b.stats.size()) {
    *why = "party stats cardinality differs (" +
           std::to_string(a.stats.size()) + " vs " +
           std::to_string(b.stats.size()) + " parties)";
    return false;
  }
  std::string diffs;
  for (size_t i = 0; i < a.stats.size(); ++i) {
    if (a.stats[i].first != b.stats[i].first) {
      if (!diffs.empty()) diffs += "; ";
      diffs += "party order differs at index " + std::to_string(i) + " (" +
               a.stats[i].first + " vs " + b.stats[i].first + ")";
      continue;
    }
    if (!StatsEqual(a.stats[i].second, b.stats[i].second)) {
      if (!diffs.empty()) diffs += "; ";
      diffs += a.stats[i].first + ": " +
               StatsDiff(a.stats[i].second, b.stats[i].second);
    }
  }
  if (!diffs.empty()) {
    *why = "per-party stats differ (expected vs actual) — " + diffs;
    return false;
  }
  return true;
}

/// Loads the cost-model coefficients for the planner: an explicit
/// --calibration file, or the built-in defaults (which mirror the
/// committed CALIBRATION.json). An empty path is the implicit default
/// profile; a --calibration file that cannot be loaded is an error —
/// silently planning on different coefficients than the user asked for
/// would make the EXPLAIN output lie about its own basis.
Result<plan::CalibrationProfile> LoadCalibrationProfile(
    const std::string& path) {
  if (path.empty()) return plan::CalibrationProfile{};
  auto profile = plan::CalibrationProfile::Load(path);
  if (!profile.ok()) {
    return Status::InvalidArgument("--calibration " + path + ": " +
                                   profile.status().ToString());
  }
  return *profile;
}

int DriveUsage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s drive --listen PORT --peer PARTY=HOST:PORT ...\n"
               "          [--no-compare-bus] [--no-shutdown]\n%s%s%s",
               prog, kProtocolFlagsHelp, kServiceFlagsHelp, kDeployFlagsHelp);
  return 2;
}

int DriveMain(int argc, char** argv) {
  DeployArgs args;
  args.host_parties.insert("client");
  bool compare_bus = true;
  bool shutdown_peers = true;
  for (int i = 2; i < argc; ++i) {
    int rc = ParseDeployFlag(argc, argv, &i, &args);
    if (rc == 0) rc = ParseProtocolFlag(argc, argv, &i, &args);
    if (rc == 0) rc = ParseServiceFlag(argc, argv, &i, &args);
    if (rc == 1) continue;
    if (rc < 0) return DriveUsage(argv[0]);
    std::string flag = argv[i];
    if (flag == "--no-compare-bus") {
      compare_bus = false;
    } else if (flag == "--no-shutdown") {
      shutdown_peers = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return DriveUsage(argv[0]);
    }
  }
  if (args.peers.empty() || args.sessions == 0) return DriveUsage(argv[0]);
  std::string protocol = args.protocol;
  const size_t sessions = args.sessions;
  const size_t threads = args.threads;
  const bool concurrent = args.concurrent;

  Workload workload = GenerateWorkload(args.workload);
  auto testbed = MediationTestbed::Create(workload, args.testbed);
  if (!testbed.ok()) {
    std::fprintf(stderr, "testbed: %s\n", testbed.status().ToString().c_str());
    return 1;
  }

  // --protocol auto: the RunSpec announced to the daemons must name a
  // concrete protocol (every process replicates the same deterministic
  // session), so the planner resolves the choice driver-side before
  // anything is announced.
  if (protocol == "auto") {
    plan::PlannerOptions popt;
    popt.params.das_partitions = args.partitions;
    popt.params.group_bits = args.group_bits;
    popt.params.paillier_bits = args.testbed.paillier_bits;
    popt.params.rsa_bits = args.testbed.rsa_bits;
    popt.policy = args.policy;
    auto calibration = LoadCalibrationProfile(args.calibration);
    if (!calibration.ok()) {
      std::fprintf(stderr, "drive: %s\n",
                   calibration.status().ToString().c_str());
      return 1;
    }
    plan::Planner planner(plan::CostModel(*calibration), popt);
    auto choice = planner.Plan((*testbed)->JoinSql(), (*testbed)->ctx());
    if (!choice.ok()) {
      std::fprintf(stderr, "drive: planner: %s\n",
                   choice.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s", choice->ToTable().c_str());
    // Drive announces ONE protocol that every daemon replicates; a
    // multi-level (possibly mixed or reordered) plan cannot be collapsed
    // to its first level's protocol without running something other than
    // the chosen plan. The driven workload is a single join today, so
    // this guards the invariant rather than a reachable path.
    if (choice->chosen.levels.size() > 1) {
      std::fprintf(stderr,
                   "drive: planner chose a %zu-level plan (%s); drive "
                   "replays a single-protocol single-join session — run the "
                   "plan through `secmedctl explain --execute` instead\n",
                   choice->chosen.levels.size(),
                   choice->chosen.ProtocolsLabel().c_str());
      return 1;
    }
    protocol = choice->chosen.levels.front().protocol;
    std::fprintf(stderr, "drive: planner chose %s (%.1f ms predicted)\n",
                 choice->chosen.ProtocolsLabel().c_str(),
                 choice->chosen.total_wall_ms);
  }
  auto host = PeerHost::Listen(args.listen_port);
  if (!host.ok()) {
    std::fprintf(stderr, "listen: %s\n", host.status().ToString().c_str());
    return 1;
  }
  const std::string reply_to = "127.0.0.1:" + std::to_string((*host)->port());
  std::fprintf(stderr, "drive: client on %s, %zu session(s) of %s\n",
               reply_to.c_str(), sessions, protocol.c_str());

  // One scope across all sessions (the tracer is thread-safe, so the
  // concurrent mode interleaves safely); null when no artifact was asked
  // for, which keeps the instrumented code on its no-op path.
  std::unique_ptr<obs::Scope> scope;
  if (args.WantsObs()) scope = std::make_unique<obs::Scope>();

  // One ctl_run per daemon process per session (daemons hosting several
  // parties appear once).
  std::set<Endpoint> daemon_eps;
  for (const auto& [party, ep] : args.peers) daemon_eps.insert(ep);
  std::unique_ptr<FaultInjector> faults = args.MakeFaultInjector();
  Deployment deployment = args.MakeDeployment();
  deployment.faults = faults.get();

  auto make_spec = [&](uint32_t session) {
    RunSpec spec;
    spec.session = session;
    spec.protocol = protocol;
    spec.query = (*testbed)->JoinSql();
    spec.das_partitions = args.partitions;
    spec.group_bits = args.group_bits;
    spec.threads = threads;
    spec.rng_label = args.testbed.seed_label;
    spec.reply_to = reply_to;
    spec.use_prepared = args.use_prepared;
    return spec;
  };

  // The driver replicates every session too, so it keeps its own
  // prepared cache. Its label matches the daemons' (both derive from
  // --seed-label), so prepared bytes agree across the whole deployment
  // and the byte-for-byte wire verification keeps passing warm or cold.
  PreparedDatasetRegistry registry([&] {
    PreparedDatasetRegistry::Options ropt;
    ropt.max_bytes = args.cache_bytes;
    ropt.label = args.testbed.seed_label;
    return ropt;
  }());

  // Announce every session to every daemon, then run the client side.
  for (uint32_t s = 1; s <= sessions; ++s) {
    RunSpec spec = make_spec(s);
    for (const Endpoint& ep : daemon_eps) {
      Status st = SendCtl(host->get(), ep, "client-driver", kCtlRun,
                          spec.Encode(), args.timeout_ms);
      if (!st.ok()) {
        std::fprintf(stderr, "drive: announcing session %u to %s: %s\n", s,
                     ep.ToString().c_str(), st.ToString().c_str());
        return 1;
      }
    }
  }

  std::vector<RunReport> own(sessions);
  std::vector<Relation> results(sessions);
  if (concurrent) {
    std::vector<std::thread> workers;
    for (uint32_t s = 1; s <= sessions; ++s) {
      workers.emplace_back([&, s] {
        own[s - 1] = RunReplicatedSession(testbed->get(), host->get(),
                                          deployment, make_spec(s),
                                          &results[s - 1], scope.get(),
                                          &registry);
      });
    }
    for (std::thread& t : workers) t.join();
  } else {
    for (uint32_t s = 1; s <= sessions; ++s) {
      own[s - 1] = RunReplicatedSession(testbed->get(), host->get(),
                                        deployment, make_spec(s),
                                        &results[s - 1], scope.get(),
                                        &registry);
    }
  }

  int failures = 0;
  for (uint32_t s = 1; s <= sessions; ++s) {
    if (!own[s - 1].ok) {
      std::fprintf(stderr, "drive: session %u failed locally: %s\n", s,
                   own[s - 1].error.c_str());
      ++failures;
    }
  }

  // Collect one report per daemon per session and compare.
  const size_t expected = daemon_eps.size() * sessions;
  for (size_t got = 0; got < expected; ++got) {
    auto ctl = (*host)->WaitCtl(args.timeout_ms);
    if (!ctl.ok()) {
      std::fprintf(stderr, "drive: waiting for reports: %s\n",
                   ctl.status().ToString().c_str());
      ++failures;
      break;
    }
    if (ctl->type == kCtlPeerDown) {
      // A daemon process died. Fail now, naming it, instead of blocking
      // until the full report deadline for frames that can never come.
      std::fprintf(stderr, "drive: %s\n",
                   std::string(ctl->payload.begin(), ctl->payload.end())
                       .c_str());
      ++failures;
      break;
    }
    if (ctl->type != kCtlReport) continue;
    auto report = RunReport::Decode(ctl->payload);
    if (!report.ok()) {
      std::fprintf(stderr, "drive: bad report: %s\n",
                   report.status().ToString().c_str());
      ++failures;
      continue;
    }
    if (report->session == 0 || report->session > sessions) {
      std::fprintf(stderr, "drive: report for unknown session %u\n",
                   report->session);
      ++failures;
      continue;
    }
    const RunReport& mine = own[report->session - 1];
    std::string why;
    if (!report->ok) {
      std::fprintf(stderr, "drive: session %u failed at [%s]: %s\n",
                   report->session, report->party_set.c_str(),
                   report->error.c_str());
      ++failures;
    } else if (mine.ok && !ReportsAgree(mine, *report, &why)) {
      std::fprintf(stderr, "drive: session %u disagreement with [%s]: %s\n",
                   report->session, report->party_set.c_str(), why.c_str());
      ++failures;
    } else {
      std::fprintf(stderr, "drive: session %u report from [%s] agrees\n",
                   report->session, report->party_set.c_str());
    }
  }

  // Reference run over the in-process bus: the acceptance check that the
  // TCP deployment and the single-process run are byte-equivalent.
  if (compare_bus) {
    for (uint32_t s = 1; s <= sessions; ++s) {
      if (!own[s - 1].ok) continue;
      RunReport local = RunLocalSession(testbed->get(), make_spec(s), nullptr,
                                        nullptr, &registry);
      std::string why;
      if (!local.ok) {
        std::fprintf(stderr, "drive: session %u bus reference failed: %s\n", s,
                     local.error.c_str());
        ++failures;
      } else if (!ReportsAgree(own[s - 1], local, &why)) {
        std::fprintf(stderr, "drive: session %u TCP vs bus: %s\n", s,
                     why.c_str());
        ++failures;
      } else {
        std::fprintf(stderr,
                     "drive: session %u TCP == bus (%llu rows, %llu msgs, "
                     "%llu bytes)\n",
                     s, static_cast<unsigned long long>(local.result_rows),
                     static_cast<unsigned long long>(local.messages),
                     static_cast<unsigned long long>(local.total_bytes));
      }
    }
  }

  // Emit the requested observability artifacts. The traffic rows are the
  // transport statistics embedded in this process's own run reports
  // (copied from Transport::StatsOf), summed over the sessions — for a
  // single session they are exactly StatsOf of the session transport.
  if (scope != nullptr) {
    RunReport agg;
    for (const RunReport& rep : own) {
      if (!rep.ok) continue;
      agg.messages += rep.messages;
      agg.total_bytes += rep.total_bytes;
      for (const auto& [party, s] : rep.stats) {
        auto it = std::find_if(agg.stats.begin(), agg.stats.end(),
                               [&](const auto& e) { return e.first == party; });
        if (it == agg.stats.end()) {
          agg.stats.emplace_back(party, s);
        } else {
          it->second.Accumulate(s);
        }
      }
    }
    obs::RunInfo info;
    info.protocol = protocol;
    info.query = (*testbed)->JoinSql();
    info.sessions = static_cast<uint32_t>(sessions);
    info.threads = threads;
    info.messages = agg.messages;
    info.total_bytes = agg.total_bytes;
    std::vector<obs::PartyTraffic> traffic = PartyTrafficRows(agg);
    Status st = WriteObsArtifacts(*scope, info, traffic, args.trace_out,
                                  args.report_out, "client");
    if (!st.ok()) {
      std::fprintf(stderr, "drive: %s\n", st.ToString().c_str());
      ++failures;
    } else {
      std::fprintf(stderr, "%s",
                   obs::RenderRunReportTable(info, *scope, traffic).c_str());
    }
  }

  // Distributed trace collection: pull every daemon's telemetry spans
  // over ctl_trace and splice them with this process's own into one
  // Chrome trace — one lane per party process, one shared trace id.
  if (scope != nullptr && !args.trace_out.empty()) {
    obs::ChromeTraceOptions copt;
    copt.process_name = "client";
    copt.trace_id_hex = scope->trace().TraceIdHex();
    std::vector<std::string> lanes;
    lanes.push_back(obs::RenderChromeTrace(scope->tracer(), copt));
    // The --peer map names this process too — scrape the real daemons.
    std::set<Endpoint> scrape_eps;
    for (const Endpoint& ep : daemon_eps) {
      if (ep.ToString() != reply_to) scrape_eps.insert(ep);
    }
    for (const Endpoint& ep : scrape_eps) {
      Status st = SendCtl(host->get(), ep, "client-driver", kCtlTrace,
                          ToBytes(reply_to), args.timeout_ms);
      if (!st.ok()) {
        std::fprintf(stderr, "drive: trace scrape of %s: %s\n",
                     ep.ToString().c_str(), st.ToString().c_str());
        ++failures;
      }
    }
    size_t remaining = scrape_eps.size();
    for (size_t spins = 0; remaining > 0 && spins < 4 * scrape_eps.size();
         ++spins) {
      auto ctl = (*host)->WaitCtl(args.timeout_ms);
      if (!ctl.ok()) {
        std::fprintf(stderr, "drive: waiting for traces: %s\n",
                     ctl.status().ToString().c_str());
        ++failures;
        break;
      }
      if (ctl->type != kCtlTrace) continue;
      --remaining;
      std::string body(ctl->payload.begin(), ctl->payload.end());
      obs::JsonValue doc;
      if (obs::ParseJson(body, &doc, nullptr) &&
          doc.Find("error") != nullptr) {
        // Daemon runs with --no-telemetry; its lane is simply absent.
        std::fprintf(stderr, "drive: trace scrape of [%s]: %s\n",
                     ctl->from.c_str(),
                     doc.Find("error")->string().c_str());
        continue;
      }
      lanes.push_back(std::move(body));
    }
    std::string merged, error;
    if (!obs::MergeChromeTraces(lanes, &merged, &error)) {
      std::fprintf(stderr, "drive: trace merge: %s\n", error.c_str());
      for (size_t i = 0; i < lanes.size(); ++i)
        std::fprintf(stderr, "lane %zu: %.200s\n", i + 1, lanes[i].c_str());
      ++failures;
    } else {
      const std::string path = args.trace_out + ".merged";
      if (!obs::WriteTextFile(path, merged, &error)) {
        std::fprintf(stderr, "drive: %s\n", error.c_str());
        ++failures;
      } else {
        std::fprintf(stderr, "drive: merged trace (%zu lanes) -> %s\n",
                     lanes.size(), path.c_str());
      }
    }
  }

  if (shutdown_peers) {
    for (const Endpoint& ep : daemon_eps) {
      (void)SendCtl(host->get(), ep, "client-driver", kCtlShutdown, Bytes(),
                    args.timeout_ms);
    }
  }
  (*host)->Stop();
  if (failures == 0 && !results.empty()) {
    std::printf("%s", results[0].ToString(20).c_str());
    std::fprintf(stderr, "drive: all %zu session(s) verified over TCP\n",
                 sessions);
  }
  return failures == 0 ? 0 : 1;
}

int BenchLoadUsage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s bench-load [--clients N] [--queries N]\n"
               "          [--open-rate QPS] [--compare-cold]\n"
               "          [--require-speedup X] [--json-out FILE]\n%s%s%s",
               prog, kProtocolFlagsHelp, kServiceFlagsHelp, kDeployFlagsHelp);
  return 2;
}

/// google-benchmark-shaped JSON of the load runs (context + benchmarks
/// with real_time/time_unit), so tools/bench_diff.py diffs bench-load
/// results across commits like any other recorded benchmark file.
Status WriteBenchLoadJson(
    const std::string& path, const std::string& protocol,
    const std::vector<std::pair<std::string, LoadStats>>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::time_t now = std::time(nullptr);
  char date[64];
  std::strftime(date, sizeof(date), "%FT%T%z", std::localtime(&now));
#if defined(__OPTIMIZE__)
  const char* build = "optimized";
#else
  const char* build = "unoptimized";
#endif
  std::fprintf(f,
               "{\n  \"context\": {\n    \"date\": \"%s\",\n"
               "    \"executable\": \"secmedctl bench-load\",\n"
               "    \"secmed_build\": \"%s\"\n  },\n  \"benchmarks\": [\n",
               date, build);
  for (size_t i = 0; i < runs.size(); ++i) {
    const std::string& label = runs[i].first;
    const LoadStats& s = runs[i].second;
    std::fprintf(
        f,
        "    {\n      \"name\": \"BM_ServiceLoad/%s/%s\",\n"
        "      \"run_type\": \"iteration\",\n      \"iterations\": %llu,\n"
        "      \"real_time\": %.1f,\n      \"cpu_time\": %.1f,\n"
        "      \"time_unit\": \"ns\",\n"
        "      \"qps\": %.3f,\n      \"p50_ms\": %.3f,\n"
        "      \"p95_ms\": %.3f,\n      \"p99_ms\": %.3f,\n"
        "      \"shed_rate\": %.4f,\n      \"cache_hit_rate\": %.4f\n    }%s\n",
        protocol.c_str(), label.c_str(),
        static_cast<unsigned long long>(
            s.completed == 0 ? 1 : s.completed),
        s.mean_ms * 1e6, s.mean_ms * 1e6, s.throughput_qps, s.p50_ms, s.p95_ms,
        s.p99_ms, s.shed_rate, s.cache_hit_rate,
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return Status::OK();
}

int BenchLoadMain(int argc, char** argv) {
  DeployArgs args;
  args.use_prepared = true;  // bench the warm service unless --no-prepared
  size_t clients = 0;  // 0 = --max-sessions
  size_t queries = 64;
  double open_rate = 0.0;
  bool compare_cold = false;
  double require_speedup = 0.0;
  std::string json_out;
  for (int i = 2; i < argc; ++i) {
    int rc = ParseDeployFlag(argc, argv, &i, &args);
    if (rc == 0) rc = ParseProtocolFlag(argc, argv, &i, &args);
    if (rc == 0) rc = ParseServiceFlag(argc, argv, &i, &args);
    if (rc == 1) continue;
    if (rc < 0) return BenchLoadUsage(argv[0]);
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--clients") {
      const char* v = next();
      if (v == nullptr) return BenchLoadUsage(argv[0]);
      clients = std::strtoul(v, nullptr, 10);
    } else if (flag == "--queries") {
      const char* v = next();
      if (v == nullptr) return BenchLoadUsage(argv[0]);
      queries = std::strtoul(v, nullptr, 10);
    } else if (flag == "--open-rate") {
      const char* v = next();
      if (v == nullptr) return BenchLoadUsage(argv[0]);
      open_rate = std::strtod(v, nullptr);
    } else if (flag == "--compare-cold") {
      compare_cold = true;
    } else if (flag == "--require-speedup") {
      const char* v = next();
      if (v == nullptr) return BenchLoadUsage(argv[0]);
      require_speedup = std::strtod(v, nullptr);
    } else if (flag == "--json-out") {
      const char* v = next();
      if (v == nullptr) return BenchLoadUsage(argv[0]);
      json_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return BenchLoadUsage(argv[0]);
    }
  }
  if (queries == 0) return BenchLoadUsage(argv[0]);

  Workload workload = GenerateWorkload(args.workload);
  auto testbed = MediationTestbed::Create(workload, args.testbed);
  if (!testbed.ok()) {
    std::fprintf(stderr, "testbed: %s\n", testbed.status().ToString().c_str());
    return 1;
  }
  auto calibration = LoadCalibrationProfile(args.calibration);
  if (!calibration.ok()) {
    std::fprintf(stderr, "bench-load: %s\n",
                 calibration.status().ToString().c_str());
    return 1;
  }

  // Each mode gets a fresh service (and so a fresh cache): "cold" never
  // attaches the cache, "warm" attaches it and runs one uncounted query
  // first, so the measured run is the steady state of a long-lived
  // service.
  auto run_mode = [&](bool prepared, bool warmup) {
    QueryService::Options opt;
    opt.max_concurrent = args.max_sessions;
    opt.queue_depth = args.queue_depth;
    opt.cache_bytes = args.cache_bytes;
    opt.use_prepared = prepared;
    opt.rng_label = args.testbed.seed_label;
    opt.threads = args.threads;
    opt.calibration = *calibration;
    QueryService service(testbed->get(), opt);
    LoadConfig cfg;
    cfg.clients = clients != 0 ? clients : args.max_sessions;
    cfg.queries = queries;
    cfg.open_rate_qps = open_rate;
    cfg.query.protocol = args.protocol;
    cfg.query.sql = (*testbed)->JoinSql();
    cfg.query.das_partitions = args.partitions;
    cfg.query.group_bits = args.group_bits;
    cfg.query.policy = args.policy;
    if (warmup) {
      auto warm = service.Run(cfg.query);
      if (!warm.ok() || !warm->status.ok()) {
        std::fprintf(stderr, "bench-load: warmup query failed\n");
      }
    }
    return RunLoadHarness(&service, cfg);
  };

  std::vector<std::pair<std::string, LoadStats>> runs;
  int failures = 0;
  if (compare_cold) {
    LoadStats cold = run_mode(false, false);
    std::fprintf(stderr, "%s",
                 RenderLoadStats("cold (no prepared cache)", cold).c_str());
    LoadStats warm = run_mode(true, true);
    std::fprintf(stderr, "%s",
                 RenderLoadStats("warm (prepared cache)", warm).c_str());
    runs.emplace_back("cold", cold);
    runs.emplace_back("warm", warm);
    const double speedup = cold.throughput_qps > 0.0
                               ? warm.throughput_qps / cold.throughput_qps
                               : 0.0;
    std::fprintf(stderr, "bench-load: warm/cold speedup %.2fx\n", speedup);
    if (require_speedup > 0.0 && speedup < require_speedup) {
      std::fprintf(stderr, "bench-load: FAIL: speedup below %.2fx\n",
                   require_speedup);
      ++failures;
    }
  } else {
    LoadStats s = run_mode(args.use_prepared, args.use_prepared);
    const std::string label = args.use_prepared ? "warm" : "cold";
    std::fprintf(stderr, "%s", RenderLoadStats(label, s).c_str());
    runs.emplace_back(label, s);
  }
  // Every completed query must reconstruct the plaintext join: the
  // queries of a run agree with each other, and their common digest is
  // the trusted-mediator reference's. A run that completes no query
  // checked nothing and fails too.
  const Bytes expected = CanonicalResultDigest((*testbed)->ExpectedJoin());
  for (const auto& [label, s] : runs) {
    if (s.errors > 0) {
      std::fprintf(stderr, "bench-load: FAIL: %s: queries failed\n",
                   label.c_str());
      ++failures;
    }
    if (!s.digests_agree || s.result_digest != expected) {
      std::fprintf(stderr,
                   "bench-load: FAIL: %s: results differ from the plaintext "
                   "join\n",
                   label.c_str());
      ++failures;
    }
  }
  if (!json_out.empty()) {
    Status st = WriteBenchLoadJson(json_out, args.protocol, runs);
    if (!st.ok()) {
      std::fprintf(stderr, "bench-load: %s\n", st.ToString().c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int ExplainUsage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s explain [--sql SQL] [--execute] [--json]\n"
               "          [workload/testbed flags] [protocol/service "
               "flags]\n%s%s%s",
               prog, kProtocolFlagsHelp, kServiceFlagsHelp, kDeployFlagsHelp);
  return 2;
}

/// `secmedctl explain`: runs the cost-based planner over the synthetic
/// workload and prints every candidate plan with predicted cost and
/// leakage (docs/PLANNER.md). --execute additionally runs the chosen
/// plan and reconciles predicted vs. actual; --json emits the structured
/// secmed.plan_explain.v1 document instead of the table.
int ExplainMain(int argc, char** argv) {
  DeployArgs args;
  args.protocol = "auto";
  std::string sql;
  bool execute = false;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    int rc = ParseDeployFlag(argc, argv, &i, &args);
    if (rc == 0) rc = ParseProtocolFlag(argc, argv, &i, &args);
    if (rc == 0) rc = ParseServiceFlag(argc, argv, &i, &args);
    if (rc == 1) continue;
    if (rc < 0) return ExplainUsage(argv[0]);
    std::string flag = argv[i];
    if (flag == "--sql") {
      if (i + 1 >= argc) return ExplainUsage(argv[0]);
      sql = argv[++i];
    } else if (flag == "--execute") {
      execute = true;
    } else if (flag == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return ExplainUsage(argv[0]);
    }
  }

  Workload workload = GenerateWorkload(args.workload);
  auto testbed = MediationTestbed::Create(workload, args.testbed);
  if (!testbed.ok()) {
    std::fprintf(stderr, "testbed: %s\n", testbed.status().ToString().c_str());
    return 1;
  }

  auto calibration = LoadCalibrationProfile(args.calibration);
  if (!calibration.ok()) {
    std::fprintf(stderr, "explain: %s\n",
                 calibration.status().ToString().c_str());
    return 1;
  }
  QueryService::Options opt;
  opt.max_concurrent = args.max_sessions;
  opt.queue_depth = args.queue_depth;
  opt.cache_bytes = args.cache_bytes;
  opt.use_prepared = true;
  opt.rng_label = args.testbed.seed_label;
  opt.threads = args.threads;
  opt.calibration = *calibration;
  QueryService service(testbed->get(), opt);

  QueryService::Query query;
  query.protocol = args.protocol;
  query.sql = sql.empty() ? (*testbed)->JoinSql() : sql;
  query.das_partitions = args.partitions;
  query.group_bits = args.group_bits;
  query.policy = args.policy;

  auto choice = service.Explain(query);
  if (!choice.ok()) {
    std::fprintf(stderr, "explain: %s\n", choice.status().ToString().c_str());
    return 1;
  }
  if (!json) std::printf("%s", choice->ToTable().c_str());

  if (execute) {
    auto outcome = service.Run(query);
    if (!outcome.ok()) {
      std::fprintf(stderr, "explain: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    if (!outcome->status.ok()) {
      std::fprintf(stderr, "explain: execution failed: %s\n",
                   outcome->status.ToString().c_str());
      return 1;
    }
    plan::PlanActuals actuals = outcome->Actuals();
    const plan::PlanChoice& executed =
        outcome->plan != nullptr ? *outcome->plan : *choice;
    if (json) {
      std::printf("%s\n", obs::RenderJson(executed.ToJson(&actuals)).c_str());
    } else {
      std::printf(
          "executed: %.1f ms, %llu wire bytes, %zu rows, %llu messages "
          "(predicted %.1f ms)\n",
          outcome->latency_ms,
          static_cast<unsigned long long>(outcome->bytes),
          outcome->result.tuples().size(),
          static_cast<unsigned long long>(outcome->messages),
          executed.chosen.total_wall_ms);
    }
  } else if (json) {
    std::printf("%s\n", obs::RenderJson(choice->ToJson()).c_str());
  }
  return 0;
}

int CalibrateUsage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s calibrate [--out FILE]\n"
               "          [--check [--profile FILE] [--tolerance X]]\n"
               "          [--samples N] [--reps N]\n"
               "  measures the per-primitive cost coefficients of this host\n"
               "  (docs/PLANNER.md). Default: write the profile JSON to\n"
               "  CALIBRATION.json. --check compares against a committed\n"
               "  profile instead and exits 1 on drift beyond the tolerance\n"
               "  factor (default 8; CI runs this warn-only).\n",
               prog);
  return 2;
}

int CalibrateMain(int argc, char** argv) {
  std::string out = "CALIBRATION.json";
  std::string profile_path = "CALIBRATION.json";
  bool check = false;
  double tolerance = 8.0;
  plan::CalibrateOptions copt;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return CalibrateUsage(argv[0]);
      out = v;
    } else if (flag == "--profile") {
      const char* v = next();
      if (v == nullptr) return CalibrateUsage(argv[0]);
      profile_path = v;
    } else if (flag == "--check") {
      check = true;
    } else if (flag == "--tolerance") {
      const char* v = next();
      if (v == nullptr) return CalibrateUsage(argv[0]);
      tolerance = std::strtod(v, nullptr);
      if (tolerance <= 1.0) return CalibrateUsage(argv[0]);
    } else if (flag == "--samples") {
      size_t n = 0;
      if (!ParseStrictSize("--samples", next(), &n) || n == 0) {
        return CalibrateUsage(argv[0]);
      }
      copt.samples = n;
    } else if (flag == "--reps") {
      size_t n = 0;
      if (!ParseStrictSize("--reps", next(), &n) || n == 0) {
        return CalibrateUsage(argv[0]);
      }
      copt.reps = n;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return CalibrateUsage(argv[0]);
    }
  }

  std::fprintf(stderr, "calibrate: running micro-probes (this takes a few "
                       "seconds)...\n");
  auto measured = plan::RunCalibration(copt);
  if (!measured.ok()) {
    std::fprintf(stderr, "calibrate: %s\n",
                 measured.status().ToString().c_str());
    return 1;
  }

  if (check) {
    auto reference = plan::CalibrationProfile::Load(profile_path);
    if (!reference.ok()) {
      std::fprintf(stderr, "calibrate: loading %s: %s\n", profile_path.c_str(),
                   reference.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> drift =
        plan::CompareProfiles(*reference, *measured, tolerance);
    if (drift.empty()) {
      std::fprintf(stderr,
                   "calibrate: %s matches this host (tolerance %.1fx)\n",
                   profile_path.c_str(), tolerance);
      return 0;
    }
    for (const std::string& msg : drift) {
      std::fprintf(stderr, "calibrate: drift: %s\n", msg.c_str());
    }
    std::fprintf(stderr,
                 "calibrate: %zu coefficient(s) drifted; regenerate with "
                 "`secmedctl calibrate --out %s`\n",
                 drift.size(), profile_path.c_str());
    return 1;
  }

  Status st = measured->Save(out);
  if (!st.ok()) {
    std::fprintf(stderr, "calibrate: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", obs::RenderJson(measured->ToJson()).c_str());
  std::fprintf(stderr, "calibrate: wrote %s\n", out.c_str());
  return 0;
}

/// Unique daemon endpoints of the --peer map (daemons hosting several
/// parties appear once).
std::set<Endpoint> DaemonEndpoints(const DeployArgs& args) {
  std::set<Endpoint> eps;
  for (const auto& [party, ep] : args.peers) eps.insert(ep);
  return eps;
}

int StatsUsage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s stats --peer PARTY=HOST:PORT ... [--listen PORT]\n"
               "          [--watch] [--interval-ms N] [--count N]\n"
               "          [--prom-out FILE] [--json-out FILE]\n",
               prog);
  return 2;
}

/// One scrape round: ask every daemon for its windowed-metrics snapshot
/// over ctl_stats and collect the JSON replies (party set -> body).
/// Partial results are returned with a failure count, so --watch keeps
/// going when one daemon is slow.
int ScrapeStats(PeerHost* host, const std::set<Endpoint>& eps,
                const std::string& reply_to, int timeout_ms,
                std::vector<std::pair<std::string, std::string>>* bodies) {
  int failures = 0;
  for (const Endpoint& ep : eps) {
    Status st = SendCtl(host, ep, "stats-client", kCtlStats, ToBytes(reply_to),
                        timeout_ms);
    if (!st.ok()) {
      std::fprintf(stderr, "stats: scraping %s: %s\n", ep.ToString().c_str(),
                   st.ToString().c_str());
      ++failures;
    }
  }
  size_t remaining = eps.size();
  for (size_t spins = 0; remaining > 0 && spins < 4 * eps.size(); ++spins) {
    auto ctl = host->WaitCtl(timeout_ms);
    if (!ctl.ok()) {
      std::fprintf(stderr, "stats: waiting for snapshots: %s\n",
                   ctl.status().ToString().c_str());
      ++failures;
      break;
    }
    if (ctl->type != kCtlStats) continue;
    --remaining;
    bodies->emplace_back(ctl->from,
                         std::string(ctl->payload.begin(), ctl->payload.end()));
  }
  failures += static_cast<int>(remaining);
  std::sort(bodies->begin(), bodies->end());
  return failures;
}

int StatsMain(int argc, char** argv) {
  DeployArgs args;
  bool watch = false;
  size_t interval_ms = 2000;
  size_t count = 0;  // 0 = until interrupted (--watch) / exactly 1 scrape
  std::string prom_out;
  std::string json_out;
  for (int i = 2; i < argc; ++i) {
    int rc = ParseDeployFlag(argc, argv, &i, &args);
    if (rc == 1) continue;
    if (rc < 0) return StatsUsage(argv[0]);
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--watch") {
      watch = true;
    } else if (flag == "--interval-ms") {
      const char* v = next();
      if (v == nullptr) return StatsUsage(argv[0]);
      interval_ms = std::strtoul(v, nullptr, 10);
    } else if (flag == "--count") {
      const char* v = next();
      if (v == nullptr) return StatsUsage(argv[0]);
      count = std::strtoul(v, nullptr, 10);
    } else if (flag == "--prom-out") {
      const char* v = next();
      if (v == nullptr) return StatsUsage(argv[0]);
      prom_out = v;
    } else if (flag == "--json-out") {
      const char* v = next();
      if (v == nullptr) return StatsUsage(argv[0]);
      json_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return StatsUsage(argv[0]);
    }
  }
  if (args.peers.empty()) return StatsUsage(argv[0]);
  std::set<Endpoint> eps = DaemonEndpoints(args);

  auto host = PeerHost::Listen(args.listen_port);
  if (!host.ok()) {
    std::fprintf(stderr, "listen: %s\n", host.status().ToString().c_str());
    return 1;
  }
  const std::string reply_to = "127.0.0.1:" + std::to_string((*host)->port());

  // Previous round's parsed snapshot per party set, for --watch deltas.
  std::map<std::string, obs::WindowRegistry::Snapshot> previous;
  const size_t rounds = count != 0 ? count : (watch ? SIZE_MAX : 1);
  int failures = 0;
  for (size_t round = 0; round < rounds; ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::vector<std::pair<std::string, std::string>> bodies;
    failures +=
        ScrapeStats(host->get(), eps, reply_to, args.timeout_ms, &bodies);
    std::string json_all;
    std::string prom_all;
    for (const auto& [from, body] : bodies) {
      obs::WindowRegistry::Snapshot snap;
      std::string error;
      if (!obs::ParseStatsJson(body, &snap, &error)) {
        std::fprintf(stderr, "stats: [%s] bad snapshot: %s (%s)\n",
                     from.c_str(), error.c_str(),
                     body.substr(0, 120).c_str());
        ++failures;
        continue;
      }
      // The render/parse pair is the wire contract — a snapshot that
      // does not survive the round trip is a bug, so check every scrape.
      if (obs::RenderStatsJson(snap) != body) {
        std::fprintf(stderr, "stats: [%s] snapshot does not round-trip\n",
                     from.c_str());
        ++failures;
      }
      json_all += body;
      json_all += '\n';
      prom_all += obs::RenderPrometheus(snap);
      const auto prev = previous.find(from);
      if (watch && prev != previous.end()) {
        std::printf("=== %s (delta over %.1fs) ===\n%s", from.c_str(),
                    static_cast<double>(snap.at_ns - prev->second.at_ns) / 1e9,
                    obs::RenderStatsTable(obs::DeltaStats(prev->second, snap))
                        .c_str());
      } else {
        std::printf("=== %s ===\n%s", from.c_str(),
                    obs::RenderStatsTable(snap).c_str());
      }
      previous[from] = std::move(snap);
    }
    std::fflush(stdout);
    if (!json_out.empty() && !json_all.empty()) {
      std::string error;
      if (!obs::WriteTextFile(json_out, json_all, &error)) {
        std::fprintf(stderr, "stats: %s\n", error.c_str());
        ++failures;
      }
    }
    if (!prom_out.empty() && !prom_all.empty()) {
      std::string error;
      if (!obs::WriteTextFile(prom_out, prom_all, &error)) {
        std::fprintf(stderr, "stats: %s\n", error.c_str());
        ++failures;
      }
    }
  }
  (*host)->Stop();
  return failures == 0 ? 0 : 1;
}

int TraceMergeUsage(const char* prog) {
  std::fprintf(stderr, "usage: %s trace-merge --out FILE IN.json ...\n", prog);
  return 2;
}

int TraceMergeMain(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--out") {
      if (i + 1 >= argc) return TraceMergeUsage(argv[0]);
      out_path = argv[++i];
    } else if (flag.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return TraceMergeUsage(argv[0]);
    } else {
      inputs.push_back(flag);
    }
  }
  if (out_path.empty() || inputs.empty()) return TraceMergeUsage(argv[0]);
  std::vector<std::string> docs;
  for (const std::string& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "trace-merge: cannot read %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    docs.push_back(buf.str());
  }
  std::string merged, error;
  if (!obs::MergeChromeTraces(docs, &merged, &error)) {
    std::fprintf(stderr, "trace-merge: %s\n", error.c_str());
    return 1;
  }
  if (!obs::WriteTextFile(out_path, merged, &error)) {
    std::fprintf(stderr, "trace-merge: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "trace-merge: %zu lane(s) -> %s\n", docs.size(),
               out_path.c_str());
  return 0;
}

int ShutdownMain(int argc, char** argv) {
  DeployArgs args;
  for (int i = 2; i < argc; ++i) {
    int rc = ParseDeployFlag(argc, argv, &i, &args);
    if (rc == 1) continue;
    if (rc == 0) std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
    if (rc != 1) {
      std::fprintf(stderr, "usage: %s shutdown --peer PARTY=HOST:PORT ...\n",
                   argv[0]);
      return 2;
    }
  }
  if (args.peers.empty()) {
    std::fprintf(stderr, "usage: %s shutdown --peer PARTY=HOST:PORT ...\n",
                 argv[0]);
    return 2;
  }
  auto host = PeerHost::Listen(args.listen_port);
  if (!host.ok()) {
    std::fprintf(stderr, "listen: %s\n", host.status().ToString().c_str());
    return 1;
  }
  int failures = 0;
  for (const Endpoint& ep : DaemonEndpoints(args)) {
    Status st = SendCtl(host->get(), ep, "shutdown-client", kCtlShutdown,
                        Bytes(), args.timeout_ms);
    if (!st.ok()) {
      std::fprintf(stderr, "shutdown: %s: %s\n", ep.ToString().c_str(),
                   st.ToString().c_str());
      ++failures;
    }
  }
  (*host)->Stop();
  return failures == 0 ? 0 : 1;
}

struct Args {
  std::string table1, file1;
  std::string table2, file2;
  std::string query;
  std::string protocol = "commutative";
  size_t partitions = 4;
  size_t group_bits = 512;
  std::string csv_out;
  std::string trace_out;
  std::string report_out;
};

bool ParseTableArg(const char* arg, std::string* name, std::string* file) {
  const char* eq = std::strchr(arg, '=');
  if (eq == nullptr) return false;
  *name = std::string(arg, eq);
  *file = std::string(eq + 1);
  return !name->empty() && !file->empty();
}

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --table1 NAME=FILE --table2 NAME=FILE --query SQL\n"
               "          [--protocol das|commutative|pm] [--partitions N]\n"
               "          [--group-bits N] [--csv-out FILE]\n"
               "          [--trace-out FILE] [--report-out FILE]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "drive") == 0) {
    return DriveMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "bench-load") == 0) {
    return BenchLoadMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "stats") == 0) {
    return StatsMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "trace-merge") == 0) {
    return TraceMergeMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "shutdown") == 0) {
    return ShutdownMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "explain") == 0) {
    return ExplainMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "calibrate") == 0) {
    return CalibrateMain(argc, argv);
  }
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--table1") {
      const char* v = next();
      if (!v || !ParseTableArg(v, &args.table1, &args.file1)) {
        return Usage(argv[0]);
      }
    } else if (flag == "--table2") {
      const char* v = next();
      if (!v || !ParseTableArg(v, &args.table2, &args.file2)) {
        return Usage(argv[0]);
      }
    } else if (flag == "--query") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      args.query = v;
    } else if (flag == "--protocol") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      args.protocol = v;
    } else if (flag == "--partitions") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      args.partitions = std::strtoul(v, nullptr, 10);
    } else if (flag == "--group-bits") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      args.group_bits = std::strtoul(v, nullptr, 10);
    } else if (flag == "--csv-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      args.csv_out = v;
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      args.trace_out = v;
    } else if (flag.rfind("--trace-out=", 0) == 0) {
      args.trace_out = flag.substr(std::strlen("--trace-out="));
      if (args.trace_out.empty()) return Usage(argv[0]);
    } else if (flag == "--report-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      args.report_out = v;
    } else if (flag.rfind("--report-out=", 0) == 0) {
      args.report_out = flag.substr(std::strlen("--report-out="));
      if (args.report_out.empty()) return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return Usage(argv[0]);
    }
  }
  if (args.table1.empty() || args.table2.empty() || args.query.empty()) {
    return Usage(argv[0]);
  }

  auto r1 = LoadCsvFile(args.file1);
  if (!r1.ok()) {
    std::fprintf(stderr, "loading %s: %s\n", args.file1.c_str(),
                 r1.status().ToString().c_str());
    return 1;
  }
  auto r2 = LoadCsvFile(args.file2);
  if (!r2.ok()) {
    std::fprintf(stderr, "loading %s: %s\n", args.file2.c_str(),
                 r2.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded %s: %zu rows %s\n", args.table1.c_str(),
               r1->size(), r1->schema().ToString().c_str());
  std::fprintf(stderr, "loaded %s: %zu rows %s\n", args.table2.c_str(),
               r2->size(), r2->schema().ToString().c_str());

  HmacDrbg rng;
  auto ca = CertificationAuthority::Create(1024, &rng);
  if (!ca.ok()) return 1;
  auto client = Client::Create("client", 1024, 1024, &rng);
  if (!client.ok()) return 1;
  if (!client->AcquireCredential(*ca, {{"role", "operator"}}).ok()) return 1;

  DataSource s1("source-1"), s2("source-2");
  s1.set_ca_key(ca->public_key());
  s2.set_ca_key(ca->public_key());
  s1.AddRelation(args.table1, *r1);
  s2.AddRelation(args.table2, *r2);

  Mediator mediator("mediator");
  mediator.RegisterTable(args.table1, s1.name(), r1->schema());
  mediator.RegisterTable(args.table2, s2.name(), r2->schema());

  // Instrumentation is opt-in: no artifact flags → null scope → the
  // instrumented code stays on its no-op path.
  std::unique_ptr<obs::Scope> scope;
  if (!args.trace_out.empty() || !args.report_out.empty()) {
    scope = std::make_unique<obs::Scope>();
  }

  NetworkBus bus;
  bus.SetObsScope(scope.get());
  ProtocolContext ctx;
  ctx.client = &client.value();
  ctx.mediator = &mediator;
  ctx.sources = {{s1.name(), &s1}, {s2.name(), &s2}};
  ctx.bus = &bus;
  ctx.rng = &rng;
  ctx.obs = scope.get();

  std::unique_ptr<JoinProtocol> protocol;
  if (args.protocol == "das") {
    protocol = std::make_unique<DasJoinProtocol>(
        DasProtocolOptions{PartitionStrategy::kEquiDepth, args.partitions});
  } else if (args.protocol == "commutative") {
    protocol = std::make_unique<CommutativeJoinProtocol>(
        CommutativeProtocolOptions{args.group_bits, false});
  } else if (args.protocol == "pm") {
    protocol = std::make_unique<PmJoinProtocol>();
  } else {
    std::fprintf(stderr, "unknown protocol: %s\n", args.protocol.c_str());
    return Usage(argv[0]);
  }

  auto result = protocol->Run(args.query, &ctx);
  if (!result.ok()) {
    std::fprintf(stderr, "protocol failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (args.csv_out.empty()) {
    std::printf("%s", result->ToString(100).c_str());
  } else {
    Status st = WriteCsvFile(*result, args.csv_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu rows to %s\n", result->size(),
                 args.csv_out.c_str());
  }
  PartyStats med = bus.StatsOf(mediator.name());
  std::fprintf(stderr,
               "protocol=%s mediator routed %zu msgs / %zu bytes; total wire "
               "%zu bytes\n",
               args.protocol.c_str(), med.messages_received,
               med.bytes_received, bus.TotalBytes());

  if (scope != nullptr) {
    obs::RunInfo info;
    info.protocol = args.protocol;
    info.query = args.query;
    info.sessions = 1;
    info.threads = 1;
    info.messages = bus.transcript().size();
    info.total_bytes = bus.TotalBytes();
    std::vector<obs::PartyTraffic> traffic = PartyTrafficRows(
        bus, {client->name(), mediator.name(), s1.name(), s2.name()});
    Status st = WriteObsArtifacts(*scope, info, traffic, args.trace_out,
                                  args.report_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s",
                 obs::RenderRunReportTable(info, *scope, traffic).c_str());
  }
  return 0;
}
