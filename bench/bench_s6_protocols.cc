// Experiment S6-perf — the quantitative counterpart of Section 6's prose:
// end-to-end wall time of the three delivery protocols as relation size
// and active-domain size grow.
//
// Expected shape (the paper's conclusion): the commutative approach is
// the most efficient; PM pays the quadratic blind-polynomial evaluation
// (O(n·m) homomorphic operations); DAS is cheap at the sources but ships
// per-tuple hybrid ciphertexts and makes the client post-process a
// superset.

// Instrumented run (`--trace-out FILE` / `--report-out FILE`): every
// protocol run traces into one obs scope, and after the suite the
// Section-6 style table is printed straight from the run report — the
// benchmark numbers and the instrumentation read the same spans, so they
// cannot diverge. Without the flags the scope is null and the protocols
// run on the no-op path (bench_obs_overhead measures that cost).

#include <benchmark/benchmark.h>

#include "bench_env.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/pm_protocol.h"
#include "core/run_obs.h"
#include "core/testbed.h"

namespace secmed {
namespace {

/// Null unless the harness was started with an artifact flag.
obs::Scope* g_scope = nullptr;

/// Party traffic accumulated across every instrumented run of the suite
/// (a RunReport doubles as the accumulator so PartyTrafficRows applies).
RunReport g_traffic;

void AccumulateTraffic(NetworkBus& bus) {
  std::set<std::string> parties;
  for (const Message& m : bus.transcript()) {
    parties.insert(m.from);
    parties.insert(m.to);
  }
  for (const std::string& p : parties) {
    PartyStats s = bus.StatsOf(p);
    bool merged = false;
    for (auto& [party, sum] : g_traffic.stats) {
      if (party == p) {
        sum.Accumulate(s);
        merged = true;
        break;
      }
    }
    if (!merged) g_traffic.stats.emplace_back(p, std::move(s));
  }
  g_traffic.messages += bus.transcript().size();
  g_traffic.total_bytes += bus.TotalBytes();
}

Workload MakeWorkload(int64_t tuples, int64_t domain) {
  WorkloadConfig cfg;
  cfg.r1_tuples = static_cast<size_t>(tuples);
  cfg.r2_tuples = static_cast<size_t>(tuples);
  cfg.r1_domain = static_cast<size_t>(domain);
  cfg.r2_domain = static_cast<size_t>(domain);
  cfg.common_values = static_cast<size_t>(domain) / 2;
  cfg.seed = 1234;
  return GenerateWorkload(cfg);
}

void RunProtocol(benchmark::State& state, JoinProtocol* protocol,
                 const Workload& w, const char* label, size_t threads = 1) {
  size_t result_size = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MediationTestbed::Options opt;
    opt.seed_label = label;
    opt.threads = threads;
    auto tb_or = MediationTestbed::Create(w, opt);  // key generation excluded from timing
    if (!tb_or.ok()) {
      state.SkipWithError(tb_or.status().ToString().c_str());
      return;
    }
    MediationTestbed& tb = **tb_or;
    tb.ctx()->obs = g_scope;
    tb.bus().SetObsScope(g_scope);
    state.ResumeTiming();
    auto result = protocol->Run(tb.JoinSql(), tb.ctx());
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    result_size = result->size();
    bytes = tb.bus().TotalBytes();
    if (g_scope != nullptr) {
      state.PauseTiming();
      AccumulateTraffic(tb.bus());
      state.ResumeTiming();
    }
  }
  state.counters["result_tuples"] = static_cast<double>(result_size);
  state.counters["wire_bytes"] = static_cast<double>(bytes);
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_Das_EndToEnd(benchmark::State& state) {
  Workload w = MakeWorkload(state.range(0), state.range(1));
  DasJoinProtocol das(DasProtocolOptions{PartitionStrategy::kEquiDepth, 4});
  RunProtocol(state, &das, w, "e2e-das");
}
BENCHMARK(BM_Das_EndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Args({25, 10})
    ->Args({50, 20})
    ->Args({100, 40})
    ->Args({200, 80});

void BM_Commutative_EndToEnd(benchmark::State& state) {
  Workload w = MakeWorkload(state.range(0), state.range(1));
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{512, false});
  RunProtocol(state, &comm, w, "e2e-comm");
}
BENCHMARK(BM_Commutative_EndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Args({25, 10})
    ->Args({50, 20})
    ->Args({100, 40})
    ->Args({200, 80});

void BM_Pm_EndToEnd(benchmark::State& state) {
  Workload w = MakeWorkload(state.range(0), state.range(1));
  PmJoinProtocol pm;
  RunProtocol(state, &pm, w, "e2e-pm");
}
// The O(n·m) blind evaluation dominates; the largest size is kept modest.
BENCHMARK(BM_Pm_EndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Args({25, 10})
    ->Args({50, 20})
    ->Args({100, 40});

// Commutative group-size ablation: the paper's prototype used
// "exponentiation over quadratic residues modulo a safe prime"; this
// shows the security/size-vs-time tradeoff of that choice.
void BM_Commutative_GroupBits(benchmark::State& state) {
  Workload w = MakeWorkload(50, 20);
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{
      static_cast<size_t>(state.range(0)), false});
  RunProtocol(state, &comm, w, "e2e-comm-bits");
}
BENCHMARK(BM_Commutative_GroupBits)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(256)
    ->Arg(384)
    ->Arg(512)
    ->Arg(768)
    ->Arg(1024);

// ------------------------------------------------ parallel speedup ------
//
// Serial-vs-parallel speedup of the crypto execution layer. threads=1 is
// the exact legacy serial path; divide its wall time by the threads=N row
// to get the speedup (≈ min(N, cores) on a multicore machine, since the
// per-tuple public-key operations dominate and parallelize embarrassingly).
// On a single-core container the rows tie — but the transcripts stay
// bit-identical at every thread count (tests/parallel_equivalence_test.cc),
// so the knob only ever changes wall time, never bytes.

void BM_Commutative_Threads(benchmark::State& state) {
  static const Workload* w = new Workload(MakeWorkload(1000, 400));
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{512, false});
  RunProtocol(state, &comm, *w, "e2e-comm-thr",
              static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Commutative_Threads)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

void BM_Das_Threads(benchmark::State& state) {
  static const Workload* w = new Workload(MakeWorkload(1000, 400));
  DasJoinProtocol das(DasProtocolOptions{PartitionStrategy::kEquiDepth, 8});
  RunProtocol(state, &das, *w, "e2e-das-thr",
              static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Das_Threads)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

// PM's O(n·m) blind evaluation makes 1k tuples impractical even in
// parallel; the speedup is measured at the protocol's realistic scale.
void BM_Pm_Threads(benchmark::State& state) {
  static const Workload* w = new Workload(MakeWorkload(100, 40));
  PmJoinProtocol pm;
  RunProtocol(state, &pm, *w, "e2e-pm-thr",
              static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Pm_Threads)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

}  // namespace
}  // namespace secmed

int main(int argc, char** argv) {
  using namespace secmed;
  BenchCheckBuild();
  // Peel off the obs artifact flags; everything else goes to the
  // benchmark library untouched.
  std::string trace_out;
  std::string report_out;
  std::vector<char*> bench_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto path_flag = [&](const char* name, std::string* out) {
      if (flag == name) {
        if (i + 1 >= argc) return false;
        *out = argv[++i];
        return true;
      }
      const std::string eq = std::string(name) + "=";
      if (flag.rfind(eq, 0) == 0) {
        *out = flag.substr(eq.size());
        return !out->empty();
      }
      return false;
    };
    if (flag.rfind("--trace-out", 0) == 0) {
      if (!path_flag("--trace-out", &trace_out)) return 2;
    } else if (flag.rfind("--report-out", 0) == 0) {
      if (!path_flag("--report-out", &report_out)) return 2;
    } else {
      bench_argv.push_back(argv[i]);
    }
  }

  std::unique_ptr<obs::Scope> scope;
  if (!trace_out.empty() || !report_out.empty()) {
    scope = std::make_unique<obs::Scope>();
    g_scope = scope.get();
  }

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (scope != nullptr) {
    obs::RunInfo info;
    info.protocol = "s6-suite";
    info.query = "bench_s6_protocols";
    info.messages = g_traffic.messages;
    info.total_bytes = g_traffic.total_bytes;
    std::vector<obs::PartyTraffic> traffic = PartyTrafficRows(g_traffic);
    Status st =
        WriteObsArtifacts(*scope, info, traffic, trace_out, report_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    // The Section-6 table, produced from the report itself.
    std::printf("%s", obs::RenderRunReportTable(info, *scope, traffic).c_str());
  }
  return 0;
}
