// perfbench — end-to-end benchmark of the mediated join service.
//
//   perfbench --workload warm|cold|tcp --seed N --seconds S --trace 0|1
//             --secmedd PATH --run-dir DIR
//
// Measures from outside the program through its public entry points
// only: QueryService (including Explain), MediationTestbed, the remote
// session API that `secmedctl drive` uses (PeerHost, SendCtl,
// RunReplicatedSession) and the secmedd binary. Every query is checked
// against the plaintext join (MediationTestbed::ExpectedJoin).
//
// The in-process workloads run pinned to one CPU, one query at a time,
// and every timing is host-adjusted against a fixed reference computation
// timed between queries on that CPU (see "host probe" below).
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger.
// The last line of stdout is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}};
// the run context and the full ledger go to <run-dir>/<workload>.trace<T>.json
// and a readable table to stderr. See perfbench/README.md for the metric
// definitions.

#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bigint/mont_kernel.h"
#include "core/remote.h"
#include "core/testbed.h"
#include "crypto/commutative.h"
#include "crypto/drbg.h"
#include "crypto/group_params.h"
#include "crypto/hybrid.h"
#include "obs/json.h"
#include "obs/scope.h"
#include "obs/window.h"
#include "relational/workload.h"
#include "service/query_service.h"

using namespace secmed;

namespace {

// ---------------------------------------------------------------- basics

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SinceMs(uint64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / v.size();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

// ------------------------------------------------------- process metrics

double SelfCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // kilobytes on Linux
}

/// user+sys CPU of a child process, from /proc/<pid>/stat.
double ChildCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string f;
  double ticks = 0.0;
  for (int i = 0; i < 13 && fields >> f; ++i) {
    if (i == 11 || i == 12) ticks += std::stod(f);  // utime, stime
  }
  return ticks * 1e3 / sysconf(_SC_CLK_TCK);
}

/// Peak resident set (VmHWM) of a child process, from /proc/<pid>/status.
double ChildPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::thread::hardware_concurrency();
}

/// Pins this thread, and so every thread it creates later, to the
/// highest-numbered CPU it may run on. Returns that CPU (-1 if unpinned).
int PinToLastCpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

// ------------------------------------------------------- host probe

/// The benchmark runs on a few vCPUs of a shared host whose speed flips
/// by up to ~1.5x every few seconds, as other tenants come and go. Every
/// timing is therefore host-adjusted: between queries, on the
/// same (pinned) CPU, the benchmark times a fixed reference computation that
/// uses none of the program's code, so no change to the program can move
/// it. A query's adjusted latency is its latency times
/// kProbeReferenceMs / (the probe time around it), i.e. the latency it
/// would have had with the host running as fast as the reference host
/// usually does. The unadjusted values are kept in the run file (raw.*).
///
/// The probe is a dependent 64x64->128-bit multiply-accumulate chain shaped
/// like a 16-limb Montgomery row, then four independent multiply streams.
/// On the reference host the chain slows less than the program when
/// the host is busy and the streams slow more; their sum tracks both the
/// cached (warm) and the bigint-bound (cold) query mix.
struct HostProbe {
  uint64_t at_ns = 0;
  double ms = 0.0;      // wall time of the reference computation
  double cpu_ms = 0.0;  // process CPU over the probe
};

/// Median probe time on the reference host (4-vCPU Intel Xeon KVM guest,
/// Release build of this file).
constexpr double kProbeReferenceMs = 0.75;

/// A probe follows a query once this much time has passed since the last.
constexpr uint64_t kProbeEveryNs = 50'000'000;

HostProbe RunHostProbe() {
  static uint64_t sink = 1;
  HostProbe p;
  const double cpu0 = SelfCpuMs();
  p.at_ns = NowNs();
  uint64_t limbs[16];
  for (int i = 0; i < 16; ++i) limbs[i] = 0x9e3779b97f4a7c15ull * (i + 1);
  uint64_t acc = sink | 1;
  for (int round = 0; round < 25000; ++round) {
    unsigned __int128 carry = 0;
    for (int i = 0; i < 16; ++i) {
      carry += static_cast<unsigned __int128>(limbs[i]) * acc;
      limbs[i] = static_cast<uint64_t>(carry);
      carry >>= 64;
    }
    acc = static_cast<uint64_t>(carry) * 0xff51afd7ed558ccdull +
          limbs[round & 15];
  }
  uint64_t a[32], r[4] = {1, 2, 3, 4};
  for (int i = 0; i < 32; ++i) a[i] = acc * (2 * i + 1);
  for (int round = 0; round < 6000; ++round) {
    for (int i = 0; i < 32; i += 4) {
      for (int j = 0; j < 4; ++j) {
        const unsigned __int128 product =
            static_cast<unsigned __int128>(a[i + j]) *
            (a[(i + j + round) & 31] | 1);
        r[j] += static_cast<uint64_t>(product) ^
                static_cast<uint64_t>(product >> 64);
      }
    }
    a[round & 31] += r[round & 3];
  }
  sink += acc + r[0] + r[1] + r[2] + r[3];
  p.ms = SinceMs(p.at_ns);
  p.cpu_ms = SelfCpuMs() - cpu0;
  return p;
}

/// Median of `count` back-to-back probes (set-up is timed between two).
double ProbeBurstMs(int count = 5) {
  std::vector<double> ms;
  for (int i = 0; i < count; ++i) ms.push_back(RunHostProbe().ms);
  return Median(ms);
}

/// Factor that turns a time measured around `t_ns` into reference-host
/// time: kProbeReferenceMs over the median of the four probes (in time
/// order) nearest to `t_ns`, about 200 ms of the run. 1 without probes.
double HostFactorAt(const std::vector<HostProbe>& probes, uint64_t t_ns) {
  if (probes.empty()) return 1.0;
  auto it = std::lower_bound(
      probes.begin(), probes.end(), t_ns,
      [](const HostProbe& p, uint64_t t) { return p.at_ns < t; });
  const size_t n = probes.size();
  const size_t at = it - probes.begin();
  const size_t lo = std::min(at < 2 ? 0 : at - 2, n < 4 ? 0 : n - 4);
  std::vector<double> ms;
  for (size_t i = lo; i < std::min(n, lo + 4); ++i) ms.push_back(probes[i].ms);
  return kProbeReferenceMs / Median(ms);
}

/// Host-adjusted time of `timed()` (which returns a time in any unit):
/// scaled by the probe bursts run just before and just after it.
double HostAdjusted(const std::function<double()>& timed) {
  const double before_ms = ProbeBurstMs();
  const double t = timed();
  const double after_ms = ProbeBurstMs();
  return t * kProbeReferenceMs / ((before_ms + after_ms) / 2);
}

// ------------------------------------------------------------ workloads

/// One workload's shape: the relations, the load, the service knobs.
/// Every workload is one closed-loop client with one query in flight.
struct Shape {
  std::string name;
  WorkloadConfig relations;
  std::string rng_label;  // per-session DRBG label
  size_t cache_bytes = 256ull << 20;
  bool fill_cache = true;  // prepared cache filled during set-up
  bool tcp = false;
  double tail_percentile = 99.0;
  std::vector<std::string> cycle = {"das", "commutative", "pm", "auto"};
  /// Host-adjusted queries per second of the mix on the reference host.
  /// It sizes the warm-up and the traced run's blocks, which send fixed
  /// query counts so that a seed always runs the same sessions: a
  /// session's randomness follows its id, and the kernel counts follow
  /// the randomness.
  double nominal_qps = 560;

  /// Queries of whole cycles in about `seconds` at the nominal rate.
  size_t Queries(double seconds) const {
    const double cycles = std::round(seconds * nominal_qps / cycle.size());
    return std::max(1.0, cycles) * cycle.size();
  }
};

/// Every protocol's p50 in an end-to-end run comes from at least this
/// many samples.
constexpr size_t kMinSamplesPerProtocol = 100;

Shape ShapeFor(const std::string& name, uint64_t seed) {
  Shape s;
  s.name = name;
  // Relations: the generator's defaults (100x100 tuples, domain 50, 25
  // shared, generator seed 42) on every seed; the seed drives the query
  // order and the session randomness (see README.md).
  s.rng_label = "perfbench-" + std::to_string(seed);
  if (name == "cold") {
    // Budget below one query's prepared bytes: every lookup misses,
    // recomputes, inserts and evicts. Domain 8 keeps a cycle near 0.3 s,
    // so about 100 cycles fit in a 30 s window. The tail is p95, with 20
    // of ~400 queries beyond it; p97.5 leaves 10 and spread up to 9%
    // (IQR / median) between runs.
    s.relations.r1_domain = s.relations.r2_domain = 8;
    s.relations.common_values = 4;
    s.cache_bytes = 1;
    s.fill_cache = false;
    s.tail_percentile = 95.0;
    s.nominal_qps = 12.5;
  } else if (name == "tcp") {
    s.tcp = true;
    s.nominal_qps = 250;
  } else if (name != "warm") {  // warm: the defaults
    Die("unknown workload '" + name + "'");
  }
  return s;
}

/// One measured query.
struct Sample {
  std::string protocol;
  bool ok = false;
  double latency_ms = 0.0;  // timed from outside, submit to completion
  double inner_ms = 0.0;    // the program's own session time
  uint64_t bytes = 0;       // transport bytes of the session
  uint64_t messages = 0;
  uint64_t rows = 0;        // result tuples
  uint64_t done_ns = 0;     // completion time (steady clock)
  double adjusted_ms = 0.0; // latency_ms, host-adjusted (end-to-end run)
};

/// Per-protocol means of an exact per-query quantity, averaged over one
/// cycle of the protocol mix (so where a window ends in the cycle does
/// not move it).
double CycleMean(const std::vector<Sample>& samples,
                 const std::vector<std::string>& cycle,
                 const std::function<double(const Sample&)>& field) {
  std::vector<double> per_protocol;
  for (const std::string& p : cycle) {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if (s.ok && s.protocol == p) v.push_back(field(s));
    }
    if (!v.empty()) per_protocol.push_back(Mean(v));
  }
  return Mean(per_protocol);
}

std::vector<double> Latencies(const std::vector<Sample>& samples,
                              const std::string& protocol = "",
                              double Sample::*field = &Sample::latency_ms) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    if (s.ok && (protocol.empty() || s.protocol == protocol)) {
      v.push_back(s.*field);
    }
  }
  return v;
}

/// Sets every sample's adjusted_ms from the probes around its midpoint and
/// returns the latency-weighted factor (adjusted / raw over the successful
/// samples), which adjusts the window and the CPU time of the same run.
double AdjustSamples(std::vector<Sample>* samples,
                     const std::vector<HostProbe>& probes) {
  double raw_sum = 0.0, adjusted_sum = 0.0;
  for (Sample& s : *samples) {
    const uint64_t mid_ns =
        s.done_ns - static_cast<uint64_t>(s.latency_ms * 5e5);
    s.adjusted_ms = s.latency_ms * HostFactorAt(probes, mid_ns);
    if (!s.ok) continue;
    raw_sum += s.latency_ms;
    adjusted_sum += s.adjusted_ms;
  }
  return raw_sum > 0 ? adjusted_sum / raw_sum : 1.0;
}

// ------------------------------------------------------- span ledger

/// Layer of a "party/phase/op" span ("" for a name without a phase).
std::string LayerOf(const std::string& name) {
  size_t a = name.find('/');
  if (a == std::string::npos) return "";
  size_t b = name.find('/', a + 1);
  const std::string party = name.substr(0, a);
  const std::string phase =
      name.substr(a + 1, b == std::string::npos ? std::string::npos : b - a - 1);
  if (phase == "request") return "request";
  if (party == "client" && phase == "plan") return "plan";
  if (party == "mediator") return "mediator";
  if (party == "client" && phase == "post") return "client_post";
  if (party == "client") return "client_delivery";
  if (phase == "delivery") return "source_delivery";
  return "other";
}

/// Self time per layer (ms) of a set of spans: each span's duration minus
/// the part covered by its children on the same thread. Only threads that
/// ran sessions (those with request-phase spans) count, so the result is
/// wall time along each query's blocking path; ParallelFor helper threads
/// work under a parent span that already covers them.
std::map<std::string, double> FoldSelfTime(std::vector<obs::SpanRecord> spans) {
  std::set<uint32_t> session_threads;
  for (const auto& s : spans) {
    if (LayerOf(s.name) == "request") session_threads.insert(s.thread_index);
  }
  std::erase_if(spans, [&](const obs::SpanRecord& s) {
    return session_threads.count(s.thread_index) == 0;
  });
  std::sort(spans.begin(), spans.end(), [](const auto& x, const auto& y) {
    if (x.thread_index != y.thread_index) return x.thread_index < y.thread_index;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.duration_ns > y.duration_ns;
  });
  std::vector<double> child_ns(spans.size(), 0.0);
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    while (!open.empty()) {
      const auto& top = spans[open.back()];
      if (top.thread_index == s.thread_index &&
          top.start_ns + top.duration_ns > s.start_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += s.duration_ns;
    open.push_back(i);
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = LayerOf(spans[i].name);
    if (layer.empty()) continue;
    self_ms[layer] +=
        std::max(0.0, spans[i].duration_ns - child_ns[i]) / 1e6;
  }
  return self_ms;
}

uint64_t ItemsOf(const std::vector<obs::SpanRecord>& spans,
                 const std::string& suffix) {
  uint64_t items = 0;
  for (const auto& s : spans) {
    if (s.name.size() >= suffix.size() &&
        s.name.compare(s.name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      items += s.items;
    }
  }
  return items;
}

/// One protocol-homogeneous block of the traced run.
struct Block {
  std::string protocol;
  std::vector<Sample> samples;
  uint64_t muls = 0, sqrs = 0;
  PreparedRegistryStats cache_before, cache_after;
  std::vector<obs::SpanRecord> spans;  // recorded during the block
  uint64_t frame_wait_ns = 0;          // tcp: client-side frame waits
  double factor = 1.0;                 // host adjustment (AdjustSamples)
  double probe_cpu_ms = 0.0;           // CPU of the block's host probes

  size_t ok_count() const {
    size_t n = 0;
    for (const Sample& s : samples) n += s.ok;
    return n;
  }
};

uint64_t HistogramSum(const obs::Scope* scope, const std::string& name) {
  if (scope == nullptr) return 0;
  for (const auto& h : scope->metrics().Histograms()) {
    if (h.name == name) return h.sum;
  }
  return 0;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += JsonStr(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + JsonStr(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

// ------------------------------------------------------------ the runner

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string secmedd;
  std::string run_dir = ".";
};

/// Everything one workload run produces.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;  // key → JSON
  std::vector<Metric> ledger;  // extra traced-run rows (file and stderr)
};

/// A live mediation deployment the benchmark drives: in-process
/// (QueryService) or over TCP (three secmedd daemons).
class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  virtual ~Deployment() = default;
  /// Runs one query to completion and checks it against the plaintext
  /// join. `scope` traces the session (null = untraced).
  virtual Sample RunQuery(const std::string& protocol, obs::Scope* scope) = 0;
  /// The prepared cache whose statistics the ledger reports.
  virtual PreparedRegistryStats CacheStats() = 0;
  /// Process CPU (ms) and peak RSS (MB) by the party each process
  /// hosts; in-process one process hosts all four, so the values repeat.
  virtual std::vector<std::pair<std::string, double>> CpuMs() = 0;
  virtual std::vector<std::pair<std::string, double>> PeakRssMb() = 0;
  /// Number of distinct processes in the deployment.
  virtual size_t processes() const = 0;
  /// Planner EXPLAIN of the "auto" query over this deployment's data.
  virtual Result<plan::PlanChoice> Explain() = 0;
  virtual MediationTestbed& testbed() = 0;
};

const char* kParties[] = {"client", "mediator", "hospital", "insurer"};

// ------------------------------------------------------- in-process

class InProcessDeployment : public Deployment {
 public:
  /// Builds testbed + service; fills the prepared cache when the shape
  /// asks for it. `testbed` reuses existing keys and relations (the
  /// traced service of a traced run); null generates them.
  static std::unique_ptr<InProcessDeployment> Create(
      const Shape& shape, obs::Scope* scope,
      std::shared_ptr<MediationTestbed> testbed = nullptr) {
    auto d = std::unique_ptr<InProcessDeployment>(new InProcessDeployment);
    if (testbed == nullptr) {
      auto created = MediationTestbed::Create(GenerateWorkload(shape.relations));
      if (!created.ok()) Die("testbed: " + created.status().ToString());
      testbed = std::move(created).value();
    }
    d->testbed_ = std::move(testbed);
    d->expected_ = d->testbed_->ExpectedJoin();
    QueryService::Options opt;
    opt.max_concurrent = 1;
    opt.cache_bytes = shape.cache_bytes;
    opt.threads = 1;  // no ParallelFor helper threads on the pinned CPU
    opt.rng_label = shape.rng_label;
    opt.obs = scope;
    d->service_ = std::make_unique<QueryService>(d->testbed_.get(), opt);
    if (shape.fill_cache) d->Fill();
    return d;
  }

  Sample RunQuery(const std::string& protocol, obs::Scope*) override {
    Sample s;
    s.protocol = protocol;
    QueryService::Query q;
    q.protocol = protocol;
    q.sql = testbed_->JoinSql();
    // The callback owns the promise too: the worker may still be inside
    // set_value when this thread wakes and returns.
    using Done = std::pair<QueryOutcome, uint64_t>;  // outcome, callback time
    auto promise = std::make_shared<std::promise<Done>>();
    std::future<Done> future = promise->get_future();
    const uint64_t start_ns = NowNs();
    auto id = service_->Submit(q, [promise](QueryOutcome out) {
      promise->set_value({std::move(out), NowNs()});
    });
    if (!id.ok()) {
      Report(protocol, "shed: " + id.status().ToString());
      return s;
    }
    auto [out, done_ns] = future.get();
    s.latency_ms = (done_ns - start_ns) / 1e6;
    s.inner_ms = out.latency_ms;
    s.bytes = out.bytes;
    s.messages = out.messages;
    s.rows = out.result.size();
    if (!out.status.ok()) {
      Report(protocol, out.status.ToString());
    } else if (!out.result.EqualsAsBag(expected_)) {
      Report(protocol, "result differs from the plaintext join");
    } else {
      s.ok = true;
    }
    return s;
  }

  PreparedRegistryStats CacheStats() override { return service_->cache().Stats(); }

  size_t processes() const override { return 1; }

  std::vector<std::pair<std::string, double>> CpuMs() override {
    const double cpu = SelfCpuMs();
    std::vector<std::pair<std::string, double>> out;
    for (const char* p : kParties) out.emplace_back(p, cpu);
    return out;
  }

  std::vector<std::pair<std::string, double>> PeakRssMb() override {
    const double rss = SelfPeakRssMb();
    std::vector<std::pair<std::string, double>> out;
    for (const char* p : kParties) out.emplace_back(p, rss);
    return out;
  }

  Result<plan::PlanChoice> Explain() override {
    QueryService::Query q;
    q.protocol = "auto";
    q.sql = testbed_->JoinSql();
    return service_->Explain(q);
  }

  MediationTestbed& testbed() override { return *testbed_; }
  std::shared_ptr<MediationTestbed> shared_testbed() { return testbed_; }

 private:
  InProcessDeployment() = default;

  /// Runs every protocol of the cycle once.
  void Fill() {
    for (const std::string& p : {"pm", "das", "commutative", "auto"}) {
      if (!RunQuery(p, nullptr).ok) Die("cache fill failed");
    }
  }

  void Report(const std::string& protocol, const std::string& why) {
    if (errors_++ < 5) {
      std::fprintf(stderr, "perfbench: %s query failed: %s\n",
                   protocol.c_str(), why.c_str());
    }
  }

  std::shared_ptr<MediationTestbed> testbed_;
  std::unique_ptr<QueryService> service_;
  Relation expected_;
  size_t errors_ = 0;
};

// ------------------------------------------------------------- tcp

/// Picks `n` currently free loopback ports.
std::vector<uint16_t> FreePorts(size_t n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < n; ++i) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      Die("cannot reserve a loopback port");
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) close(fd);
  return ports;
}

/// The loopback multi-process deployment as shipped: secmedd daemons for
/// the mediator and the two datasources (telemetry plane on, default
/// admission limits), and the client hosted in this process through the
/// API `secmedctl drive` uses. Sessions are announced one at a time, just
/// before each runs.
class TcpDeployment : public Deployment {
 public:
  static std::unique_ptr<TcpDeployment> Create(const Shape& shape,
                                               const Args& args) {
    auto d = std::unique_ptr<TcpDeployment>(new TcpDeployment);
    d->shape_ = shape;
    d->args_ = args;
    Workload workload = GenerateWorkload(shape.relations);
    auto testbed = MediationTestbed::Create(workload);
    if (!testbed.ok()) Die("testbed: " + testbed.status().ToString());
    d->testbed_ = std::move(testbed).value();
    d->expected_ = d->testbed_->ExpectedJoin();
    PreparedDatasetRegistry::Options ropt;
    ropt.max_bytes = shape.cache_bytes;
    ropt.label = d->testbed_->options().seed_label;
    d->registry_ = std::make_unique<PreparedDatasetRegistry>(ropt);
    // Planner for "auto", resolved client-side per query as QueryService
    // does in-process; its statistics are cached in its own registry.
    d->planner_ = std::make_unique<QueryService>(d->testbed_.get(),
                                                 QueryService::Options{});
    auto host = PeerHost::Listen(0);
    if (!host.ok()) Die("listen: " + host.status().ToString());
    d->host_ = std::move(host).value();
    d->reply_to_ = "127.0.0.1:" + std::to_string(d->host_->port());
    d->StartDaemons();
    for (const std::string& p : {"das", "commutative", "pm", "auto"}) {
      if (!d->RunQuery(p, nullptr).ok) Die("cache fill failed");
    }
    return d;
  }

  ~TcpDeployment() override { StopDaemons(); }

  Sample RunQuery(const std::string& protocol, obs::Scope* scope) override {
    Sample s;
    s.protocol = protocol;
    const uint64_t start_ns = NowNs();
    std::string concrete = protocol;
    if (protocol == "auto") {
      auto choice = Explain();
      if (!choice.ok() || choice->chosen.levels.size() != 1) {
        Report(protocol, "planner could not resolve auto");
        return s;
      }
      concrete = choice->chosen.levels.front().protocol;
    }
    RunSpec spec;
    spec.session = next_session_++;
    spec.protocol = concrete;
    spec.query = testbed_->JoinSql();
    spec.rng_label = shape_.rng_label;
    spec.reply_to = reply_to_;
    spec.use_prepared = true;
    for (const auto& [party, ep] : daemons_eps_) {
      Status st = SendCtl(host_.get(), ep, "perfbench-client", kCtlRun,
                          spec.Encode(), kTimeoutMs);
      if (!st.ok()) {
        Report(protocol, "announce to " + party + ": " + st.ToString());
        return s;
      }
    }
    Relation result;
    const uint64_t session_ns = NowNs();
    RunReport own = RunReplicatedSession(testbed_.get(), host_.get(),
                                         deployment_, spec, &result, scope,
                                         registry_.get());
    s.inner_ms = SinceMs(session_ns);
    bool agree = own.ok;
    size_t reports = 0;
    while (reports < daemons_eps_.size()) {
      auto ctl = host_->WaitCtl(kTimeoutMs);
      if (!ctl.ok() || ctl->type == kCtlPeerDown) {
        Report(protocol, "waiting for reports: " +
                             (ctl.ok() ? std::string("peer down")
                                       : ctl.status().ToString()));
        agree = false;
        break;
      }
      if (ctl->type != kCtlReport) continue;
      auto report = RunReport::Decode(ctl->payload);
      if (!report.ok() || report->session != spec.session) continue;
      ++reports;
      if (!report->ok || report->result_digest != own.result_digest ||
          report->messages != own.messages ||
          report->total_bytes != own.total_bytes) {
        Report(protocol, "daemon [" + report->party_set + "] disagrees: " +
                             report->error);
        agree = false;
      }
    }
    s.latency_ms = SinceMs(start_ns);
    host_->DropSession(spec.session);
    s.bytes = own.total_bytes;
    s.messages = own.messages;
    s.rows = result.size();
    if (!own.ok) {
      Report(protocol, own.error);
    } else if (agree && !result.EqualsAsBag(expected_)) {
      Report(protocol, "result differs from the plaintext join");
    } else {
      s.ok = agree;
    }
    return s;
  }

  PreparedRegistryStats CacheStats() override { return registry_->Stats(); }

  size_t processes() const override { return 1 + pids_.size(); }

  std::vector<std::pair<std::string, double>> CpuMs() override {
    std::vector<std::pair<std::string, double>> out = {{"client", SelfCpuMs()}};
    for (const auto& [party, pid] : pids_) out.emplace_back(party, ChildCpuMs(pid));
    return out;
  }

  std::vector<std::pair<std::string, double>> PeakRssMb() override {
    std::vector<std::pair<std::string, double>> out = {
        {"client", SelfPeakRssMb()}};
    for (const auto& [party, pid] : pids_) {
      out.emplace_back(party, ChildPeakRssMb(pid));
    }
    return out;
  }

  Result<plan::PlanChoice> Explain() override {
    QueryService::Query q;
    q.protocol = "auto";
    q.sql = testbed_->JoinSql();
    return planner_->Explain(q);
  }

  MediationTestbed& testbed() override { return *testbed_; }

  /// Scrapes every daemon's telemetry plane (ctl_stats, ctl_trace).
  std::vector<std::pair<std::string, std::string>> Scrape(const char* type) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [party, ep] : daemons_eps_) {
      Status st = SendCtl(host_.get(), ep, "perfbench-client", type,
                          ToBytes(reply_to_), kTimeoutMs);
      if (!st.ok()) Die(std::string(type) + " scrape: " + st.ToString());
    }
    while (out.size() < daemons_eps_.size()) {
      auto ctl = host_->WaitCtl(kTimeoutMs);
      if (!ctl.ok()) Die(std::string(type) + " scrape: " + ctl.status().ToString());
      if (ctl->type != type) continue;
      out.emplace_back(ctl->from,
                       std::string(ctl->payload.begin(), ctl->payload.end()));
    }
    return out;
  }

 private:
  static constexpr int kTimeoutMs = 30000;

  TcpDeployment() = default;

  void StartDaemons() {
    std::vector<uint16_t> ports = FreePorts(3);
    const char* daemons[] = {"mediator", "hospital", "insurer"};
    std::map<std::string, Endpoint> directory;
    directory["client"] = Endpoint{"127.0.0.1", host_->port()};
    for (size_t i = 0; i < 3; ++i) {
      directory[daemons[i]] = Endpoint{"127.0.0.1", ports[i]};
      daemons_eps_.emplace_back(daemons[i], directory[daemons[i]]);
    }
    const WorkloadConfig& w = shape_.relations;
    for (size_t i = 0; i < 3; ++i) {
      std::vector<std::string> argv = {
          args_.secmedd, "--listen", std::to_string(ports[i]),
          "--host-party", daemons[i]};
      for (const auto& [party, ep] : directory) {
        argv.push_back("--peer");
        argv.push_back(party + "=" + ep.ToString());
      }
      for (const auto& [flag, value] :
           std::vector<std::pair<const char*, uint64_t>>{
               {"--r1-tuples", w.r1_tuples}, {"--r2-tuples", w.r2_tuples},
               {"--r1-domain", w.r1_domain}, {"--r2-domain", w.r2_domain},
               {"--common-values", w.common_values},
               {"--workload-seed", w.seed}}) {
        argv.push_back(flag);
        argv.push_back(std::to_string(value));
      }
      const std::string log =
          args_.run_dir + "/" + shape_.name + "." + daemons[i] + ".log";
      pids_.emplace_back(daemons[i], Spawn(argv, log));
      logs_.push_back(log);
    }
    deployment_.local_parties = {"client"};
    deployment_.directory = directory;
    deployment_.timeout_ms = kTimeoutMs;
    // Ready once every daemon has logged its start (port bound).
    const uint64_t deadline = NowNs() + 30'000'000'000ull;
    for (size_t i = 0; i < logs_.size(); ++i) {
      for (;;) {
        std::ifstream in(logs_[i]);
        std::string text((std::istreambuf_iterator<char>(in)), {});
        if (text.find("daemon.start") != std::string::npos) break;
        int status = 0;
        if (waitpid(pids_[i].second, &status, WNOHANG) != 0 ||
            NowNs() > deadline) {
          pids_[i].second = -1;
          Die("secmedd " + pids_[i].first + " did not start; see " + logs_[i]);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  static pid_t Spawn(const std::vector<std::string>& argv,
                     const std::string& log) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    pid_t pid = fork();
    if (pid < 0) Die("fork failed");
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
      }
      execv(cargv[0], cargv.data());
      _exit(127);
    }
    return pid;
  }

  void StopDaemons() {
    for (const auto& [party, ep] : daemons_eps_) {
      (void)SendCtl(host_.get(), ep, "perfbench-client", kCtlShutdown, Bytes(),
                    2000);
    }
    const uint64_t deadline = NowNs() + 10'000'000'000ull;
    for (auto& [party, pid] : pids_) {
      if (pid <= 0) continue;
      int status = 0;
      while (waitpid(pid, &status, WNOHANG) == 0) {
        if (NowNs() > deadline) {
          kill(pid, SIGKILL);
          waitpid(pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid = -1;
    }
    if (host_ != nullptr) host_->Stop();
  }

  void Report(const std::string& protocol, const std::string& why) {
    if (errors_++ < 5) {
      std::fprintf(stderr, "perfbench: tcp %s query failed: %s\n",
                   protocol.c_str(), why.c_str());
    }
  }

  Shape shape_;
  Args args_;
  std::unique_ptr<MediationTestbed> testbed_;
  Relation expected_;
  std::unique_ptr<PreparedDatasetRegistry> registry_;
  std::unique_ptr<QueryService> planner_;
  std::unique_ptr<PeerHost> host_;
  std::string reply_to_;
  secmed::Deployment deployment_;
  std::vector<std::pair<std::string, Endpoint>> daemons_eps_;
  std::vector<std::pair<std::string, pid_t>> pids_;
  std::vector<std::string> logs_;
  uint32_t next_session_ = 1;
  size_t errors_ = 0;
};

std::unique_ptr<Deployment> SetUp(const Shape& shape, const Args& args,
                                  obs::Scope* scope = nullptr) {
  if (shape.tcp) return TcpDeployment::Create(shape, args);
  return InProcessDeployment::Create(shape, scope);
}

// ------------------------------------------------------------ load

/// One run of the closed loop.
struct Loop {
  std::vector<Sample> samples;
  std::vector<HostProbe> probes;  // empty unless asked for
  double window_s = 0.0;  // first send to last completion, probes left out
  double probe_cpu_ms = 0.0;
};

/// Closed loop: query k of the sequence (protocol pick(k)) is sent when
/// query k-1 has completed. Runs for `seconds`, then on to the next
/// multiple of `stride` queries and at least `min_queries` (with `seconds`
/// 0: exactly `min_queries`, a multiple of `stride`). No query starts
/// after `cap_s`, so a pathologically slow build still ends the run in
/// time. With `probe` set, the host probe runs before the first query and
/// then between queries every kProbeEveryNs.
Loop ClosedLoop(Deployment* d, double seconds, size_t stride,
                size_t min_queries, double cap_s, obs::Scope* scope,
                const std::function<std::string(size_t)>& pick, bool probe) {
  Loop loop;
  double probe_ms = 0.0;
  auto run_probe = [&] {
    loop.probes.push_back(RunHostProbe());
    probe_ms += loop.probes.back().ms;
    loop.probe_cpu_ms += loop.probes.back().cpu_ms;
  };
  if (probe) run_probe();
  const uint64_t start_ns = NowNs();
  const uint64_t end_ns = start_ns + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t cap_ns = start_ns + static_cast<uint64_t>(cap_s * 1e9);
  uint64_t last_probe_ns = start_ns;
  for (size_t k = 0;; ++k) {
    const uint64_t now_ns = NowNs();
    if (now_ns >= cap_ns ||
        (now_ns >= end_ns && k >= min_queries && k % stride == 0)) {
      break;
    }
    loop.samples.push_back(d->RunQuery(pick(k), scope));
    loop.samples.back().done_ns = NowNs();
    if (probe && loop.samples.back().done_ns - last_probe_ns > kProbeEveryNs) {
      run_probe();
      last_probe_ns = NowNs();
    }
  }
  loop.window_s = (NowNs() - start_ns) / 1e9 - probe_ms / 1e3;
  return loop;
}

/// The traced run's protocol-homogeneous blocks: the queries of about
/// `seconds` at the nominal rate, split evenly over the cycle's protocols
/// (at least 5 each). No block starts a query after `seconds`.
std::vector<Block> RunBlocks(Deployment* d, const Shape& shape, double seconds,
                             obs::Scope* scope) {
  std::vector<Block> blocks;
  const size_t each =
      std::max<size_t>(5, shape.Queries(seconds) / shape.cycle.size());
  for (const std::string& p : shape.cycle) {
    Block b;
    b.protocol = p;
    const size_t span_base = scope ? scope->tracer().span_count() : 0;
    const uint64_t wait_base = HistogramSum(scope, "net.frame_wait_ns");
    const montk::KernelCounters k0 = montk::ReadKernelCounters();
    b.cache_before = d->CacheStats();
    Loop loop = ClosedLoop(d, 0, 1, each, seconds, scope,
                           [&](size_t) { return p; }, true);
    b.factor = AdjustSamples(&loop.samples, loop.probes);
    b.samples = std::move(loop.samples);
    b.probe_cpu_ms = loop.probe_cpu_ms;
    b.cache_after = d->CacheStats();
    const montk::KernelCounters k1 = montk::ReadKernelCounters();
    b.muls = k1.muls - k0.muls;
    b.sqrs = k1.sqrs - k0.sqrs;
    if (scope != nullptr) {
      std::vector<obs::SpanRecord> all = scope->tracer().Snapshot();
      b.spans.assign(all.begin() + span_base, all.end());
      b.frame_wait_ns = HistogramSum(scope, "net.frame_wait_ns") - wait_base;
    }
    blocks.push_back(std::move(b));
  }
  return blocks;
}

/// About a second of the cycle mix, discarded: lets allocator arenas,
/// page tables and CPU clocks settle after set-up, before anything is
/// timed.
void WarmUp(Deployment* d, const Shape& shape, obs::Scope* scope) {
  (void)ClosedLoop(
      d, 0, 1, shape.Queries(1.0), 10.0, scope,
      [&](size_t k) { return shape.cycle[k % shape.cycle.size()]; }, false);
}

// ------------------------------------------------------- crypto probes

/// Median per-call microseconds of `fn` over 5 batches of `calls`, each
/// batch host-adjusted.
double PerCallUs(size_t calls, const std::function<void()>& fn) {
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    per_call.push_back(HostAdjusted([&] {
      const uint64_t t0 = NowNs();
      for (size_t i = 0; i < calls; ++i) fn();
      return (NowNs() - t0) / 1e3 / calls;
    }));
  }
  return Median(per_call);
}

/// Per-call time of each protocol's main primitive, with the testbed's
/// own client keys (the commutative key is drawn from the standard
/// 256-bit group the join protocols use).
std::vector<Metric> CryptoProbes(MediationTestbed& tb) {
  std::vector<Metric> out;
  HmacDrbg rng(ToBytes("perfbench-crypto"));
  const PaillierPublicKey& ppub = tb.client().paillier_public_key();
  const PaillierPrivateKey& ppriv = tb.client().paillier_private_key();
  const BigInt m = BigInt::RandomBelow(ppub.n(), &rng);
  auto c = ppub.Encrypt(m, &rng);
  if (!c.ok()) Die("paillier: " + c.status().ToString());
  out.push_back({"crypto.paillier_encrypt_us",
                 PerCallUs(10, [&] { (void)ppub.Encrypt(m, &rng); }), "us"});
  out.push_back({"crypto.paillier_decrypt_us",
                 PerCallUs(10, [&] { (void)ppriv.Decrypt(*c); }), "us"});
  auto group = StandardGroup(256);
  if (!group.ok()) Die("group: " + group.status().ToString());
  CommutativeKey key = CommutativeKey::Generate(*group, &rng);
  const BigInt x = group->HashToGroup(ToBytes("perfbench"));
  out.push_back({"crypto.commutative_encrypt_us",
                 PerCallUs(50, [&] { (void)key.Encrypt(x); }), "us"});
  auto sealed = HybridEncrypt(tb.client().public_key(),
                              ToBytes(std::string(64, 't')), &rng);
  if (!sealed.ok()) Die("hybrid: " + sealed.status().ToString());
  out.push_back({"crypto.hybrid_open_us",
                 PerCallUs(20, [&] {
                   (void)HybridDecrypt(tb.client().private_key(), *sealed);
                 }),
                 "us"});
  return out;
}

// --------------------------------------------------- end-to-end (trace 0)

/// Set-ups before the window: at least two, more while they have taken
/// less than kSetUpSeconds in all (cold set-ups take about 0.1 s).
constexpr double kSetUpSeconds = 1.5;
constexpr size_t kMaxSetUps = 15;

/// One timed set-up: its wall time, and that time host-adjusted by the
/// probe bursts run just before and just after it.
struct SetUpTime {
  double raw_s = 0.0;
  double adjusted_s = 0.0;
};

/// Times one full set-up; the deployment goes to `out` (null discards it).
SetUpTime TimedSetUp(const Shape& shape, const Args& args,
                     std::unique_ptr<Deployment>* out) {
  SetUpTime t;
  t.adjusted_s = HostAdjusted([&] {
    const uint64_t t0 = NowNs();
    std::unique_ptr<Deployment> d = SetUp(shape, args);
    t.raw_s = (NowNs() - t0) / 1e9;
    if (out != nullptr) *out = std::move(d);
    return t.raw_s;
  });
  return t;
}

void RunEndToEnd(const Shape& shape, const Args& args, Outcome* o) {
  // setup_s is the median of several set-ups: at least two before the
  // window, repeated until they took kSetUpSeconds (the last one is
  // measured), and one after it, so they sample the host at different
  // times rather than one moment several times.
  std::vector<SetUpTime> setups;
  std::unique_ptr<Deployment> d;
  const uint64_t setup_start_ns = NowNs();
  while (setups.size() < 2 ||
         (NowNs() - setup_start_ns < kSetUpSeconds * 1e9 &&
          setups.size() < kMaxSetUps)) {
    d.reset();
    setups.push_back(TimedSetUp(shape, args, &d));
  }
  WarmUp(d.get(), shape, nullptr);
  const auto cpu0 = d->CpuMs();
  const size_t offset = args.seed % shape.cycle.size();
  Loop loop = ClosedLoop(
      d.get(), args.seconds, shape.cycle.size(),
      kMinSamplesPerProtocol * shape.cycle.size(), 2 * args.seconds, nullptr,
      [&](size_t k) { return shape.cycle[(offset + k) % shape.cycle.size()]; },
      true);
  const auto cpu1 = d->CpuMs();
  const auto rss = d->PeakRssMb();
  double cpu_ms = -loop.probe_cpu_ms, rss_mb = 0.0;
  for (size_t i = 0; i < d->processes(); ++i) {
    cpu_ms += cpu1[i].second - cpu0[i].second;
    rss_mb += rss[i].second;
  }

  // Host adjustment: each query by the probes around its midpoint; the
  // window and the CPU time by the resulting latency-weighted factor.
  std::vector<Sample>& samples = loop.samples;
  const double factor = AdjustSamples(&samples, loop.probes);
  size_t ok = 0;
  for (const Sample& s : samples) ok += s.ok;
  const double raw_qps = ok / loop.window_s;
  const double raw_cpu_ms = ok ? cpu_ms / ok : 0.0;

  o->attempted = samples.size();
  o->failed = samples.size() - ok;
  const auto adjusted = &Sample::adjusted_ms;
  auto& m = o->metrics;
  m.push_back({"setup_s", 0.0, "s"});  // set after the last set-up
  m.push_back({"throughput_qps", raw_qps / factor, "1/s"});
  m.push_back({"latency_tail_ms",
               Percentile(Latencies(samples, "", adjusted),
                          shape.tail_percentile),
               "ms"});
  for (const char* p : {"das", "commutative", "pm", "auto"}) {
    m.push_back({std::string(p) + ".latency_p50_ms",
                 Median(Latencies(samples, p, adjusted)), "ms"});
  }
  m.push_back({"wire_bytes_per_query",
               CycleMean(samples, shape.cycle,
                         [](const Sample& s) { return double(s.bytes); }),
               "bytes"});
  m.push_back({"cpu_ms_per_query", raw_cpu_ms * factor, "ms"});
  m.push_back({"peak_rss_mb", rss_mb, "MB"});

  // Ledger: the raw (unadjusted) values and the host's speed.
  auto& l = o->ledger;
  for (const char* p : {"das", "commutative", "pm", "auto"}) {
    l.push_back({std::string(p) + ".samples",
                 double(Latencies(samples, p).size()), "count"});
  }
  l.push_back({"window_s", loop.window_s, "s"});
  l.push_back({"host.probes", double(loop.probes.size()), "count"});
  std::vector<double> probe_ms;
  for (const HostProbe& p : loop.probes) probe_ms.push_back(p.ms);
  l.push_back({"host.probe_p50_ms", Median(probe_ms), "ms"});
  l.push_back({"host.factor", factor, "ratio"});
  l.push_back({"raw.throughput_qps", raw_qps, "1/s"});
  l.push_back({"raw.cpu_ms_per_query", raw_cpu_ms, "ms"});
  for (const char* p : {"das", "commutative", "pm", "auto"}) {
    l.push_back({std::string("raw.") + p + ".latency_p50_ms",
                 Median(Latencies(samples, p)), "ms"});
  }
  for (const char* pct : {"90", "95", "97.5", "99", "99.9"}) {
    l.push_back({std::string("latency_p") + pct + "_ms",
                 Percentile(Latencies(samples, "", adjusted), std::stod(pct)),
                 "ms"});
    l.push_back({std::string("raw.latency_p") + pct + "_ms",
                 Percentile(Latencies(samples), std::stod(pct)), "ms"});
  }
  for (const std::string& p : shape.cycle) {
    l.push_back({p + ".result_rows",
                 CycleMean(samples, {p},
                           [](const Sample& s) { return double(s.rows); }),
                 "count"});
  }
  if (!shape.fill_cache) {
    // Working set of one query per protocol, measured after the window
    // on a separate unlimited-budget service over the same testbed.
    Shape probe = shape;
    probe.cache_bytes = 0;
    probe.fill_cache = true;
    auto* in = static_cast<InProcessDeployment*>(d.get());
    auto ws = InProcessDeployment::Create(probe, nullptr, in->shared_testbed());
    o->context.emplace_back("working_set_bytes",
                            Num(double(ws->CacheStats().resident_bytes)));
  } else {
    o->context.emplace_back("working_set_bytes",
                            Num(double(d->CacheStats().resident_bytes)));
  }
  d.reset();
  setups.push_back(TimedSetUp(shape, args, nullptr));
  std::vector<double> setup_s;
  for (size_t i = 0; i < setups.size(); ++i) {
    setup_s.push_back(setups[i].adjusted_s);
    l.push_back({"setup_s." + std::to_string(i + 1), setups[i].adjusted_s, "s"});
    l.push_back({"raw.setup_s." + std::to_string(i + 1), setups[i].raw_s, "s"});
  }
  m.front().value = Median(setup_s);
}

/// Spans of a scraped Chrome trace (ctl_trace), skipping the first `skip`
/// events.
std::vector<obs::SpanRecord> TraceSpans(const std::string& body, size_t skip,
                                        size_t* events_out) {
  std::vector<obs::SpanRecord> spans;
  obs::JsonValue doc;
  const obs::JsonValue* events = nullptr;
  if (obs::ParseJson(body, &doc, nullptr)) events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) Die("unreadable daemon trace");
  *events_out = events->array().size();
  for (size_t i = skip; i < events->array().size(); ++i) {
    const obs::JsonValue& e = events->array()[i];
    if (e.Find("dur") == nullptr) continue;  // metadata events
    obs::SpanRecord s;
    s.name = e.Find("name")->string();
    s.start_ns = static_cast<uint64_t>(e.Find("ts")->number() * 1e3);
    s.duration_ns = static_cast<uint64_t>(e.Find("dur")->number() * 1e3);
    s.thread_index = static_cast<uint32_t>(e.Find("tid")->number());
    spans.push_back(std::move(s));
  }
  return spans;
}

/// Ledger rows from the daemons' telemetry plane: each process's span
/// self time per layer over the traced half (events past `trace_base`),
/// and its windowed per-protocol session p50 and cache hit rate.
void DaemonLedger(TcpDeployment* tcp,
                  const std::vector<std::pair<std::string, std::string>>&
                      trace_base,
                  size_t queries, std::vector<Metric>* ledger) {
  std::map<std::string, size_t> base;
  for (const auto& [process, body] : trace_base) {
    (void)TraceSpans(body, SIZE_MAX, &base[process]);
  }
  for (const auto& [process, body] : tcp->Scrape(kCtlTrace)) {
    size_t events = 0;
    for (const auto& [layer, ms] :
         FoldSelfTime(TraceSpans(body, base[process], &events))) {
      ledger->push_back({"daemon." + process + "." + layer + "_ms_per_query",
                         queries ? ms / queries : 0.0, "ms"});
    }
  }
  const std::string prefix = "session.latency_ns.";
  for (const auto& [process, body] : tcp->Scrape(kCtlStats)) {
    obs::WindowRegistry::Snapshot snap;
    if (!obs::ParseStatsJson(body, &snap, nullptr)) Die("unreadable stats");
    for (const auto& h : snap.histograms) {
      if (h.name.rfind(prefix, 0) == 0) {
        ledger->push_back({"daemon." + process + ".session_p50_ms." +
                               h.name.substr(prefix.size()),
                           h.p50 / 1e6, "ms"});
      }
    }
    for (const auto& g : snap.gauges) {
      if (g.name == "cache.hit_permille") {
        ledger->push_back({"daemon." + process + ".cache_hit_rate",
                           g.value / 1000.0, "ratio"});
      }
    }
  }
}

// ------------------------------------------------------ ledger (trace 1)

void RunLedger(const Shape& shape, const Args& args, Outcome* o) {
  std::unique_ptr<Deployment> d = SetUp(shape, args);
  o->context.emplace_back("working_set_bytes",
                          Num(double(d->CacheStats().resident_bytes)));
  // Untraced half: per-protocol p50s, CPU, RSS, cache and kernel counts.
  WarmUp(d.get(), shape, nullptr);
  const auto cpu0 = d->CpuMs();
  const double half_s = args.seconds / 2;
  std::vector<Block> plain =
      RunBlocks(d.get(), shape, half_s, nullptr);
  const auto cpu1 = d->CpuMs();
  const auto rss = d->PeakRssMb();  // before the tracer's buffers grow

  // Planner and primitive probes, outside every block.
  (void)d->Explain();
  std::vector<double> explain_ms;
  Result<plan::PlanChoice> choice = Status::Internal("unset");
  for (int i = 0; i < 20; ++i) {
    explain_ms.push_back(HostAdjusted([&] {
      const uint64_t t0 = NowNs();
      choice = d->Explain();
      return SinceMs(t0);
    }));
  }
  if (!choice.ok()) Die("explain: " + choice.status().ToString());
  std::vector<Metric> crypto = CryptoProbes(d->testbed());

  // Traced half: the same blocks with an obs::Scope attached.
  obs::Scope scope;
  std::unique_ptr<Deployment> traced_owner;
  Deployment* traced = d.get();
  if (!shape.tcp) {
    auto* in = static_cast<InProcessDeployment*>(d.get());
    traced_owner = InProcessDeployment::Create(shape, &scope, in->shared_testbed());
    traced = traced_owner.get();
  }
  std::vector<std::pair<std::string, std::string>> trace_base;
  WarmUp(traced, shape, &scope);
  if (shape.tcp) trace_base = static_cast<TcpDeployment*>(d.get())->Scrape(kCtlTrace);
  std::vector<Block> traced_blocks =
      RunBlocks(traced, shape, half_s, &scope);

  size_t attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced_blocks}) {
    for (const Block& b : *set) {
      attempted += b.samples.size();
      failed += b.samples.size() - b.ok_count();
    }
  }
  o->attempted = attempted;
  o->failed = failed;

  // Timings are host-adjusted like the end-to-end run's; the queue wait
  // is a difference of two raw times taken at the same moment.
  const auto adjusted = &Sample::adjusted_ms;
  std::map<std::string, double> p50, p50_traced;
  size_t queries = 0;
  double raw_sum = 0.0, adjusted_sum = 0.0, probe_cpu_ms = 0.0;
  std::vector<double> queue_wait;
  for (const Block& b : plain) {
    p50[b.protocol] = Median(Latencies(b.samples, "", adjusted));
    queries += b.ok_count();
    probe_cpu_ms += b.probe_cpu_ms;
    for (const Sample& s : b.samples) {
      if (!s.ok) continue;
      queue_wait.push_back(s.latency_ms - s.inner_ms);
      raw_sum += s.latency_ms;
      adjusted_sum += s.adjusted_ms;
    }
  }
  const double plain_factor = raw_sum > 0 ? adjusted_sum / raw_sum : 1.0;
  for (const Block& b : traced_blocks) {
    p50_traced[b.protocol] = Median(Latencies(b.samples, "", adjusted));
  }
  const PreparedRegistryStats c0 = plain.front().cache_before;
  const PreparedRegistryStats c1 = plain.back().cache_after;
  auto& m = o->metrics;
  m.push_back({"service.queue_wait_ms", Mean(queue_wait), "ms"});
  const double lookups = double(c1.hits - c0.hits + c1.misses - c0.misses);
  m.push_back({"service.cache_hit_rate",
               lookups > 0 ? (c1.hits - c0.hits) / lookups : 0.0, "ratio"});
  m.push_back({"service.cache_evictions_per_query",
               queries ? double(c1.evictions - c0.evictions) / queries : 0.0,
               "count"});
  m.push_back({"service.cache_resident_mb", c1.resident_bytes / 1048576.0, "MB"});
  m.push_back({"plan.explain_ms", Median(explain_ms), "ms"});
  for (const char* p : {"das", "commutative", "pm"}) {
    double predicted = 0.0;
    for (const auto& c : choice->candidates) {
      if (!c.mixed && c.ProtocolsLabel() == p) predicted = c.total_wall_ms;
    }
    m.push_back({std::string("plan.predicted_over_measured.") + p,
                 p50[p] > 0 ? predicted / p50[p] : 0.0, "ratio"});
  }

  // Span self time per layer, per query, from the traced blocks.
  std::map<std::string, std::map<std::string, double>> layer_ms;  // p → layer
  double request_ms = 0.0;
  size_t traced_queries = 0;
  uint64_t superset_pairs = 0, das_queries = 0, frame_wait_ns = 0;
  for (const Block& b : traced_blocks) {
    const size_t n = std::max<size_t>(1, b.ok_count());
    for (const auto& [layer, ms] : FoldSelfTime(b.spans)) {
      layer_ms[b.protocol][layer] = ms * b.factor / n;
      if (layer == "request") request_ms += ms * b.factor;
    }
    traced_queries += b.ok_count();
    frame_wait_ns += b.frame_wait_ns;
    if (b.protocol == "das") {
      superset_pairs += ItemsOf(b.spans, "/das.apply_client_query");
      das_queries += b.ok_count();
    }
  }
  m.push_back({"core.request_ms",
               traced_queries ? request_ms / traced_queries : 0.0, "ms"});
  for (const char* layer : {"source_delivery", "mediator", "client_post"}) {
    const std::string prefix = std::string("core.") + layer + "_ms.";
    for (const char* p : {"das", "commutative", "pm"}) {
      m.push_back({prefix + p, layer_ms[p][layer], "ms"});
    }
  }
  m.push_back({"das.superset_pairs_per_query",
               das_queries ? double(superset_pairs) / das_queries : 0.0,
               "count"});
  std::vector<double> muls, sqrs;
  for (const Block& b : plain) {
    const double n = std::max<size_t>(1, b.ok_count());
    muls.push_back(b.muls / n);
    sqrs.push_back(b.sqrs / n);
  }
  m.push_back({"bigint.mont_mul_per_query", Mean(muls), "count"});
  m.push_back({"bigint.mont_sqr_per_query", Mean(sqrs), "count"});
  m.insert(m.end(), crypto.begin(), crypto.end());
  for (size_t i = 0; i < cpu1.size(); ++i) {
    // The host probes ran on the client, in this process.
    double cpu_ms = cpu1[i].second - cpu0[i].second;
    if (d->processes() == 1 || cpu1[i].first == "client") cpu_ms -= probe_cpu_ms;
    m.push_back({"net.cpu_ms_per_query." + cpu1[i].first,
                 queries ? cpu_ms * plain_factor / queries : 0.0, "ms"});
  }
  for (const auto& [process, mb] : rss) {
    m.push_back({"net.rss_mb." + process, mb, "MB"});
  }
  std::vector<Sample> all_plain;
  for (const Block& b : plain) {
    all_plain.insert(all_plain.end(), b.samples.begin(), b.samples.end());
  }
  m.push_back({"net.messages_per_query",
               CycleMean(all_plain, shape.cycle,
                         [](const Sample& s) { return double(s.messages); }),
               "count"});
  m.push_back({"net.frame_wait_ms",
               traced_queries ? frame_wait_ns / 1e6 / traced_queries : 0.0,
               "ms"});
  std::vector<double> overhead;
  for (const std::string& p : shape.cycle) {
    if (p50[p] > 0) overhead.push_back(100.0 * (p50_traced[p] / p50[p] - 1.0));
  }
  m.push_back({"obs.trace_overhead_pct", Mean(overhead), "%"});

  // Ledger rows: each layer's self time and its share of the protocol's
  // traced p50 (the run the spans come from).
  auto& l = o->ledger;
  l.push_back({"host.factor", plain_factor, "ratio"});
  for (const std::string& p : shape.cycle) {
    l.push_back({p + ".latency_p50_ms", p50[p], "ms"});
    l.push_back({p + ".traced_latency_p50_ms", p50_traced[p], "ms"});
    for (const auto& [layer, ms] : layer_ms[p]) {
      l.push_back({p + "." + layer + "_ms", ms, "ms"});
      l.push_back({p + "." + layer + "_share",
                   p50_traced[p] > 0 ? ms / p50_traced[p] : 0.0, "ratio"});
    }
  }
  for (const Block& b : plain) {
    const double n = std::max<size_t>(1, b.ok_count());
    l.push_back({b.protocol + ".samples", double(b.ok_count()), "count"});
    l.push_back({b.protocol + ".mont_mul_per_query", b.muls / n, "count"});
    l.push_back({b.protocol + ".mont_sqr_per_query", b.sqrs / n, "count"});
    l.push_back({b.protocol + ".wire_bytes_per_query",
                 CycleMean(b.samples, {b.protocol},
                           [](const Sample& s) { return double(s.bytes); }),
                 "bytes"});
  }
  if (shape.tcp) {
    DaemonLedger(static_cast<TcpDeployment*>(d.get()), trace_base,
                 traced_queries, &l);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) Die("flags come in --name value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = std::stoi(value);
    else if (flag == "--secmedd") args.secmedd = value;
    else if (flag == "--run-dir") args.run_dir = value;
    else Die("unknown flag " + flag);
  }
  const Shape shape = ShapeFor(args.workload, args.seed);
  const size_t nproc = Nproc();
  const int pinned_cpu = shape.tcp ? -1 : PinToLastCpu();
  if (shape.tcp && access(args.secmedd.c_str(), X_OK) != 0) {
    Die("--secmedd must name the secmedd binary");
  }

  Outcome o;
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench: WARNING: unoptimized build — timings are not "
                 "comparable\n");
  }
  const WorkloadConfig& w = shape.relations;
  o.context = {
      {"workload", JsonStr(shape.name)},
      {"trace", Num(args.trace)},
      {"seed", Num(double(args.seed))},
      {"seconds", Num(args.seconds)},
      {"build_type", JsonStr(PERFBENCH_BUILD_TYPE)},
      {"optimized", optimized ? "true" : "false"},
      {"nproc", Num(double(nproc))},
      {"pinned_cpu", Num(double(pinned_cpu))},
      {"cpu_model", JsonStr(CpuModel())},
      {"tuples", "[" + Num(double(w.r1_tuples)) + ", " +
                     Num(double(w.r2_tuples)) + "]"},
      {"join_domain", Num(double(w.r1_domain))},
      {"common_values", Num(double(w.common_values))},
      {"clients", "1"},
      {"threads_per_session", "1"},
      {"cache_budget_bytes", Num(double(shape.cache_bytes))},
      {"tail_percentile", Num(shape.tail_percentile)},
  };
  if (args.trace) {
    RunLedger(shape, args, &o);
  } else {
    RunEndToEnd(shape, args, &o);
  }

  // Readable table on stderr, full record in the run directory.
  std::fprintf(stderr, "perfbench %s (trace %d, seed %llu): %zu attempted, "
               "%zu failed\n", shape.name.c_str(), args.trace,
               static_cast<unsigned long long>(args.seed), o.attempted,
               o.failed);
  for (const auto* set : {&o.metrics, &o.ledger}) {
    for (const Metric& m : *set) {
      std::fprintf(stderr, "  %-48s %14.4f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  std::string context = "{";
  for (size_t i = 0; i < o.context.size(); ++i) {
    if (i) context += ", ";
    context += JsonStr(o.context[i].first) + ": " + o.context[i].second;
  }
  context += "}";
  const bool correct = o.failed == 0 && o.attempted > 0;
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(o.attempted) +
      ", \"failed\": " + std::to_string(o.failed) +
      ", \"metrics\": " + MetricsJson(o.metrics) + "}";
  const std::string path = args.run_dir + "/" + shape.name + ".trace" +
                           std::to_string(args.trace) + ".json";
  std::ofstream(path) << "{\"context\": " << context
                      << ",\n \"result\": " << result
                      << ",\n \"ledger\": " << MetricsJson(o.ledger) << "}\n";
  std::printf("perfbench context: %s\n%s\n", context.c_str(), result.c_str());
  return 0;
}
