// Tier-1 determinism guard of the query service layer: N sessions run
// through the SessionScheduler — concurrently, over the shared prepared
// cache, at 1 and 4 intra-session threads — produce per-session
// transcripts bit-identical to the same sessions executed serially. A
// session is a function of (query, session id) alone; neither scheduling
// nor cache state may leak into its bytes.

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/testbed.h"
#include "service/query_service.h"

namespace secmed {
namespace {

constexpr size_t kSessions = 4;

Workload DetWorkload() {
  WorkloadConfig cfg;
  cfg.r1_tuples = 14;
  cfg.r2_tuples = 12;
  cfg.r1_domain = 7;
  cfg.r2_domain = 6;
  cfg.common_values = 3;
  cfg.seed = 777;
  return GenerateWorkload(cfg);
}

MediationTestbed& SharedTestbed() {
  static MediationTestbed* tb = [] {
    auto t = MediationTestbed::Create(DetWorkload());
    if (!t.ok()) {
      ADD_FAILURE() << t.status().ToString();
      std::abort();
    }
    return std::move(t).value().release();
  }();
  return *tb;
}

QueryService::Options ServiceOptions(const std::string& protocol,
                                     size_t threads, size_t max_concurrent) {
  QueryService::Options opt;
  opt.max_concurrent = max_concurrent;
  opt.queue_depth = kSessions;
  opt.use_prepared = true;
  opt.record_transcripts = true;
  opt.threads = threads;
  opt.rng_label = "det-" + protocol;
  return opt;
}

QueryService::Query QueryFor(const std::string& protocol,
                             MediationTestbed& tb) {
  QueryService::Query q;
  q.protocol = protocol;
  q.sql = tb.JoinSql();
  q.group_bits = 256;
  return q;
}

/// Runs kSessions queries and returns session id -> outcome.
std::map<uint64_t, QueryOutcome> RunSessions(QueryService* service,
                                             const QueryService::Query& query,
                                             bool concurrent) {
  std::map<uint64_t, QueryOutcome> out;
  if (concurrent) {
    std::vector<std::future<QueryOutcome>> futures;
    for (size_t i = 0; i < kSessions; ++i) {
      auto promise = std::make_shared<std::promise<QueryOutcome>>();
      futures.push_back(promise->get_future());
      auto id = service->Submit(query, [promise](QueryOutcome o) {
        promise->set_value(std::move(o));
      });
      EXPECT_TRUE(id.ok()) << id.status().ToString();
    }
    for (auto& f : futures) {
      QueryOutcome o = f.get();
      out.emplace(o.session_id, std::move(o));
    }
  } else {
    for (size_t i = 0; i < kSessions; ++i) {
      auto o = service->Run(query);
      EXPECT_TRUE(o.ok()) << o.status().ToString();
      if (o.ok()) out.emplace(o->session_id, std::move(o).value());
    }
  }
  return out;
}

struct Case {
  const char* protocol;
  size_t threads;
};

class ServiceDeterminismTest
    : public ::testing::TestWithParam<std::tuple<const char*, size_t>> {};

TEST_P(ServiceDeterminismTest, ConcurrentSessionsMatchSerialBitForBit) {
  const std::string protocol = std::get<0>(GetParam());
  const size_t threads = std::get<1>(GetParam());
  MediationTestbed& tb = SharedTestbed();
  QueryService::Query query = QueryFor(protocol, tb);

  // Serial reference: one worker, sessions 1..N back to back.
  QueryService serial(&tb, ServiceOptions(protocol, threads, 1));
  std::map<uint64_t, QueryOutcome> want = RunSessions(&serial, query, false);
  ASSERT_EQ(want.size(), kSessions);

  // Concurrent run: N workers racing over one shared cache.
  QueryService parallel(&tb, ServiceOptions(protocol, threads, kSessions));
  std::map<uint64_t, QueryOutcome> got = RunSessions(&parallel, query, true);
  ASSERT_EQ(got.size(), kSessions);

  for (auto& [id, serial_outcome] : want) {
    ASSERT_TRUE(got.count(id)) << "missing session " << id;
    const QueryOutcome& parallel_outcome = got.at(id);
    ASSERT_TRUE(serial_outcome.status.ok()) << serial_outcome.status.ToString();
    ASSERT_TRUE(parallel_outcome.status.ok())
        << parallel_outcome.status.ToString();
    EXPECT_EQ(serial_outcome.messages, parallel_outcome.messages)
        << protocol << " session " << id;
    EXPECT_EQ(serial_outcome.transcript, parallel_outcome.transcript)
        << protocol << " session " << id
        << ": transcripts must be bit-identical";
    EXPECT_EQ(serial_outcome.result_digest, parallel_outcome.result_digest);
    EXPECT_EQ(serial_outcome.result.Serialize(),
              parallel_outcome.result.Serialize());
  }

  // Every session answers the same join.
  const Bytes& digest = want.begin()->second.result_digest;
  for (auto& [id, o] : want) EXPECT_EQ(o.result_digest, digest);
}

// Named from the values, not the printed parameter: gtest prints a
// const char* as its address, which differs between builds.
INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ServiceDeterminismTest,
    ::testing::Combine(::testing::Values("commutative", "das", "pm"),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace secmed
