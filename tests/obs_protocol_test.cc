// Tier-1 observability guards over the real protocols:
//
//  * determinism — every delivery protocol produces a report with the
//    *identical set of span names* at every thread count (span names
//    encode role/phase/op, never scheduling);
//  * consistency — the run report's per-party traffic equals
//    Transport::StatsOf, including the per-message-type breakdown;
//  * neutrality — instrumentation never changes protocol bytes: a run
//    with a live scope and a run with a null scope are bit-identical.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/pm_protocol.h"
#include "core/run_obs.h"
#include "core/testbed.h"
#include "obs/json.h"
#include "obs/report.h"

namespace secmed {
namespace {

Workload ObsWorkload() {
  WorkloadConfig cfg;
  cfg.r1_tuples = 20;
  cfg.r2_tuples = 16;
  cfg.r1_domain = 10;
  cfg.r2_domain = 8;
  cfg.common_values = 4;
  cfg.seed = 99;
  return GenerateWorkload(cfg);
}

struct TracedRun {
  Bytes result;
  size_t transcript_bytes = 0;
  size_t transcript_messages = 0;
  std::vector<std::string> span_names;
  uint64_t bus_messages_counter = 0;
};

// Runs `run` on a fresh same-seeded testbed with a live obs scope (or a
// null one when `traced` is false) and captures everything observable.
template <typename RunFn>
TracedRun RunWith(const Workload& w, const std::string& label, size_t threads,
                  bool traced, RunFn run) {
  MediationTestbed::Options opt;
  opt.seed_label = "obs-" + label;
  opt.threads = threads;
  auto tb_or = MediationTestbed::Create(w, opt);
  if (!tb_or.ok()) {
    ADD_FAILURE() << tb_or.status().ToString();
    return {};
  }
  MediationTestbed& tb = **tb_or;
  obs::Scope scope;
  if (traced) {
    tb.ctx()->obs = &scope;
    tb.bus().SetObsScope(&scope);
  }
  TracedRun out;
  out.result = run(tb);
  out.transcript_bytes = tb.bus().TotalBytes();
  out.transcript_messages = tb.bus().transcript().size();
  out.span_names = scope.tracer().SpanNames();
  out.bus_messages_counter = scope.metrics().CounterValue("bus.messages");
  return out;
}

Bytes RunDas(MediationTestbed& tb) {
  DasJoinProtocol das(DasProtocolOptions{PartitionStrategy::kEquiDepth, 4});
  auto r = das.Run(tb.JoinSql(), tb.ctx());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->Serialize() : Bytes();
}

Bytes RunCommutative(MediationTestbed& tb) {
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  auto r = comm.Run(tb.JoinSql(), tb.ctx());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->Serialize() : Bytes();
}

Bytes RunPm(MediationTestbed& tb) {
  PmJoinProtocol pm;
  auto r = pm.Run(tb.JoinSql(), tb.ctx());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->Serialize() : Bytes();
}

// -------------------------------------------------- determinism guard --

template <typename RunFn>
void ExpectSpanNamesStable(const Workload& w, const std::string& label,
                           RunFn run, const std::vector<std::string>& expect) {
  TracedRun serial = RunWith(w, label, 1, true, run);
  TracedRun parallel = RunWith(w, label, 4, true, run);
  ASSERT_FALSE(serial.span_names.empty()) << label;
  EXPECT_EQ(serial.span_names, parallel.span_names)
      << label << ": span-name set depends on the thread count";
  std::set<std::string> names(serial.span_names.begin(),
                              serial.span_names.end());
  for (const std::string& e : expect) {
    EXPECT_TRUE(names.count(e)) << label << ": missing span " << e;
  }
}

TEST(ObsProtocol, DasSpanNamesStableAcrossThreads) {
  ExpectSpanNamesStable(ObsWorkload(), "das", RunDas,
                        {"client/request/submit_query", "mediator/request/plan",
                         "mediator/delivery/das.route",
                         "mediator/delivery/das.evaluate",
                         "client/post/das.apply_client_query"});
}

TEST(ObsProtocol, CommutativeSpanNamesStableAcrossThreads) {
  ExpectSpanNamesStable(
      ObsWorkload(), "comm", RunCommutative,
      {"client/request/submit_query", "source1/delivery/comm.deliver",
       "source2/delivery/comm.double_encrypt", "mediator/delivery/comm.match",
       "client/post/decrypt"});
}

TEST(ObsProtocol, PmSpanNamesStableAcrossThreads) {
  ExpectSpanNamesStable(
      ObsWorkload(), "pm", RunPm,
      {"client/request/submit_query", "source1/delivery/pm.encrypt_coeffs",
       "source2/delivery/pm.evaluate", "mediator/delivery/pm.forward",
       "client/post/decrypt"});
}

// ------------------------------------------------- report consistency --

TEST(ObsProtocol, ReportTrafficMatchesStatsOf) {
  Workload w = ObsWorkload();
  MediationTestbed::Options opt;
  opt.seed_label = "obs-traffic";
  auto tb_or = MediationTestbed::Create(w, opt);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  obs::Scope scope;
  tb.ctx()->obs = &scope;
  tb.bus().SetObsScope(&scope);
  CommutativeJoinProtocol comm(CommutativeProtocolOptions{256, false});
  auto r = comm.Run(tb.JoinSql(), tb.ctx());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Every party that appears on the transcript gets a row.
  std::set<std::string> party_set;
  for (const Message& m : tb.bus().transcript()) {
    party_set.insert(m.from);
    party_set.insert(m.to);
  }
  std::vector<std::string> parties(party_set.begin(), party_set.end());
  std::vector<obs::PartyTraffic> traffic = PartyTrafficRows(tb.bus(), parties);

  obs::RunInfo info;
  info.protocol = "commutative";
  info.query = tb.JoinSql();
  info.messages = tb.bus().transcript().size();
  info.total_bytes = tb.bus().TotalBytes();

  // Parse the rendered JSON back and compare every per-party total (and
  // the per-type slices) against Transport::StatsOf — the acceptance
  // criterion that the report can never diverge from the transport.
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(
      obs::ParseJson(obs::RenderRunReportJson(info, scope, traffic), &doc,
                     &error))
      << error;
  const obs::JsonValue* rows = doc.Find("traffic");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array().size(), parties.size());
  for (const obs::JsonValue& row : rows->array()) {
    const std::string party = row.Find("party")->string();
    PartyStats expect = tb.bus().StatsOf(party);
    EXPECT_EQ(row.Find("messages_sent")->number(),
              static_cast<double>(expect.messages_sent));
    EXPECT_EQ(row.Find("messages_received")->number(),
              static_cast<double>(expect.messages_received));
    EXPECT_EQ(row.Find("bytes_sent")->number(),
              static_cast<double>(expect.bytes_sent));
    EXPECT_EQ(row.Find("bytes_received")->number(),
              static_cast<double>(expect.bytes_received));
    // The by_type slices must sum exactly to the totals.
    uint64_t sent = 0, received = 0;
    for (const obs::JsonValue& t : row.Find("by_type")->array()) {
      sent += static_cast<uint64_t>(t.Find("bytes_sent")->number());
      received += static_cast<uint64_t>(t.Find("bytes_received")->number());
    }
    EXPECT_EQ(sent, expect.bytes_sent) << party;
    EXPECT_EQ(received, expect.bytes_received) << party;
  }

  // The bus counters agree with the transcript.
  EXPECT_EQ(scope.metrics().CounterValue("bus.messages"),
            tb.bus().transcript().size());
  EXPECT_EQ(scope.metrics().CounterValue("bus.bytes"), tb.bus().TotalBytes());
}

// -------------------------------------------- instrumentation neutral --

TEST(ObsProtocol, NullScopeProducesIdenticalBytes) {
  Workload w = ObsWorkload();
  TracedRun traced = RunWith(w, "neutral", 1, true, RunCommutative);
  TracedRun plain = RunWith(w, "neutral", 1, false, RunCommutative);
  EXPECT_EQ(traced.result, plain.result);
  EXPECT_EQ(traced.transcript_bytes, plain.transcript_bytes);
  EXPECT_EQ(traced.transcript_messages, plain.transcript_messages);
  EXPECT_TRUE(plain.span_names.empty());
  EXPECT_EQ(plain.bus_messages_counter, 0u);
  EXPECT_EQ(traced.bus_messages_counter, traced.transcript_messages);
}

}  // namespace
}  // namespace secmed
