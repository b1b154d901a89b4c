// Fault-injection tests. The paper's protocols assume semi-honest parties
// and a faithful network; against *active* tampering they provide
// confidentiality and authenticity of the data they deliver, but not
// completeness: a flipped bit in a (homomorphically malleable) Paillier
// ciphertext or an unauthenticated DAS index value can silently un-match
// a join value, dropping its tuples from the result.
//
// The invariants these tests pin down are therefore:
//   1. no fabrication — a byte-flipped or truncated run never *invents*
//      result tuples: every returned tuple also appears in the reference
//      result (AEAD tags and value fingerprints make spurious matches
//      infeasible); a mediator that re-pairs or repeats its matches is
//      caught by the clients (MediatorRewrite below);
//   2. frequent detection — corruption of integrity-protected messages
//      fails loudly;
//   3. clean failure — misrouting or truncation yields error statuses, not
//      crashes or junk.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "core/aggregate_protocol.h"
#include "core/commutative_protocol.h"
#include "core/das_protocol.h"
#include "core/intersection_protocol.h"
#include "core/pm_protocol.h"
#include "core/testbed.h"
#include "crypto/drbg.h"
#include "das/das_relation.h"
#include "das/index_table.h"
#include "das/query_translator.h"
#include "net/tcp_transport.h"
#include "util/serialize.h"

namespace secmed {
namespace {

Workload TinyWorkload() {
  WorkloadConfig cfg;
  cfg.r1_tuples = 10;
  cfg.r2_tuples = 8;
  cfg.r1_domain = 5;
  cfg.r2_domain = 4;
  cfg.common_values = 3;
  cfg.r1_extra_columns = 1;
  cfg.r2_extra_columns = 1;
  cfg.seed = 31;
  return GenerateWorkload(cfg);
}

std::unique_ptr<JoinProtocol> MakeProtocol(const std::string& which) {
  if (which == "das") {
    return std::make_unique<DasJoinProtocol>(
        DasProtocolOptions{PartitionStrategy::kEquiDepth, 2});
  }
  if (which == "commutative") {
    return std::make_unique<CommutativeJoinProtocol>(
        CommutativeProtocolOptions{256, false});
  }
  return std::make_unique<PmJoinProtocol>();
}

// True iff every tuple of `sub` occurs in `super` at least as often
// (bag inclusion).
bool IsSubBag(const Relation& sub, const Relation& super) {
  if (!(sub.schema() == super.schema())) return false;
  std::map<Bytes, int> counts;
  for (const Tuple& t : super.tuples()) counts[EncodeTuple(t)]++;
  for (const Tuple& t : sub.tuples()) {
    if (--counts[EncodeTuple(t)] < 0) return false;
  }
  return true;
}

class TamperResistance : public ::testing::TestWithParam<std::string> {};

TEST_P(TamperResistance, ByteFlipsNeverFabricateResults) {
  // First run untampered to learn the message count and reference result.
  Workload w = TinyWorkload();
  size_t message_count = 0;
  Relation reference;
  {
    MediationTestbed::Options opt;
    opt.seed_label = "tamper-ref-" + GetParam();
    auto tb_or = MediationTestbed::Create(w, opt);
    ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
    MediationTestbed& tb = **tb_or;
    auto protocol = MakeProtocol(GetParam());
    reference = protocol->Run(tb.JoinSql(), tb.ctx()).value();
    message_count = tb.bus().transcript().size();
  }
  ASSERT_GT(message_count, 4u);

  size_t failed = 0, correct = 0;
  for (size_t target = 0; target < message_count; ++target) {
    MediationTestbed::Options opt;
    opt.seed_label = "tamper-ref-" + GetParam();  // same randomness
    auto tb_or = MediationTestbed::Create(w, opt);
    ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
    MediationTestbed& tb = **tb_or;
    size_t counter = 0;
    tb.bus().SetTamperHook([&counter, target](Message* msg) {
      if (counter++ == target && !msg->payload.empty()) {
        msg->payload[msg->payload.size() / 2] ^= 0x01;
      }
    });
    auto protocol = MakeProtocol(GetParam());
    auto result = protocol->Run(tb.JoinSql(), tb.ctx());
    if (!result.ok()) {
      ++failed;
      continue;
    }
    // A surviving run may have lost matches (completeness is not
    // guaranteed against active attackers) but must never invent tuples.
    EXPECT_TRUE(IsSubBag(*result, reference))
        << GetParam() << ": tampering message " << target
        << " fabricated result tuples";
    ++correct;
  }
  // At least the integrity-protected layers must catch some corruptions.
  EXPECT_GE(failed, 1u) << GetParam() << ": no corruption detected at all";
  (void)correct;
}

TEST_P(TamperResistance, TruncationNeverFabricatesResults) {
  Workload w = TinyWorkload();
  size_t message_count = 0;
  Relation reference;
  {
    MediationTestbed::Options opt;
    opt.seed_label = "trunc-ref-" + GetParam();
    auto tb_or = MediationTestbed::Create(w, opt);
    ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
    MediationTestbed& tb = **tb_or;
    auto protocol = MakeProtocol(GetParam());
    reference = protocol->Run(tb.JoinSql(), tb.ctx()).value();
    message_count = tb.bus().transcript().size();
  }

  for (size_t target = 0; target < message_count; ++target) {
    MediationTestbed::Options opt;
    opt.seed_label = "trunc-ref-" + GetParam();
    auto tb_or = MediationTestbed::Create(w, opt);
    ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
    MediationTestbed& tb = **tb_or;
    size_t counter = 0;
    tb.bus().SetTamperHook([&counter, target](Message* msg) {
      if (counter++ == target && msg->payload.size() > 8) {
        msg->payload.resize(msg->payload.size() / 2);
      }
    });
    auto protocol = MakeProtocol(GetParam());
    auto result = protocol->Run(tb.JoinSql(), tb.ctx());
    if (result.ok()) {
      EXPECT_TRUE(IsSubBag(*result, reference))
          << GetParam() << ": truncating message " << target
          << " fabricated result tuples";
    }
  }
}

TEST_P(TamperResistance, MisroutedMessageFailsCleanly) {
  Workload w = TinyWorkload();
  MediationTestbed::Options opt;
  opt.seed_label = "misroute-" + GetParam();
  auto tb_or = MediationTestbed::Create(w, opt);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  size_t counter = 0;
  std::string client = tb.client().name();
  tb.bus().SetTamperHook([&counter, client](Message* msg) {
    if (counter++ == 3) msg->to = client;  // divert a delivery-phase message
  });
  auto protocol = MakeProtocol(GetParam());
  auto result = protocol->Run(tb.JoinSql(), tb.ctx());
  EXPECT_FALSE(result.ok());
}

INSTANTIATE_TEST_SUITE_P(Protocols, TamperResistance,
                         ::testing::Values("das", "commutative", "pm"));

// --- Structural fields of the matching rounds ----------------------------
//
// The five matching protocols run over core/matching.h's two rounds, whose
// messages carry a source tag and, in the commutative round, payload IDs;
// DAS's encrypted results and forwarded index tables carry a source tag
// too. A tag outside {1, 2} or repeated within a message kind, an ID that
// names no forwarded entry, and an empty opposite polynomial must each
// fail the run with kProtocolError: never crash, never return a smaller
// result.

struct RoundTamper {
  std::string label;
  const char* type;                    // the first message of this type...
  std::function<void(Bytes*)> rewrite;  // ...is rewritten in transit
};

std::vector<RoundTamper> RoundTampers(const std::string& protocol) {
  const bool das = protocol == "das";
  const bool commutative = !das && protocol.rfind("pm", 0) != 0;
  std::vector<const char*> tagged =
      das ? std::vector<const char*>{"das_encrypted_result", "das_index_table"}
      : commutative ? std::vector<const char*>{"comm_message_set",
                                               "comm_exchange",
                                               "comm_double_encrypted"}
                    : std::vector<const char*>{"pm_coefficients",
                                               "pm_exchange", "pm_evaluations"};
  std::vector<RoundTamper> out;
  for (const char* type : tagged) {
    for (int tag : {0, 3, 255}) {
      out.push_back({std::string(type) + " tag " + std::to_string(tag), type,
                     [tag](Bytes* p) { (*p)[0] = static_cast<uint8_t>(tag); }});
    }
    // 1 <-> 2: a tag of the other source, so one tag arrives twice.
    out.push_back({std::string(type) + " other tag", type,
                   [](Bytes* p) { (*p)[0] ^= 3; }});
  }
  if (commutative) {
    // Layout: u8 origin | u32 n | n * (bytes doubled | u64 id).
    auto id_at = [](const Bytes& p, size_t entry) {
      BinaryReader r(p);
      (void)r.ReadU8();
      (void)r.ReadU32();
      for (size_t k = 0; k < entry; ++k) {
        (void)r.ReadBytes();
        (void)r.ReadU64();
      }
      (void)r.ReadBytes();
      return p.size() - r.remaining();
    };
    out.push_back({"out-of-range payload ID", "comm_double_encrypted",
                   [id_at](Bytes* p) {
                     std::fill_n(p->begin() + id_at(*p, 0), 8, 0xff);
                   }});
    out.push_back({"repeated payload ID", "comm_double_encrypted",
                   [id_at](Bytes* p) {
                     std::copy_n(p->begin() + id_at(*p, 0), 8,
                                 p->begin() + id_at(*p, 1));
                   }});
  } else if (!das) {
    out.push_back({"zero coefficient count", "pm_exchange", [](Bytes* p) {
                     BinaryWriter w;
                     w.WriteU8((*p)[0]);
                     w.WriteU32(0);
                     *p = w.TakeBuffer();
                   }});
  }
  return out;
}

using RoundRun = std::function<Status(const std::string& sql,
                                      ProtocolContext* ctx)>;

RoundRun RoundProtocol(const std::string& name) {
  if (name == "commutative") {
    return [](const std::string& sql, ProtocolContext* ctx) {
      return CommutativeJoinProtocol({256, false}).Run(sql, ctx).status();
    };
  }
  if (name == "commutative_intersection") {
    return [](const std::string& sql, ProtocolContext* ctx) {
      return CommutativeIntersectionProtocol(256).Run(sql, ctx).status();
    };
  }
  if (name == "aggregate") {
    return [](const std::string& sql, ProtocolContext* ctx) {
      return AggregateJoinProtocol(256)
          .Run(sql, {AggregateFn::kCount, ""}, ctx)
          .status();
    };
  }
  if (name == "pm") {
    return [](const std::string& sql, ProtocolContext* ctx) {
      return PmJoinProtocol().Run(sql, ctx).status();
    };
  }
  if (name == "das") {
    return [](const std::string& sql, ProtocolContext* ctx) {
      return DasJoinProtocol().Run(sql, ctx).status();
    };
  }
  return [](const std::string& sql, ProtocolContext* ctx) {
    return PmIntersectionProtocol().Run(sql, ctx).status();
  };
}

// Runs `protocol` once per tamper over a testbed seeded from `label`,
// rewriting the first message of the tamper's type, and expects every
// run to fail with kProtocolError.
void ExpectProtocolErrors(const Workload& w, const std::string& label,
                          const std::string& protocol, const RoundRun& run,
                          const std::vector<RoundTamper>& tampers) {
  MediationTestbed::Options opt;
  opt.seed_label = label;
  auto tb_or = MediationTestbed::Create(w, opt);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  MediationTestbed& tb = **tb_or;
  for (const RoundTamper& tamper : tampers) {
    NetworkBus bus;
    HmacDrbg rng(ToBytes(label + "/" + protocol));
    bool fired = false;
    bus.SetTamperHook([&](Message* msg) {
      if (fired || msg->type != tamper.type) return;
      tamper.rewrite(&msg->payload);
      fired = true;
    });
    ProtocolContext ctx = tb.SessionContext(&bus, &rng);
    Status status = run(tb.JoinSql(), &ctx);
    ASSERT_TRUE(fired) << tamper.label << ": no " << tamper.type << " message";
    EXPECT_EQ(status.code(), StatusCode::kProtocolError)
        << tamper.label << ": " << status.ToString();
  }
}

class RoundFieldTamper : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundFieldTamper, FailsWithProtocolError) {
  ExpectProtocolErrors(TinyWorkload(), "round-fields", GetParam(),
                       RoundProtocol(GetParam()), RoundTampers(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Rounds, RoundFieldTamper,
                         ::testing::Values("commutative",
                                           "commutative_intersection",
                                           "aggregate", "pm",
                                           "pm_intersection", "das"));

// --- A mediator that rewrites its result message -------------------------
//
// The mediator computes the matches, so it could re-pair or repeat them
// in its result message. The sources' sealing keeps it from altering
// what it pairs, and the client checks the pairing itself: the
// commutative join's client rejects a pair whose tuple sets carry
// different join values and a tuple set in two pairs; the DAS client
// rejects a repeated pair, an etuple listed twice and a position past
// the end. Each rewrite below would otherwise return wrong rows with an
// OK status. A dropped match is still not detected.

// The workload of the pairing probes: its plaintext join has 31 rows.
Workload ProbeWorkload() {
  WorkloadConfig cfg;
  cfg.r1_tuples = 20;
  cfg.r2_tuples = 16;
  cfg.r1_domain = 6;
  cfg.r2_domain = 5;
  cfg.common_values = 3;
  cfg.seed = 77;
  return GenerateWorkload(cfg);
}

// comm_result: bytes schema1 | bytes schema2 | u32 n | n * (bytes, bytes).
struct CommResult {
  Bytes schema1, schema2;
  std::vector<std::pair<Bytes, Bytes>> pairs;

  static CommResult Parse(const Bytes& p) {
    BinaryReader r(p);
    CommResult c;
    c.schema1 = r.ReadBytes().value();
    c.schema2 = r.ReadBytes().value();
    const uint32_t n = r.ReadU32().value();
    for (uint32_t k = 0; k < n; ++k) {
      Bytes e1 = r.ReadBytes().value();
      c.pairs.emplace_back(std::move(e1), r.ReadBytes().value());
    }
    return c;
  }

  Bytes Serialize() const {
    BinaryWriter w;
    w.WriteBytes(schema1);
    w.WriteBytes(schema2);
    w.WriteU32(static_cast<uint32_t>(pairs.size()));
    for (const auto& [e1, e2] : pairs) {
      w.WriteBytes(e1);
      w.WriteBytes(e2);
    }
    return w.TakeBuffer();
  }
};

// das_server_result in the client setting: bytes DasServerResult.
void RewriteDasResult(Bytes* p, const std::function<void(DasServerResult*)>& f) {
  BinaryReader r(*p);
  DasServerResult rc = DasServerResult::Deserialize(r.ReadBytes().value()).value();
  f(&rc);
  BinaryWriter w;
  w.WriteBytes(rc.Serialize());
  *p = w.TakeBuffer();
}

std::vector<RoundTamper> ResultRewrites(const std::string& protocol) {
  if (protocol == "das") {
    return {
        {"repeated pair", "das_server_result",
         [](Bytes* p) {
           RewriteDasResult(p, [](DasServerResult* rc) {
             rc->pairs.push_back(rc->pairs.front());
           });
         }},
        {"etuple repeated at a new position", "das_server_result",
         [](Bytes* p) {
           RewriteDasResult(p, [](DasServerResult* rc) {
             const auto [a, b] = rc->pairs.front();
             rc->etuples1.push_back(rc->etuples1[a]);
             rc->pairs.emplace_back(rc->etuples1.size() - 1, b);
           });
         }},
        {"position past the end", "das_server_result",
         [](Bytes* p) {
           RewriteDasResult(p, [](DasServerResult* rc) {
             rc->pairs.back().second = rc->etuples2.size();
           });
         }},
    };
  }
  return {
      {"second payloads of two pairs swapped", "comm_result",
       [](Bytes* p) {
         CommResult c = CommResult::Parse(*p);
         std::swap(c.pairs[0].second, c.pairs[1].second);
         *p = c.Serialize();
       }},
      {"repeated pair", "comm_result",
       [](Bytes* p) {
         CommResult c = CommResult::Parse(*p);
         c.pairs.push_back(c.pairs.front());
         *p = c.Serialize();
       }},
  };
}

RoundRun ResultProtocol(const std::string& name) {
  if (name == "das") return RoundProtocol("das");
  const bool forward = name == "commutative_forward";
  return [forward](const std::string& sql, ProtocolContext* ctx) {
    return CommutativeJoinProtocol({256, forward}).Run(sql, ctx).status();
  };
}

class MediatorRewrite : public ::testing::TestWithParam<std::string> {};

TEST_P(MediatorRewrite, FailsWithProtocolError) {
  ExpectProtocolErrors(ProbeWorkload(), "mediator-rewrite", GetParam(),
                       ResultProtocol(GetParam()), ResultRewrites(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Results, MediatorRewrite,
                         ::testing::Values("commutative",
                                           "commutative_forward", "das"));

// Deserializers must reject random garbage without crashing.
TEST(FuzzishDeserializeTest, RandomBytesRejectedGracefully) {
  Xoshiro256 rng(77);
  for (int i = 0; i < 300; ++i) {
    Bytes junk = rng.NextBytes(rng.NextBelow(200));
    (void)Relation::Deserialize(junk);
    (void)Credential::Deserialize(junk);
    (void)RsaPublicKey::Deserialize(junk);
    (void)PaillierPublicKey::Deserialize(junk);
    (void)DecodeTuple(junk);
    BinaryReader r(junk);
    (void)Schema::DecodeFrom(&r);
    (void)DasRelation::Deserialize(junk);
    (void)DasServerQuery::Deserialize(junk);
    (void)DasServerResult::Deserialize(junk);
    (void)IndexTable::Deserialize(junk);
  }
  SUCCEED();
}

// Every prefix of a valid serialization must be rejected (no over-reads).
template <typename T>
void ExpectAllTruncationsRejected(const T& value) {
  Bytes full = value.Serialize();
  for (size_t len = 0; len < full.size(); ++len) {
    Bytes prefix(full.begin(), full.begin() + len);
    EXPECT_FALSE(T::Deserialize(prefix).ok()) << len;
  }
  EXPECT_TRUE(T::Deserialize(full).ok());
}

TEST(FuzzishDeserializeTest, AllTruncationsRejected) {
  Relation rel{Schema({{"id", ValueType::kInt64}, {"s", ValueType::kString}})};
  ASSERT_TRUE(rel.Append({Value::Int(1), Value::Str("abc")}).ok());
  ASSERT_TRUE(rel.Append({Value::Int(2), Value::Null()}).ok());
  ExpectAllTruncationsRejected(rel);

  DasRelation das;
  das.name = "r";
  das.tuples = {{{1, 2, 3}, {7, 9}}, {{4}, {8}}};
  ExpectAllTruncationsRejected(das);
  ExpectAllTruncationsRejected(DasServerQuery{{{{1, 2}, {3, 4}}, {{5, 6}}}});
  ExpectAllTruncationsRejected(
      DasServerResult{{Bytes{1, 2}, Bytes{3}}, {Bytes{4}}, {{0, 0}, {1, 0}}});
  ExpectAllTruncationsRejected(IndexTable(
      "a", {{.index = 5, .is_range = true, .lo = 0, .hi = 9, .values = {}},
            {.index = 6,
             .is_range = false,
             .lo = 0,
             .hi = 0,
             .values = {Value::Str("x"), Value::Int(3)}}}));
}

// A DAS relation that declares more join indexes than it has bytes for
// must fail before it reserves memory for them: 0xFFFFFFFF indexes would
// ask for a 32 GiB reservation.
TEST(FuzzishDeserializeTest, HugeJoinIndexCountRejected) {
  BinaryWriter w;
  w.WriteString("r");
  w.WriteU32(1);                 // one tuple
  w.WriteBytes(Bytes{1, 2, 3});  // its etuple
  w.WriteU32(0xFFFFFFFFu);       // join index count
  w.WriteU64(42);                // room for one index only
  EXPECT_EQ(DasRelation::Deserialize(w.TakeBuffer()).status().code(),
            StatusCode::kParseError);
}

// --- Frame-level tampering on the TCP transport -------------------------
//
// Corruption *below* the message layer (on the encoded frames the
// sockets carry) must surface as clean error statuses at the receiving
// process: a changed byte fails the wire-vs-shadow verification, stream
// desynchronization is a protocol error, and a withheld tail is a
// deadline — never a crash, junk message, or unbounded allocation.

/// Two single-party deployment processes (alice | bob) wired over
/// loopback, with a frame tamper hook on alice's outbound frames.
struct FramePair {
  std::unique_ptr<PeerHost> host_a, host_b;
  std::unique_ptr<TcpTransport> alice, bob;

  static FramePair Create(int timeout_ms) {
    FramePair p;
    p.host_a = std::move(PeerHost::Listen(0)).value();
    p.host_b = std::move(PeerHost::Listen(0)).value();
    std::map<std::string, Endpoint> directory{
        {"alice", {"127.0.0.1", p.host_a->port()}},
        {"bob", {"127.0.0.1", p.host_b->port()}},
    };
    TcpTransport::Options oa{{"alice"}, directory, 5, timeout_ms};
    TcpTransport::Options ob{{"bob"}, directory, 5, timeout_ms};
    p.alice = std::make_unique<TcpTransport>(p.host_a.get(), oa);
    p.bob = std::make_unique<TcpTransport>(p.host_b.get(), ob);
    return p;
  }

  /// Replicated send: both processes run the same driver step.
  void SendBoth(const Message& msg) {
    ASSERT_TRUE(alice->Send(msg).ok());
    ASSERT_TRUE(bob->Send(msg).ok());
  }
};

TEST(FrameTamperTest, FlippedFrameByteFailsWireVerification) {
  FramePair p = FramePair::Create(5000);
  p.alice->SetFrameTamperHook([](Bytes* frame) {
    frame->back() ^= 0x01;  // flip one payload byte, length unchanged
  });
  p.SendBoth({"alice", "bob", "data", ToBytes("payload-bytes")});
  auto got = p.bob->Receive("bob");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kProtocolError);
  // The failure is sticky: a diverged session cannot continue.
  EXPECT_EQ(p.bob->Receive("bob").status().code(),
            StatusCode::kProtocolError);
}

TEST(FrameTamperTest, InflatedFrameDesynchronizesStream) {
  FramePair p = FramePair::Create(5000);
  bool first = true;
  p.alice->SetFrameTamperHook([&first](Bytes* frame) {
    if (!first) return;
    first = false;
    frame->push_back(0xde);  // extra trailing bytes after frame one
    frame->push_back(0xad);
  });
  p.SendBoth({"alice", "bob", "data", ToBytes("one")});
  p.SendBoth({"alice", "bob", "data", ToBytes("two")});
  // Frame one itself decodes (its header still frames it), but the
  // injected bytes misalign everything after it: frame two is garbage to
  // the decoder and the stream fails for good.
  auto first_msg = p.bob->Receive("bob");
  ASSERT_TRUE(first_msg.ok()) << first_msg.status().ToString();
  auto second_msg = p.bob->Receive("bob");
  ASSERT_FALSE(second_msg.ok());
  EXPECT_EQ(second_msg.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTamperTest, TruncatedFrameTimesOutCleanly) {
  FramePair p = FramePair::Create(700);
  p.alice->SetFrameTamperHook([](Bytes* frame) {
    frame->resize(frame->size() - 4);  // withhold the frame's tail
  });
  p.SendBoth({"alice", "bob", "data", ToBytes("never-arrives")});
  auto got = p.bob->Receive("bob");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(FrameTamperTest, CorruptHeaderFailsStream) {
  FramePair p = FramePair::Create(5000);
  p.alice->SetFrameTamperHook([](Bytes* frame) {
    // Set a reserved flag bit (0x01 is the legitimate trace flag since
    // wire v2, so it no longer counts as corruption).
    (*frame)[3] = 0x80;
  });
  p.SendBoth({"alice", "bob", "data", ToBytes("x")});
  auto got = p.bob->Receive("bob");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kProtocolError);
}

}  // namespace
}  // namespace secmed
