#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "mediation/access_policy.h"
#include "mediation/client.h"
#include "mediation/credential.h"
#include "mediation/datasource.h"
#include "mediation/mediator.h"
#include "mediation/network.h"
#include "mediation/preparatory.h"

namespace secmed {
namespace {

HmacDrbg& TestRng() {
  static HmacDrbg* rng = new HmacDrbg(ToBytes("mediation-test"));
  return *rng;
}

const CertificationAuthority& TestCa() {
  static const CertificationAuthority* ca = new CertificationAuthority(
      CertificationAuthority::Create(1024, &TestRng()).value());
  return *ca;
}

const Client& TestClient() {
  static const Client* client = [] {
    Client* c =
        new Client(Client::Create("alice", 1024, 512, &TestRng()).value());
    EXPECT_TRUE(
        c->AcquireCredential(TestCa(), {{"role", "physician"}}).ok());
    return c;
  }();
  return *client;
}

TEST(CredentialTest, IssueAndVerify) {
  Credential cred = TestCa()
                        .Issue({{"role", "nurse"}}, TestClient().public_key())
                        .value();
  EXPECT_TRUE(VerifyCredential(cred, TestCa().public_key()).ok());
  EXPECT_TRUE(cred.HasProperty("role", "nurse"));
  EXPECT_FALSE(cred.HasProperty("role", "physician"));
  EXPECT_FALSE(cred.HasProperty("org", "nurse"));
}

TEST(CredentialTest, TamperedPropertiesRejected) {
  Credential cred = TestCa()
                        .Issue({{"role", "nurse"}}, TestClient().public_key())
                        .value();
  cred.properties["role"] = "admin";
  EXPECT_FALSE(VerifyCredential(cred, TestCa().public_key()).ok());
}

TEST(CredentialTest, TamperedKeyRejected) {
  Credential cred = TestCa()
                        .Issue({{"role", "nurse"}}, TestClient().public_key())
                        .value();
  cred.public_key[5] ^= 1;
  EXPECT_FALSE(VerifyCredential(cred, TestCa().public_key()).ok());
}

TEST(CredentialTest, WrongCaRejected) {
  HmacDrbg rng(ToBytes("other-ca"));
  CertificationAuthority other =
      CertificationAuthority::Create(1024, &rng).value();
  Credential cred = TestCa()
                        .Issue({{"role", "nurse"}}, TestClient().public_key())
                        .value();
  EXPECT_FALSE(VerifyCredential(cred, other.public_key()).ok());
}

TEST(CredentialTest, SerializeRoundTrip) {
  Credential cred =
      TestCa()
          .Issue({{"role", "nurse"}, {"org", "clinic"}},
                 TestClient().public_key(),
                 TestClient().paillier_public_key().Serialize())
          .value();
  Credential back = Credential::Deserialize(cred.Serialize()).value();
  EXPECT_EQ(back.properties, cred.properties);
  EXPECT_EQ(back.public_key, cred.public_key);
  EXPECT_EQ(back.paillier_key, cred.paillier_key);
  EXPECT_TRUE(VerifyCredential(back, TestCa().public_key()).ok());
}

TEST(CredentialTest, ClientKeyRoundTrip) {
  const Credential& cred = TestClient().credentials()[0];
  EXPECT_EQ(cred.ClientKey().value(), TestClient().public_key());
}

TEST(CredentialTest, PaillierKeyDistributedWithCredential) {
  const Credential& cred = TestClient().credentials()[0];
  ASSERT_FALSE(cred.paillier_key.empty());
  PaillierPublicKey pk =
      PaillierPublicKey::Deserialize(cred.paillier_key).value();
  EXPECT_EQ(pk, TestClient().paillier_public_key());
}

Relation Ward() {
  Relation r{Schema({{"pid", ValueType::kInt64},
                     {"ward", ValueType::kString},
                     {"diag", ValueType::kString}})};
  EXPECT_TRUE(
      r.Append({Value::Int(1), Value::Str("icu"), Value::Str("flu")}).ok());
  EXPECT_TRUE(
      r.Append({Value::Int(2), Value::Str("er"), Value::Str("cold")}).ok());
  EXPECT_TRUE(
      r.Append({Value::Int(3), Value::Str("icu"), Value::Str("cold")}).ok());
  return r;
}

Credential RoleCred(const std::string& role) {
  return TestCa().Issue({{"role", role}}, TestClient().public_key()).value();
}

TEST(AccessPolicyTest, NoMatchingRuleDenied) {
  AccessPolicy policy;
  policy.AddRule({"role", "admin", Predicate::True(), {}});
  auto res = policy.Apply(Ward(), {RoleCred("nurse")});
  EXPECT_EQ(res.status().code(), StatusCode::kPermissionDenied);
}

TEST(AccessPolicyTest, FullAccessRule) {
  AccessPolicy policy;
  policy.AddRule({"role", "physician", Predicate::True(), {}});
  Relation out = policy.Apply(Ward(), {RoleCred("physician")}).value();
  EXPECT_TRUE(out.EqualsAsBag(Ward()));
}

TEST(AccessPolicyTest, RowFilterApplied) {
  AccessPolicy policy;
  policy.AddRule({"role", "icu-staff",
                  Predicate::ColumnEquals("ward", Value::Str("icu")), {}});
  Relation out = policy.Apply(Ward(), {RoleCred("icu-staff")}).value();
  EXPECT_EQ(out.size(), 2u);
  for (const Tuple& t : out.tuples()) EXPECT_EQ(t[1], Value::Str("icu"));
}

TEST(AccessPolicyTest, ColumnMasking) {
  AccessPolicy policy;
  policy.AddRule({"role", "billing", Predicate::True(), {"pid", "diag"}});
  Relation out = policy.Apply(Ward(), {RoleCred("billing")}).value();
  EXPECT_EQ(out.size(), 3u);
  for (const Tuple& t : out.tuples()) {
    EXPECT_FALSE(t[0].is_null());
    EXPECT_TRUE(t[1].is_null());  // ward masked
    EXPECT_FALSE(t[2].is_null());
  }
}

TEST(AccessPolicyTest, UnionOfMatchingRules) {
  AccessPolicy policy;
  policy.AddRule({"role", "physician",
                  Predicate::ColumnEquals("ward", Value::Str("icu")), {}});
  policy.AddRule({"role", "physician",
                  Predicate::ColumnEquals("ward", Value::Str("er")), {}});
  Relation out = policy.Apply(Ward(), {RoleCred("physician")}).value();
  EXPECT_EQ(out.size(), 3u);
}

TEST(DataSourceTest, ExecutesQueryUnderPolicy) {
  DataSource src("hospital");
  src.set_ca_key(TestCa().public_key());
  src.AddRelation("ward", Ward());
  AccessPolicy policy;
  policy.AddRule({"role", "icu-staff",
                  Predicate::ColumnEquals("ward", Value::Str("icu")), {}});
  src.SetPolicy("ward", policy);

  Relation out = src.ExecutePartialQuery("select * from ward",
                                         {RoleCred("icu-staff")})
                     .value();
  EXPECT_EQ(out.size(), 2u);

  auto denied = src.ExecutePartialQuery("select * from ward",
                                        {RoleCred("janitor")});
  // The table is invisible to unauthorized clients.
  EXPECT_FALSE(denied.ok());
}

TEST(DataSourceTest, RejectsMissingOrForgedCredentials) {
  DataSource src("hospital");
  src.set_ca_key(TestCa().public_key());
  src.AddRelation("ward", Ward());
  EXPECT_EQ(src.ExecutePartialQuery("select * from ward", {}).status().code(),
            StatusCode::kPermissionDenied);
  Credential forged = RoleCred("physician");
  forged.properties["role"] = "admin";
  EXPECT_FALSE(
      src.ExecutePartialQuery("select * from ward", {forged}).ok());
}

TEST(DataSourceTest, ClientKeyExtraction) {
  DataSource src("hospital");
  src.set_ca_key(TestCa().public_key());
  EXPECT_EQ(src.ClientKeyFrom({RoleCred("x")}).value(),
            TestClient().public_key());
  EXPECT_FALSE(src.ClientKeyFrom({}).ok());
}

TEST(DataSourceTest, TableSchema) {
  DataSource src("s");
  src.AddRelation("ward", Ward());
  EXPECT_TRUE(src.TableSchema("ward").ok());
  EXPECT_FALSE(src.TableSchema("nope").ok());
  EXPECT_TRUE(src.HasTable("ward"));
  EXPECT_FALSE(src.HasTable("nope"));
}

Mediator MakeMediator() {
  Mediator m("mediator");
  m.RegisterTable("medical", "hospital",
                  Schema({{"pid", ValueType::kInt64},
                          {"diag", ValueType::kString}}));
  m.RegisterTable("billing", "insurer",
                  Schema({{"cid", ValueType::kInt64},
                          {"diag", ValueType::kString},
                          {"cost", ValueType::kInt64}}));
  return m;
}

TEST(MediatorTest, PlansOnJoin) {
  Mediator m = MakeMediator();
  JoinQueryPlan plan =
      m.PlanJoinQuery(
           "SELECT * FROM medical JOIN billing ON medical.diag = billing.diag")
          .value();
  EXPECT_EQ(plan.table1, "medical");
  EXPECT_EQ(plan.table2, "billing");
  EXPECT_EQ(plan.source1, "hospital");
  EXPECT_EQ(plan.source2, "insurer");
  EXPECT_EQ(plan.join_attribute, "diag");
  EXPECT_EQ(plan.partial_query1, "select * from medical");
  EXPECT_EQ(plan.partial_query2, "select * from billing");
}

TEST(MediatorTest, PlansNaturalJoin) {
  Mediator m = MakeMediator();
  JoinQueryPlan plan =
      m.PlanJoinQuery("SELECT * FROM medical NATURAL JOIN billing").value();
  EXPECT_EQ(plan.join_attribute, "diag");
}

TEST(MediatorTest, RejectsUnsupportedQueries) {
  Mediator m = MakeMediator();
  // No join.
  EXPECT_FALSE(m.PlanJoinQuery("SELECT * FROM medical").ok());
  // Projection.
  EXPECT_FALSE(m.PlanJoinQuery(
                    "SELECT diag FROM medical NATURAL JOIN billing")
                   .ok());
  // WHERE clause.
  EXPECT_FALSE(
      m.PlanJoinQuery(
           "SELECT * FROM medical NATURAL JOIN billing WHERE cost > 5")
          .ok());
  // Post-processing: the protocols return the whole join, so these must
  // fail rather than come back as the raw join.
  for (const char* sql :
       {"SELECT COUNT(*) FROM medical NATURAL JOIN billing",
        "SELECT SUM(cost) FROM medical NATURAL JOIN billing",
        "SELECT * FROM medical NATURAL JOIN billing GROUP BY diag",
        "SELECT * FROM medical NATURAL JOIN billing ORDER BY cost",
        "SELECT * FROM medical NATURAL JOIN billing LIMIT 1"}) {
    EXPECT_EQ(m.PlanJoinQuery(sql).status().code(),
              StatusCode::kUnimplemented)
        << sql;
  }
  // Unregistered table.
  EXPECT_FALSE(
      m.PlanJoinQuery("SELECT * FROM medical NATURAL JOIN unknown").ok());
  // Mismatched join attribute names.
  EXPECT_FALSE(m.PlanJoinQuery(
                    "SELECT * FROM medical JOIN billing ON "
                    "medical.pid = billing.cid")
                   .ok());
}

TEST(NetworkBusTest, SendReceiveFifo) {
  NetworkBus bus;
  bus.Send("a", "b", "t1", {1});
  bus.Send("a", "b", "t2", {2});
  EXPECT_EQ(bus.PendingFor("b"), 2u);
  Message m1 = bus.Receive("b").value();
  EXPECT_EQ(m1.type, "t1");
  Message m2 = bus.Receive("b").value();
  EXPECT_EQ(m2.type, "t2");
  EXPECT_FALSE(bus.Receive("b").ok());
}

TEST(NetworkBusTest, ReceiveOfTypeEnforcesOrder) {
  NetworkBus bus;
  bus.Send("a", "b", "t1", {});
  EXPECT_EQ(bus.ReceiveOfType("b", "t2").status().code(),
            StatusCode::kProtocolError);
  // The mismatched message is consumed by the failed receive; the next
  // message is reachable.
  bus.Send("a", "b", "t1", {});
  EXPECT_TRUE(bus.ReceiveOfType("b", "t1").ok());
}

// Regression: a type mismatch must dequeue the offending message so a
// retrying caller makes progress (kNotFound on the now-empty inbox)
// instead of spinning on the same ProtocolError forever.
TEST(NetworkBusTest, ReceiveOfTypeMismatchDequeues) {
  NetworkBus bus;
  bus.Send("a", "b", "unexpected", {1});
  ASSERT_EQ(bus.PendingFor("b"), 1u);
  EXPECT_EQ(bus.ReceiveOfType("b", "wanted").status().code(),
            StatusCode::kProtocolError);
  EXPECT_EQ(bus.PendingFor("b"), 0u);
  // Retry no longer sees the stale message: empty inbox -> kNotFound.
  EXPECT_EQ(bus.ReceiveOfType("b", "wanted").status().code(),
            StatusCode::kNotFound);
  // Later well-formed traffic is unaffected.
  bus.Send("a", "b", "wanted", {2});
  ASSERT_TRUE(bus.ReceiveOfType("b", "wanted").ok());
}

TEST(NetworkBusTest, StatsAndInteractions) {
  NetworkBus bus;
  bus.Send("client", "mediator", "q", Bytes(100));
  bus.Send("client", "mediator", "q2", Bytes(50));  // same run of sends
  bus.Send("mediator", "s1", "pq", Bytes(10));
  bus.Send("client", "mediator", "q3", Bytes(10));

  PartyStats c = bus.StatsOf("client");
  EXPECT_EQ(c.messages_sent, 3u);
  EXPECT_EQ(c.interactions, 2u);  // two maximal runs of sends
  EXPECT_GT(c.bytes_sent, 160u);

  PartyStats m = bus.StatsOf("mediator");
  EXPECT_EQ(m.messages_received, 3u);
  EXPECT_EQ(m.messages_sent, 1u);
  EXPECT_EQ(bus.StatsOf("nobody").messages_sent, 0u);
}

TEST(PreparatoryPhaseTest, CredentialIssuedOverTheBus) {
  HmacDrbg rng(ToBytes("prep"));
  Client client = Client::Create("alice", 1024, 512, &rng).value();
  NetworkBus bus;
  ASSERT_TRUE(RunPreparatoryPhase(&client, TestCa(), "ca", &bus,
                                  {{"role", "physician"}})
                  .ok());
  ASSERT_EQ(client.credentials().size(), 1u);
  const Credential& cred = client.credentials()[0];
  EXPECT_TRUE(cred.HasProperty("role", "physician"));
  EXPECT_TRUE(VerifyCredential(cred, TestCa().public_key()).ok());
  EXPECT_EQ(cred.ClientKey().value(), client.public_key());
  // The exchange is on the transcript: request to the CA, issue back.
  ASSERT_EQ(bus.transcript().size(), 2u);
  EXPECT_EQ(bus.transcript()[0].to, "ca");
  EXPECT_EQ(bus.transcript()[1].to, "alice");
}

TEST(PreparatoryPhaseTest, ForeignKeyCredentialRejected) {
  // A CA that binds the credential to a different key must be caught by
  // the client's verification step. Simulate by tampering in transit.
  HmacDrbg rng(ToBytes("prep2"));
  Client client = Client::Create("alice", 1024, 512, &rng).value();
  Client other = Client::Create("mallory", 1024, 512, &rng).value();
  NetworkBus bus;
  Bytes other_key = other.public_key().Serialize();
  bus.SetTamperHook([&](Message* msg) {
    if (msg->type != "credential_request") return;
    // Replace the requested RSA key with mallory's.
    BinaryReader r(msg->payload);
    BinaryWriter w;
    uint32_t n = r.ReadU32().value();
    w.WriteU32(n);
    for (uint32_t i = 0; i < n; ++i) {
      w.WriteString(r.ReadString().value());
      w.WriteString(r.ReadString().value());
    }
    (void)r.ReadBytes();  // original key dropped
    w.WriteBytes(other_key);
    w.WriteBytes(r.ReadBytes().value());
    msg->payload = w.TakeBuffer();
  });
  Status st = RunPreparatoryPhase(&client, TestCa(), "ca", &bus,
                                  {{"role", "physician"}});
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(client.credentials().empty());
}

TEST(NetworkCostModelTest, LatencyAndBandwidth) {
  NetworkCostModel model{10.0, 8.0};  // 10 ms RTT-half, 8 kbit/s = 1 B/ms
  EXPECT_DOUBLE_EQ(model.MessageMs(0), 10.0);
  EXPECT_DOUBLE_EQ(model.MessageMs(100), 110.0);
  NetworkCostModel infinite{5.0, 0.0};
  EXPECT_DOUBLE_EQ(infinite.MessageMs(1 << 20), 5.0);
}

TEST(NetworkCostModelTest, EstimateSumsTranscript) {
  NetworkBus bus;
  bus.Send("a", "b", "t", Bytes(100));
  bus.Send("b", "a", "t", Bytes(50));
  // WireSize adds header bytes; compute expected from the transcript.
  NetworkCostModel model{1.0, 8.0};
  double expected = 0;
  for (const Message& m : bus.transcript()) {
    expected += 1.0 + static_cast<double>(m.WireSize());
  }
  EXPECT_DOUBLE_EQ(EstimateTransferMs(bus.transcript(), model), expected);
  EXPECT_DOUBLE_EQ(EstimateTransferMs({}, model), 0.0);
}

TEST(NetworkBusTest, ViewAndTranscript) {
  NetworkBus bus;
  bus.Send("a", "b", "t", {1, 2, 3});
  bus.Send("b", "a", "t", {9});
  EXPECT_EQ(bus.ViewOf("b"), (Bytes{1, 2, 3}));
  EXPECT_EQ(bus.ViewOf("a"), (Bytes{9}));
  EXPECT_EQ(bus.transcript().size(), 2u);
  EXPECT_GT(bus.TotalBytes(), 4u);
  bus.Reset();
  EXPECT_EQ(bus.transcript().size(), 0u);
  EXPECT_EQ(bus.StatsOf("a").messages_sent, 0u);
}

}  // namespace
}  // namespace secmed
