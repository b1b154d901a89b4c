// Unit tests of the failure-handling primitives: RetryPolicy backoff
// determinism, DeadlineBudget total-budget semantics, FaultSpec parsing,
// the seeded FaultInjector schedule — and the socket-level regression
// tests for the SendAll/RecvSome deadline bug (the per-iteration timeout
// re-arm that let a slow-draining peer extend a "deadline" forever).

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/fault.h"
#include "net/retry.h"
#include "net/tcp.h"

namespace secmed {
namespace {

int64_t ElapsedMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ------------------------------------------------------- RetryPolicy --

TEST(RetryPolicy, BackoffGrowsExponentiallyUpToCap) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 50;
  policy.jitter_seed = 0;  // jitter still applies, but deterministically
  int prev = 0;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    int ms = policy.BackoffMs(attempt);
    EXPECT_GE(ms, 1) << attempt;
    // Cap plus at most half the cap of jitter.
    EXPECT_LE(ms, policy.max_backoff_ms + policy.max_backoff_ms / 2)
        << attempt;
    if (attempt <= 3) {
      EXPECT_GE(ms, prev / 2) << attempt;  // roughly growing
    }
    prev = ms;
  }
}

TEST(RetryPolicy, BackoffIsDeterministicInSeedAndAttempt) {
  RetryPolicy a, b;
  a.jitter_seed = b.jitter_seed = 0xfeedULL;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(a.BackoffMs(attempt), b.BackoffMs(attempt)) << attempt;
  }
  RetryPolicy c;
  c.jitter_seed = 0xbeefULL;
  bool any_differs = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    any_differs |= c.BackoffMs(attempt) != a.BackoffMs(attempt);
  }
  EXPECT_TRUE(any_differs) << "different seeds should jitter differently";
}

TEST(RetryPolicy, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Unavailable("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::OK()));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::ProtocolError("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Aborted("x")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Internal("x")));
}

// ----------------------------------------------------- DeadlineBudget --

TEST(DeadlineBudget, CountsDownAgainstSteadyClock) {
  DeadlineBudget budget(120);
  EXPECT_FALSE(budget.unbounded());
  EXPECT_FALSE(budget.Expired());
  EXPECT_LE(budget.RemainingMs(), 120);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  int remaining = budget.RemainingMs();
  EXPECT_LT(remaining, 120);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(budget.Expired());
  EXPECT_EQ(budget.RemainingMs(), 0);
  EXPECT_GE(budget.ElapsedMs(), 120);
}

TEST(DeadlineBudget, NonPositiveMeansUnbounded) {
  DeadlineBudget zero(0), negative(-5);
  EXPECT_TRUE(zero.unbounded());
  EXPECT_TRUE(negative.unbounded());
  EXPECT_FALSE(zero.Expired());
  EXPECT_FALSE(negative.Expired());
}

TEST(DeadlineBudget, SliceNeverExceedsRemaining) {
  DeadlineBudget budget(80);
  EXPECT_LE(budget.SliceMs(50), 50);
  EXPECT_LE(budget.SliceMs(500), 80);
  DeadlineBudget unbounded(0);
  EXPECT_EQ(unbounded.SliceMs(50), 50);
}

TEST(DeadlineBudget, ExhaustedBudgetNamesOperationAndAttempts) {
  DeadlineBudget budget(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  Status st =
      ExhaustedBudget(Status::Unavailable("peer gone"), "send x>y", budget, 3);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("peer gone"), std::string::npos);
  EXPECT_NE(st.message().find("send x>y"), std::string::npos);
  EXPECT_NE(st.message().find("3 attempt"), std::string::npos);
}

// ---------------------------------------------------------- FaultSpec --

TEST(FaultSpec, ParsesKindIndexCountAndOptions) {
  auto spec = FaultSpec::Parse("delay@2x5:ms=40,session=2,from=hospital");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->kind, FaultKind::kDelay);
  EXPECT_EQ(spec->frame_index, 2u);
  EXPECT_EQ(spec->count, 5u);
  EXPECT_EQ(spec->delay_ms, 40);
  EXPECT_EQ(spec->session, 2u);
  EXPECT_EQ(spec->from, "hospital");
  EXPECT_TRUE(spec->to.empty());
}

TEST(FaultSpec, RoundTripsThroughToString) {
  for (const char* s :
       {"drop@3", "bitflip@0:from=hospital", "disconnect@1:to=mediator",
        "delay@2x5:session=2,from=a,to=b,ms=40", "truncate@0x0"}) {
    auto spec = FaultSpec::Parse(s);
    ASSERT_TRUE(spec.ok()) << s;
    auto again = FaultSpec::Parse(spec->ToString());
    ASSERT_TRUE(again.ok()) << spec->ToString();
    EXPECT_EQ(again->ToString(), spec->ToString()) << s;
  }
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultSpec::Parse("explode@1").ok());
  EXPECT_FALSE(FaultSpec::Parse("drop@0:nonsense").ok());
  EXPECT_FALSE(FaultSpec::Parse("drop@0:color=red").ok());
  EXPECT_FALSE(FaultSpec::Parse("delay@0").ok());  // delay needs ms=N
}

TEST(FaultInjector, SeededScheduleIsReproducible) {
  FaultInjector a = FaultInjector::Seeded(0x5eed, 8, 32);
  FaultInjector b = FaultInjector::Seeded(0x5eed, 8, 32);
  ASSERT_EQ(a.schedule().size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.schedule()[i].ToString(), b.schedule()[i].ToString()) << i;
    EXPECT_LT(a.schedule()[i].frame_index, 32u) << i;
  }
  FaultInjector c = FaultInjector::Seeded(0x0dd, 8, 32);
  bool any_differs = false;
  for (size_t i = 0; i < 8; ++i) {
    any_differs |= c.schedule()[i].ToString() != a.schedule()[i].ToString();
  }
  EXPECT_TRUE(any_differs);
}

TEST(FaultInjector, FiresOnExactlyTheMatchingFrames) {
  auto spec = FaultSpec::Parse("drop@1x2:from=a,to=b");
  ASSERT_TRUE(spec.ok());
  FaultInjector injector({*spec});
  Bytes frame{1, 2, 3, 4, 5, 6, 7, 8};
  // Non-matching pair: never fires no matter how many frames pass.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(injector.Apply(1, "a", "c", &frame, nullptr).drop);
  }
  // Matching pair: fires on the 2nd and 3rd matching frames only.
  EXPECT_FALSE(injector.Apply(1, "a", "b", &frame, nullptr).drop);  // #0
  EXPECT_TRUE(injector.Apply(1, "a", "b", &frame, nullptr).drop);   // #1
  EXPECT_TRUE(injector.Apply(1, "a", "b", &frame, nullptr).drop);   // #2
  EXPECT_FALSE(injector.Apply(1, "a", "b", &frame, nullptr).drop);  // #3
  EXPECT_EQ(injector.fired(), 2u);
}

TEST(FaultInjector, MutatingFaultsChangeTheFrameBytes) {
  auto truncate = FaultSpec::Parse("truncate@0");
  auto bitflip = FaultSpec::Parse("bitflip@0");
  ASSERT_TRUE(truncate.ok() && bitflip.ok());
  {
    FaultInjector injector({*truncate});
    Bytes frame(64, 0xab);
    injector.Apply(1, "a", "b", &frame, nullptr);
    EXPECT_EQ(frame.size(), 60u);
  }
  {
    FaultInjector injector({*bitflip});
    Bytes frame(64, 0xab);
    Bytes original = frame;
    injector.Apply(1, "a", "b", &frame, nullptr);
    EXPECT_EQ(frame.size(), original.size());
    EXPECT_NE(frame, original);
  }
}

// ------------------------------------ TcpConn total-budget regression --

/// A connected loopback socket pair with a deliberately small send
/// buffer, so SendAll actually blocks on the receiver.
struct SocketPair {
  TcpConn sender;
  TcpConn receiver;
};

SocketPair MakePair() {
  auto listener = TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok());
  auto sender =
      TcpConn::Connect(Endpoint{"127.0.0.1", listener->port()}, 2000);
  EXPECT_TRUE(sender.ok());
  auto receiver = listener->Accept(2000);
  EXPECT_TRUE(receiver.ok());
  int small = 4096;
  ::setsockopt(sender->fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(receiver->fd(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  return SocketPair{std::move(sender).value(), std::move(receiver).value()};
}

TEST(TcpDeadline, SlowDrainingPeerCannotExtendSendDeadline) {
  // The regression this PR fixes: SendAll used to re-arm the full
  // timeout on every loop iteration, so a peer draining a few bytes per
  // poll interval kept the send "making progress" forever — a deadline
  // in name only. With the total budget, the send must give up within
  // ~timeout regardless of drip-fed progress.
  SocketPair pair = MakePair();
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    Bytes sink;
    while (!stop.load()) {
      sink.clear();
      (void)pair.receiver.RecvSome(&sink, 512, 10);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const Bytes payload(8 * 1024 * 1024, 0x42);  // far more than drains in 300ms
  const auto start = std::chrono::steady_clock::now();
  Status st = pair.sender.SendAll(payload, 300);
  const int64_t elapsed = ElapsedMsSince(start);
  stop.store(true);
  drainer.join();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  // Generous bound: the point is "~300ms, not 30s" (the old behavior
  // would take minutes at this drain rate).
  EXPECT_LT(elapsed, 3000);
  // The diagnostic reports partial progress.
  EXPECT_NE(st.message().find("bytes written"), std::string::npos)
      << st.message();
}

TEST(TcpDeadline, RecvTimesOutWithinTotalBudget) {
  SocketPair pair = MakePair();
  Bytes out;
  const auto start = std::chrono::steady_clock::now();
  auto n = pair.receiver.RecvSome(&out, 64, 200);
  const int64_t elapsed = ElapsedMsSince(start);
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, 150);
  EXPECT_LT(elapsed, 2000);
  EXPECT_TRUE(out.empty());
}

TEST(TcpDeadline, RecvReturnsDataWellBeforeDeadline) {
  SocketPair pair = MakePair();
  const Bytes ping{1, 2, 3};
  ASSERT_TRUE(pair.sender.SendAll(ping, 1000).ok());
  Bytes out;
  const auto start = std::chrono::steady_clock::now();
  auto n = pair.receiver.RecvSome(&out, 64, 5000);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(out, ping);
  EXPECT_LT(ElapsedMsSince(start), 1000);
}

}  // namespace
}  // namespace secmed
