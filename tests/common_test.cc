#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "federation/federation.h"
#include "net/sparql_endpoint.h"
#include "store/triple_store.h"

namespace lusail {
namespace {

// ---------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kParseError, StatusCode::kTimeout,
        StatusCode::kUnsupported, StatusCode::kInternal,
        StatusCode::kUnavailable}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, UnavailableFactoryAndRetryability) {
  Status s = Status::Unavailable("endpoint down");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.ToString(), "Unavailable: endpoint down");
  EXPECT_TRUE(s.IsRetryable());
  EXPECT_TRUE(Status::Timeout("late").IsRetryable());
  // Deterministic failures must never be retried.
  EXPECT_FALSE(Status::Internal("bug").IsRetryable());
  EXPECT_FALSE(Status::ParseError("bad").IsRetryable());
  EXPECT_FALSE(Status().IsRetryable());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Result<int> Doubled(Result<int> in) {
  LUSAIL_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(Status::Internal("x")).ok());
}

// ---------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello world", "hello"));
  EXPECT_FALSE(StartsWith("hi", "hello"));
  EXPECT_TRUE(EndsWith("hello world", "world"));
  EXPECT_FALSE(EndsWith("d", "world"));
}

TEST(StringUtilTest, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, EscapeRoundTrip) {
  std::string nasty = "line1\nline2\t\"quoted\"\\back";
  EXPECT_EQ(UnescapeLiteral(EscapeLiteral(nasty)), nasty);
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3.5 * 1024 * 1024), "3.5 MiB");
}

// ---------------------------------------------------------------------
// Thread pool (the Elastic Request Handler)
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.Submit([](int a, int b) { return a + b; }, 20, 22);
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ManyConcurrentBlockingTasksComplete) {
  // More tasks than threads, each briefly blocking: no deadlock.
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 30; ++i) {
    futures.push_back(pool.Submit([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return i;
    }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, 29 * 30 / 2);
}

TEST(ThreadPoolTest, DefaultHasAtLeastEightThreads) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 8u);
}

/// Raises `*peak` to `value` if it is lower.
void RaisePeak(std::atomic<int>* peak, int value) {
  int seen = peak->load();
  while (seen < value && !peak->compare_exchange_weak(seen, value)) {
  }
}

TEST(ThreadPoolTest, BlockedWorkerLendsItsSlot) {
  // A's wait is opened only by B, which queues behind A on the one
  // worker: A must lend its slot for B to run at all.
  ThreadPool pool(1);
  std::promise<void> latch;
  std::shared_future<void> opened = latch.get_future().share();
  std::future<void> a = pool.Submit([opened] {
    ThreadPool::Blocking lend;
    opened.wait();
  });
  std::future<void> b = pool.Submit([&latch] { latch.set_value(); });
  ASSERT_EQ(a.wait_for(std::chrono::seconds(1)), std::future_status::ready);
  ASSERT_EQ(b.wait_for(std::chrono::seconds(1)), std::future_status::ready);
  EXPECT_EQ(pool.spares_started(), 1u);
}

TEST(ThreadPoolTest, CpuWorkersNeverExceedTarget) {
  // Waiters lend their slots while tasks that never block run: however
  // many spares start, no more than two tasks are ever on CPU at once.
  ThreadPool pool(2);
  std::atomic<int> on_cpu{0};
  std::atomic<int> peak{0};
  auto enter = [&] { RaisePeak(&peak, ++on_cpu); };
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      futures.push_back(pool.Submit([&] {
        enter();
        --on_cpu;
        ThreadPool::Blocking lend;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }));
    } else {
      futures.push_back(pool.Submit([&] {
        enter();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        --on_cpu;
      }));
    }
  }
  for (auto& f : futures) f.get();
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(pool.spares_started(), 1u);
}

TEST(ThreadPoolTest, SparesAreBounded) {
  ThreadPool pool(2);
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<int> waiting{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      }
      ThreadPool::Blocking lend;
      RaisePeak(&peak, ++waiting);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --waiting;
    }));
  }
  for (auto& f : futures) f.get();
  const size_t max_threads = 2 * (1 + ThreadPool::kSparesPerWorker);
  EXPECT_LE(max_threads, 6u);
  EXPECT_LE(threads.size(), max_threads);
  EXPECT_LE(pool.spares_started(), 2 * ThreadPool::kSparesPerWorker);
  EXPECT_LE(peak.load(), static_cast<int>(max_threads));
  EXPECT_GT(peak.load(), 2);  // The waits did overlap past two workers.
}

TEST(ThreadPoolTest, BlockingOffAPoolIsANoOp) {
  ThreadPool pool(1);
  std::promise<void> latch;
  std::shared_future<void> opened = latch.get_future().share();
  std::future<void> busy = pool.Submit([opened] { opened.wait(); });
  std::future<void> queued = pool.Submit([] {});
  {
    // This thread is no worker of the pool: it has no slot to lend, so
    // the queued task stays queued behind the busy worker.
    ThreadPool::Blocking lend;
    EXPECT_EQ(queued.wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout);
  }
  EXPECT_EQ(pool.spares_started(), 0u);
  latch.set_value();
  busy.get();
  queued.get();
}

TEST(ThreadPoolTest, InProcessFederationStartsNoSpare) {
  // In-process endpoints complete under the federation's DeferredWait
  // scope, simulated waits included, so they never lend a slot.
  fed::Federation federation;
  for (int e = 0; e < 3; ++e) {
    auto store = std::make_unique<store::TripleStore>();
    for (int i = 0; i < 4; ++i) {
      store->Add(rdf::TermTriple{
          rdf::Term::Iri("http://ex/s" + std::to_string(e * 10 + i)),
          rdf::Term::Iri("http://ex/p"), rdf::Term::Integer(i)});
    }
    store->Freeze();
    net::LatencyModel latency = net::LatencyModel::GeoDistributed();
    latency.sleep_scale = 0.1;
    federation.Add(std::make_shared<net::SparqlEndpoint>(
        "ep" + std::to_string(e), std::move(store), latency));
  }
  ThreadPool pool(1);
  core::TermDictionary dict;
  core::IdTable out;
  ASSERT_TRUE(fed::FetchUnion(federation, &pool, {0, 1, 2},
                              "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }",
                              &dict, fed::IssueContext(), &out)
                  .ok());
  EXPECT_EQ(out.NumRows(), 12u);
  EXPECT_EQ(pool.spares_started(), 0u);
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
    uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(99);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// ---------------------------------------------------------------------
// Stopwatch / Deadline
// ---------------------------------------------------------------------

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  double ms = sw.ElapsedMillis();
  EXPECT_GE(ms, 10.0);
  EXPECT_LT(ms, 5000.0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedMillis(), 10.0);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, ExpiresAfterDuration) {
  Deadline d = Deadline::AfterMillis(5);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_FALSE(d.Expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, RemainingMillis) {
  Deadline infinite;
  EXPECT_TRUE(std::isinf(infinite.RemainingMillis()));
  Deadline d = Deadline::AfterMillis(200);
  double remaining = d.RemainingMillis();
  EXPECT_GT(remaining, 0.0);
  EXPECT_LE(remaining, 200.0);
  Deadline expired = Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(expired.RemainingMillis(), 0.0);  // Clamped, never negative.
}

}  // namespace
}  // namespace lusail
