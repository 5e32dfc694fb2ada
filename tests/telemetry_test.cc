// Tests for the telemetry plane's building blocks: trace ids and the
// thread-local trace context, the wire codec that ships span subtrees in
// X-Lusail-Trace headers (including size-capped truncation), cross-process
// grafting, the Prometheus metrics registry and exposition format, the
// flight recorder ring, and the single-lock exchange accounting that keeps
// concurrent scrapes consistent (retries can never outrun requests).

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "federation/federation.h"
#include "net/resilience.h"
#include "obs/endpoint_stats.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace lusail {
namespace {

using obs::FlightRecord;
using obs::FlightRecorder;
using obs::FlightRecorderOptions;
using obs::MetricLabels;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Trace;
using obs::TraceContext;
using obs::TraceContextScope;
using obs::Tracer;

// ---------------------------------------------------------------------
// Trace ids and the thread-local context
// ---------------------------------------------------------------------

TEST(TraceIdTest, GeneratedIdsAreValidAndDistinct) {
  std::string a = obs::GenerateTraceId();
  std::string b = obs::GenerateTraceId();
  EXPECT_TRUE(obs::IsValidTraceId(a)) << a;
  EXPECT_TRUE(obs::IsValidTraceId(b)) << b;
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 32u);
}

TEST(TraceIdTest, RejectsMalformedIds) {
  EXPECT_FALSE(obs::IsValidTraceId(""));
  EXPECT_FALSE(obs::IsValidTraceId("short"));
  EXPECT_FALSE(obs::IsValidTraceId(std::string(32, '0')));  // All zero.
  EXPECT_FALSE(obs::IsValidTraceId(std::string(32, 'G')));  // Not hex.
  EXPECT_FALSE(obs::IsValidTraceId(std::string(33, 'a')));  // Too long.
  std::string uppercase = obs::GenerateTraceId();
  uppercase[0] = 'A';
  EXPECT_FALSE(obs::IsValidTraceId(uppercase));  // Lowercase only.
}

TEST(TraceContextTest, ScopesInstallAndRestore) {
  EXPECT_EQ(obs::CurrentTraceContext(), nullptr);
  auto tracer = std::make_shared<Tracer>();
  {
    TraceContext outer;
    outer.tracer = tracer;
    outer.trace_id = obs::GenerateTraceId();
    outer.parent = 7;
    TraceContextScope outer_scope(outer);
    ASSERT_NE(obs::CurrentTraceContext(), nullptr);
    EXPECT_EQ(obs::CurrentTraceContext()->parent, 7u);
    {
      TraceContext inner = outer;
      inner.parent = 9;
      TraceContextScope inner_scope(inner);
      EXPECT_EQ(obs::CurrentTraceContext()->parent, 9u);
    }
    // Inner scope destruction restores the outer context.
    EXPECT_EQ(obs::CurrentTraceContext()->parent, 7u);
  }
  EXPECT_EQ(obs::CurrentTraceContext(), nullptr);
}

TEST(TraceContextTest, DefaultScopeIsANoOp) {
  TraceContextScope scope;
  EXPECT_EQ(obs::CurrentTraceContext(), nullptr);
}

TEST(TraceContextTest, ContextIsPerThread) {
  TraceContext context;
  context.tracer = std::make_shared<Tracer>();
  context.trace_id = obs::GenerateTraceId();
  TraceContextScope scope(context);
  ASSERT_NE(obs::CurrentTraceContext(), nullptr);
  bool other_thread_saw_context = true;
  std::thread([&] {
    other_thread_saw_context = obs::CurrentTraceContext() != nullptr;
  }).join();
  EXPECT_FALSE(other_thread_saw_context);
}

// ---------------------------------------------------------------------
// Wire codec: ToWireString / FromWireString
// ---------------------------------------------------------------------

TEST(TraceWireTest, RoundTripsSpansAndIdentity) {
  Tracer tracer;
  tracer.set_trace_id(obs::GenerateTraceId());
  tracer.RegisterProcess(42, "endpointd/EP");
  obs::SpanId root = tracer.StartSpan("serve", "server");
  obs::SpanId child = tracer.StartSpan("evaluate", "server", root);
  tracer.Annotate(child, "rows", uint64_t{12});
  tracer.EndSpan(child);
  tracer.EndSpan(root);

  bool truncated = true;
  std::string wire = tracer.Snapshot().ToWireString(1 << 16, &truncated);
  EXPECT_FALSE(truncated);

  bool parsed_truncated = true;
  auto parsed = Trace::FromWireString(wire, &parsed_truncated);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed_truncated);
  EXPECT_EQ(parsed->trace_id, tracer.trace_id());
  ASSERT_EQ(parsed->spans.size(), 2u);
  const obs::Span* parsed_child = parsed->Find(child);
  ASSERT_NE(parsed_child, nullptr);
  EXPECT_EQ(parsed_child->parent, root);
  ASSERT_EQ(parsed_child->annotations.size(), 1u);
  EXPECT_EQ(parsed_child->annotations[0].key, "rows");
  EXPECT_EQ(parsed_child->annotations[0].value, "12");
}

TEST(TraceWireTest, TruncationKeepsTheRootAndMarks) {
  Tracer tracer;
  tracer.set_trace_id(obs::GenerateTraceId());
  obs::SpanId root = tracer.StartSpan("serve", "server");
  for (int i = 0; i < 200; ++i) {
    obs::SpanId child =
        tracer.StartSpan("child" + std::to_string(i), "server", root);
    tracer.EndSpan(child);
  }
  tracer.EndSpan(root);

  bool truncated = false;
  std::string wire = tracer.Snapshot().ToWireString(512, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_LE(wire.size(), 512u);

  bool parsed_truncated = false;
  auto parsed = Trace::FromWireString(wire, &parsed_truncated);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed_truncated);
  // The root survives; a prefix of children may ride along.
  ASSERT_GE(parsed->spans.size(), 1u);
  EXPECT_EQ(parsed->spans[0].id, root);
  EXPECT_LT(parsed->spans.size(), 201u);
}

TEST(TraceWireTest, RejectsMalformedPayloads) {
  EXPECT_FALSE(Trace::FromWireString("").ok());
  EXPECT_FALSE(Trace::FromWireString("not json").ok());
  EXPECT_FALSE(Trace::FromWireString("[1,2,3]").ok());
}

// ---------------------------------------------------------------------
// Grafting a remote subtree
// ---------------------------------------------------------------------

TEST(TraceGraftTest, RemapsIdsAndReparentsUnderAttachPoint) {
  // Server side: a subtree with ids that collide with the client's.
  Tracer server;
  server.set_trace_id(obs::GenerateTraceId());
  server.RegisterProcess(4242, "endpointd/EP");
  obs::SpanId server_root = server.StartSpan("serve", "server");
  obs::SpanId server_child = server.StartSpan("evaluate", "server",
                                              server_root);
  server.EndSpan(server_child);
  server.EndSpan(server_root);
  Trace remote = server.Snapshot();
  remote.local_process_id = 4242;

  // Client side: the request span the graft should attach under.
  Tracer client;
  client.set_trace_id(server.trace_id());
  obs::SpanId query = client.StartSpan("query", "query");
  obs::SpanId request = client.StartSpan("request", "request", query);

  obs::SpanId grafted_root = client.Graft(remote, request);
  ASSERT_NE(grafted_root, 0u);
  client.EndSpan(request);
  client.EndSpan(query);

  Trace merged = client.Snapshot();
  EXPECT_EQ(merged.spans.size(), 4u);
  const obs::Span* root_span = merged.Find(grafted_root);
  ASSERT_NE(root_span, nullptr);
  EXPECT_EQ(root_span->parent, request);
  // The remote child hangs off the grafted root, under a remapped id.
  std::vector<const obs::Span*> children = merged.ChildrenOf(grafted_root);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->name, "evaluate");
  // Every span of the merged trace reaches the client's query root.
  for (const obs::Span& span : merged.spans) {
    obs::SpanId cursor = span.id;
    int hops = 0;
    while (cursor != query && hops++ < 10) {
      const obs::Span* node = merged.Find(cursor);
      ASSERT_NE(node, nullptr);
      cursor = node->parent;
    }
    EXPECT_EQ(cursor, query) << "span " << span.name << " is orphaned";
  }
  // The server's process identity came along for per-process tracks.
  bool found_process = false;
  for (const auto& [pid, name] : merged.processes) {
    if (pid == 4242 && name == "endpointd/EP") found_process = true;
  }
  EXPECT_TRUE(found_process);
}

TEST(TraceGraftTest, EmptyRemoteGraftsNothing) {
  Tracer client;
  obs::SpanId query = client.StartSpan("query", "query");
  EXPECT_EQ(client.Graft(Trace{}, query), 0u);
  EXPECT_EQ(client.NumSpans(), 1u);
}

// ---------------------------------------------------------------------
// Metrics snapshot + Prometheus exposition
// ---------------------------------------------------------------------

TEST(MetricsSnapshotTest, RendersValidPrometheusText) {
  MetricsSnapshot snapshot;
  snapshot.AddCounter("lusail_rpc_requests_total", "Requests served.",
                      {{"server", "EP\"1\n"}}, 3);
  snapshot.AddCounter("lusail_rpc_requests_total", "Requests served.",
                      {{"server", "EP2"}}, 5);
  snapshot.AddGauge("lusail_replica_breaker_open", "Breaker state.",
                    {{"endpoint", "EP"}, {"replica", "EP#0"}}, 0);
  obs::LatencyHistogram histogram;
  histogram.Record(0.5);
  histogram.Record(2.0);
  snapshot.AddHistogram("lusail_endpoint_latency_seconds", "Latency.",
                        {{"endpoint", "EP"}}, histogram);

  std::string text = snapshot.RenderPrometheus();
  // One HELP/TYPE block per family, not per sample.
  EXPECT_EQ(text.find("# HELP lusail_rpc_requests_total Requests served."),
            text.rfind("# HELP lusail_rpc_requests_total"));
  EXPECT_NE(text.find("# TYPE lusail_rpc_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lusail_replica_breaker_open gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lusail_endpoint_latency_seconds histogram"),
            std::string::npos);
  // Label values are escaped (quote and newline).
  EXPECT_NE(text.find("lusail_rpc_requests_total{server=\"EP\\\"1\\n\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lusail_rpc_requests_total{server=\"EP2\"} 5"),
            std::string::npos);
  // Histogram exposition: cumulative buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("lusail_endpoint_latency_seconds_bucket{endpoint=\"EP\","
                      "le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lusail_endpoint_latency_seconds_count{endpoint=\"EP\"}"
                      " 2"),
            std::string::npos);
  EXPECT_NE(text.find("lusail_endpoint_latency_seconds_sum"),
            std::string::npos);
  // Exposition ends with a newline (required by the text format).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(MetricsSnapshotTest, HelpTextIsEscapedPerExpositionFormat) {
  // Format 0.0.4: HELP text escapes backslash and newline ONLY — quotes
  // are legal verbatim in a comment. A raw newline in the help string
  // must not split the comment into a second line (the remainder would
  // parse as a malformed sample).
  MetricsSnapshot snapshot;
  snapshot.AddCounter("a_total", "first line\nsecond \"quoted\" c:\\path",
                      {}, 1);
  std::string text = snapshot.RenderPrometheus();
  EXPECT_NE(
      text.find(
          "# HELP a_total first line\\nsecond \"quoted\" c:\\\\path\n"),
      std::string::npos)
      << text;
  // Every line of the exposition is a comment or a sample; the raw
  // newline inside the help string must not have leaked a bare line.
  EXPECT_EQ(text.find("second \"quoted\""), text.rfind("second \"quoted\""));
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string line = text.substr(pos, eol - pos);
    EXPECT_TRUE(line.rfind("# ", 0) == 0 || line.rfind("a_total", 0) == 0)
        << "stray exposition line: " << line;
    pos = eol + 1;
  }
}

TEST(MetricsSnapshotTest, HistogramBucketsAreCumulative) {
  MetricsSnapshot snapshot;
  obs::LatencyHistogram histogram;
  histogram.Record(0.001);  // ~1 us.
  histogram.Record(1.0);    // ~1 ms.
  histogram.Record(1000.0); // ~1 s.
  snapshot.AddHistogram("h_seconds", "h", {}, histogram);
  std::string text = snapshot.RenderPrometheus();
  // Parse every bucket line and check the counts never decrease.
  uint64_t previous = 0;
  size_t buckets_seen = 0;
  size_t pos = 0;
  while ((pos = text.find("h_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    size_t space = text.find("} ", pos);
    ASSERT_NE(space, std::string::npos);
    uint64_t count = std::strtoull(text.c_str() + space + 2, nullptr, 10);
    EXPECT_GE(count, previous);
    previous = count;
    ++buckets_seen;
    pos = space;
  }
  EXPECT_GE(buckets_seen, 3u);
  EXPECT_EQ(previous, 3u);  // +Inf bucket equals the total count.
}

TEST(MetricsRegistryTest, CollectorsComeAndGo) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.NumCollectors(), 0u);
  {
    obs::ScopedCollector collector(
        &registry, [](MetricsSnapshot* snapshot) {
          snapshot->AddCounter("x_total", "x", {}, 1);
        });
    EXPECT_EQ(registry.NumCollectors(), 1u);
    std::string text = registry.RenderPrometheus();
    EXPECT_NE(text.find("x_total 1"), std::string::npos) << text;
  }
  EXPECT_EQ(registry.NumCollectors(), 0u);
  EXPECT_EQ(registry.RenderPrometheus().find("x_total"), std::string::npos);
}

TEST(MetricsRegistryTest, CollectIntoMergesFamiliesAcrossCollectors) {
  MetricsRegistry registry;
  obs::ScopedCollector first(&registry, [](MetricsSnapshot* snapshot) {
    snapshot->AddCounter("shared_total", "s", {{"who", "a"}}, 1);
  });
  obs::ScopedCollector second(&registry, [](MetricsSnapshot* snapshot) {
    snapshot->AddCounter("shared_total", "s", {{"who", "b"}}, 2);
  });
  MetricsSnapshot snapshot;
  snapshot.AddCounter("shared_total", "s", {{"who", "local"}}, 3);
  registry.CollectInto(&snapshot);
  ASSERT_EQ(snapshot.families().size(), 1u);
  EXPECT_EQ(snapshot.families()[0].samples.size(), 3u);
  // And the render shows exactly one HELP line for the merged family.
  std::string text = snapshot.RenderPrometheus();
  EXPECT_EQ(text.find("# HELP shared_total"),
            text.rfind("# HELP shared_total"));
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorderTest, RingKeepsTheLastKNewestFirst) {
  FlightRecorderOptions options;
  options.capacity = 4;
  FlightRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    FlightRecord record;
    record.query_hash = obs::QueryHashHex("q" + std::to_string(i));
    record.rows = static_cast<uint64_t>(i);
    recorder.Record(std::move(record));
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  std::vector<FlightRecord> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent[0].rows, 9u);  // Newest first.
  EXPECT_EQ(recent[3].rows, 6u);
  // Sequence numbers are monotonic and survive the ring's eviction.
  EXPECT_GT(recent[0].sequence, recent[3].sequence);
  // Recent(n) limits further.
  EXPECT_EQ(recorder.Recent(2).size(), 2u);
}

TEST(FlightRecorderTest, SlowThresholdClassifiesAndCounts) {
  FlightRecorderOptions options;
  options.slow_threshold_ms = 100.0;
  FlightRecorder recorder(options);
  FlightRecord fast;
  fast.total_ms = 5.0;
  recorder.Record(std::move(fast));
  FlightRecord slow;
  slow.total_ms = 250.0;
  recorder.Record(std::move(slow));
  EXPECT_EQ(recorder.slow_queries(), 1u);
  std::vector<FlightRecord> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_TRUE(recent[0].slow);
  EXPECT_FALSE(recent[1].slow);
}

TEST(FlightRecorderTest, ToJsonCarriesTotalsAndRecords) {
  FlightRecorder recorder;
  FlightRecord record;
  record.query_hash = obs::QueryHashHex("SELECT * WHERE { ?s ?p ?o }");
  record.trace_id = obs::GenerateTraceId();
  record.status = "Timeout";
  record.cancelled = true;
  recorder.Record(std::move(record));
  obs::JsonValue json = recorder.ToJson();
  std::string text = json.Serialize();
  EXPECT_NE(text.find("\"total\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"status\":\"Timeout\""), std::string::npos);
  EXPECT_NE(text.find("\"cancelled\":true"), std::string::npos);
}

TEST(FlightRecorderTest, JsonLogLinesAreWellFormed) {
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  FlightRecorderOptions options;
  options.log_json = true;
  options.stream = stream;
  FlightRecorder recorder(options);
  FlightRecord record;
  record.query_hash = obs::QueryHashHex("q");
  record.rows = 3;
  recorder.Record(std::move(record));
  std::fflush(stream);
  std::rewind(stream);
  char line[4096] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), stream), nullptr);
  std::fclose(stream);
  auto parsed = obs::JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_NE(std::string(line).find("\"event\":\"query\""),
            std::string::npos);
}

TEST(FlightRecorderTest, QueryHashIsStableAndHexShaped) {
  std::string a = obs::QueryHashHex("SELECT 1");
  EXPECT_EQ(a, obs::QueryHashHex("SELECT 1"));
  EXPECT_NE(a, obs::QueryHashHex("SELECT 2"));
  EXPECT_EQ(a.size(), 16u);
  for (char c : a) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << a;
  }
}

// ---------------------------------------------------------------------
// Counter-snapshot consistency under concurrency (the scrape race)
// ---------------------------------------------------------------------

// Regression for the MetricsCollector scrape race: recording an exchange's
// retries and its request in two separate updates let a concurrent
// FillCounters observe the retries of an exchange whose request it had
// not counted yet, reporting retries > requests. RecordExchange applies
// both under one lock; this hammer (run under TSan in CI) asserts the
// invariant never breaks.
TEST(MetricsCollectorRaceTest, SnapshotsNeverShowRetriesAheadOfRequests) {
  fed::MetricsCollector collector;
  constexpr int kWriters = 4;
  constexpr int kExchangesPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      fed::ExecutionProfile profile;
      collector.FillCounters(&profile);
      // Every exchange records exactly one request and one retry; a cut
      // where retries outrun requests means the lock was split.
      if (profile.retries > profile.requests) {
        violated.store(true, std::memory_order_release);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kExchangesPerWriter; ++i) {
        net::QueryResponse response;
        response.SetAskVerdict(false);
        response.request_bytes = 10;
        response.response_bytes = 20;
        net::RetryOutcome outcome;
        outcome.attempts = 2;
        outcome.retries = 1;
        collector.RecordExchange(&response, false, outcome);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(violated.load());
  fed::ExecutionProfile profile;
  collector.FillCounters(&profile);
  EXPECT_EQ(profile.requests,
            static_cast<uint64_t>(kWriters) * kExchangesPerWriter);
  EXPECT_EQ(profile.retries, profile.requests);
}

TEST(EndpointStatsRaceTest, ExchangesAreAtomicAgainstScrapes) {
  obs::EndpointStatsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kExchangesPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      obs::EndpointStats stats = registry.Get("EP");
      if (stats.retries > stats.requests) {
        violated.store(true, std::memory_order_release);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kExchangesPerWriter; ++i) {
        obs::EndpointExchange exchange;
        exchange.success = true;
        exchange.latency_ms = 1.0;
        exchange.retries = 1;
        registry.RecordExchange("EP", exchange);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(violated.load());
  obs::EndpointStats stats = registry.Get("EP");
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kWriters) * kExchangesPerWriter);
  EXPECT_EQ(stats.retries, stats.requests);
  EXPECT_EQ(stats.latency.count(), stats.successes);
}

TEST(EndpointStatsTest, ExchangeAppliesEveryField) {
  obs::EndpointStatsRegistry registry;
  obs::EndpointExchange exchange;
  exchange.success = true;
  exchange.latency_ms = 3.0;
  exchange.bytes_sent = 100;
  exchange.bytes_received = 200;
  exchange.rows = 7;
  exchange.retries = 2;
  exchange.breaker_rejections = 1;
  exchange.breaker_trips = 1;
  exchange.network = true;
  exchange.reused_connection = true;
  exchange.wire_bytes_sent = 150;
  exchange.wire_bytes_received = 250;
  registry.RecordExchange("EP", exchange);

  obs::EndpointExchange failure;
  failure.success = false;
  failure.timeout = true;
  registry.RecordExchange("EP", failure);

  obs::EndpointStats stats = registry.Get("EP");
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.successes, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.breaker_rejections, 1u);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.bytes_sent, 100u);
  EXPECT_EQ(stats.bytes_received, 200u);
  EXPECT_EQ(stats.rows_received, 7u);
  EXPECT_EQ(stats.network_requests, 1u);
  EXPECT_EQ(stats.connections_reused, 1u);
  EXPECT_EQ(stats.connections_opened, 0u);
  EXPECT_EQ(stats.wire_bytes_sent, 150u);
  EXPECT_EQ(stats.wire_bytes_received, 250u);
  EXPECT_EQ(stats.latency.count(), 1u);
}

TEST(EndpointStatsTest, ExportMetricsEmitsPerEndpointSamples) {
  obs::EndpointStatsRegistry registry;
  obs::EndpointExchange exchange;
  exchange.success = true;
  exchange.latency_ms = 1.0;
  registry.RecordExchange("EP1", exchange);
  exchange.network = true;
  exchange.wire_bytes_received = 250;
  registry.RecordExchange("EP2", exchange);
  MetricsSnapshot snapshot;
  registry.ExportMetrics(&snapshot);
  // Transport counters appear for endpoints reached over a socket only.
  EXPECT_EQ(snapshot.Find("lusail_endpoint_network_requests_total",
                          {{"endpoint", "EP1"}}),
            nullptr);
  const obs::MetricSample* wire = snapshot.Find(
      "lusail_endpoint_network_bytes_received_total", {{"endpoint", "EP2"}});
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(wire->value, 250.0);
  std::string text = snapshot.RenderPrometheus();
  EXPECT_NE(text.find("lusail_endpoint_requests_total{endpoint=\"EP1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lusail_endpoint_requests_total{endpoint=\"EP2\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lusail_endpoint_latency_seconds_count"),
            std::string::npos);
}

}  // namespace
}  // namespace lusail
