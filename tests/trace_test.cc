// End-to-end request tracing: trace-event JSON rendering, the trace
// ring, trace-id propagation over the wire protocol (and the refusal
// of pre-v4 frames), the admin endpoint's routes, and the
// structured slow-query log. Uses real loopback sockets like net_test;
// runs under the tsan preset via the `trace` label.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "net/admin.h"
#include "net/client.h"
#include "net/connection.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "quel/quel.h"
#include "rel/value.h"

namespace mdm {
namespace {

// ---------------------------------------------------------------------
// Trace ids: formatting and parsing.

TEST(TraceIdTest, FormatIsSixteenLowerHex) {
  EXPECT_EQ(obs::FormatTraceId(0), "0000000000000000");
  EXPECT_EQ(obs::FormatTraceId(0x1122334455667788ull), "1122334455667788");
  EXPECT_EQ(obs::FormatTraceId(0xABCDEFull), "0000000000abcdef");
}

TEST(TraceIdTest, ParseRoundTripsAndRejectsJunk) {
  uint64_t id = 0;
  ASSERT_TRUE(obs::ParseTraceId("1122334455667788", &id));
  EXPECT_EQ(id, 0x1122334455667788ull);
  ASSERT_TRUE(obs::ParseTraceId("0xABCDEF", &id));
  EXPECT_EQ(id, 0xabcdefull);
  ASSERT_TRUE(obs::ParseTraceId("7", &id));
  EXPECT_EQ(id, 7u);
  EXPECT_FALSE(obs::ParseTraceId("", &id));
  EXPECT_FALSE(obs::ParseTraceId("0x", &id));
  EXPECT_FALSE(obs::ParseTraceId("112233445566778899", &id));  // 18 digits
  EXPECT_FALSE(obs::ParseTraceId("11223344g5667788", &id));
  EXPECT_FALSE(obs::ParseTraceId("trace", &id));
}

// ---------------------------------------------------------------------
// Chrome trace_event JSON: the export format is a compatibility surface
// (Perfetto loads it), so it is byte-golden on a synthetic trace.

TEST(TraceJsonTest, TwoSpanGolden) {
  obs::Trace t;
  t.trace_id = 0x00000000deadbeefull;
  t.events.push_back({"quel.statement", 1'500, 1'234'567, 2});
  t.events.push_back({"net.request", 0, 2'000'000, 1});
  EXPECT_EQ(
      obs::RenderTraceEventJson(t),
      "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
      "\"trace_id\":\"00000000deadbeef\",\"truncated\":false},"
      "\"traceEvents\":["
      "{\"name\":\"quel.statement\",\"cat\":\"mdm\",\"ph\":\"X\","
      "\"ts\":1.500,\"dur\":1234.567,\"pid\":1,\"tid\":1,"
      "\"args\":{\"depth\":2}},"
      "{\"name\":\"net.request\",\"cat\":\"mdm\",\"ph\":\"X\","
      "\"ts\":0.000,\"dur\":2000.000,\"pid\":1,\"tid\":1,"
      "\"args\":{\"depth\":1}}"
      "]}");
}

TEST(TraceJsonTest, TruncatedFlagRenders) {
  obs::Trace t;
  t.trace_id = 1;
  t.truncated = true;
  EXPECT_EQ(obs::RenderTraceEventJson(t),
            "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
            "\"trace_id\":\"0000000000000001\",\"truncated\":true},"
            "\"traceEvents\":[]}");
}

// ---------------------------------------------------------------------
// TraceContext + TraceRing.

TEST(TraceContextTest, SpansRecordIntoTheContextAndPublish) {
  obs::TraceRing::Global()->Clear();
  {
    obs::TraceContext ctx(0xAAull, /*sampled=*/true);
    obs::Span outer("trace_test.outer");
    { obs::Span inner("trace_test.inner"); }
  }
  auto trace = obs::TraceRing::Global()->Find(0xAAull);
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->events.size(), 2u);
  // Spans record at close: inner (depth 2) first, then outer (depth 1).
  EXPECT_STREQ(trace->events[0].name, "trace_test.inner");
  EXPECT_EQ(trace->events[0].depth, 2);
  EXPECT_STREQ(trace->events[1].name, "trace_test.outer");
  EXPECT_EQ(trace->events[1].depth, 1);
  EXPECT_FALSE(trace->truncated);
  // The outer span contains the inner one.
  EXPECT_LE(trace->events[1].start_ns, trace->events[0].start_ns);
  EXPECT_GE(trace->events[1].dur_ns, trace->events[0].dur_ns);
}

TEST(TraceContextTest, UnsampledContextPublishesNothing) {
  obs::TraceRing::Global()->Clear();
  {
    obs::TraceContext ctx(0xBBull, /*sampled=*/false);
    obs::Span span("trace_test.unsampled");
  }
  EXPECT_EQ(obs::TraceRing::Global()->size(), 0u);
  EXPECT_EQ(obs::TraceRing::Global()->Find(0xBBull), nullptr);
}

TEST(TraceContextTest, BufferCapSetsTruncated) {
  obs::TraceRing::Global()->Clear();
  {
    obs::TraceContext ctx(0xCCull, /*sampled=*/true);
    for (size_t i = 0; i < obs::TraceContext::kMaxEventsPerTrace + 5; ++i) {
      obs::Span span("trace_test.many");
    }
  }
  auto trace = obs::TraceRing::Global()->Find(0xCCull);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->events.size(), obs::TraceContext::kMaxEventsPerTrace);
  EXPECT_TRUE(trace->truncated);
}

TEST(TraceRingTest, BoundedNewestFirstAndNewestWinsOnReuse) {
  obs::TraceRing ring(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    obs::Trace t;
    t.trace_id = i;
    ring.Publish(std::move(t));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.RecentIds(), (std::vector<uint64_t>{6, 5, 4, 3}));
  EXPECT_EQ(ring.Find(1), nullptr);  // evicted
  ASSERT_NE(ring.Find(3), nullptr);
  EXPECT_EQ(ring.Latest()->trace_id, 6u);

  // Republish id 5 with a marker event: Find must return the new one.
  obs::Trace again;
  again.trace_id = 5;
  again.events.push_back({"marker", 0, 1, 1});
  ring.Publish(std::move(again));
  auto found = ring.Find(5);
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->events.size(), 1u);
  EXPECT_STREQ(found->events[0].name, "marker");
}

// ---------------------------------------------------------------------
// Slow-query log: JSONL schema and the sink.

TEST(SlowQueryLogTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(obs::Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(obs::Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(obs::Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(SlowQueryLogTest, RecordRendersGoldenJson) {
  obs::SlowQueryRecord r;
  r.seq = 3;
  r.script = "retrieve (n.name)\nwhere n.name = \"x\"";
  r.script_hash = obs::Fnv1a64(r.script);
  r.trace_id = 0xdeadbeefull;
  r.sampled = true;
  r.latency_us = 1234;
  r.rows = 2;
  r.affected = 0;
  r.loops.push_back({"n1", "index", 200, 14});
  r.loops.push_back({"n2", "ordering", 1400, 2});
  EXPECT_EQ(
      obs::RenderSlowQueryJson(r),
      "{\"seq\":3,"
      "\"script_hash\":\"" + obs::FormatTraceId(r.script_hash) + "\","
      "\"script\":\"retrieve (n.name)\\nwhere n.name = \\\"x\\\"\","
      "\"trace_id\":\"00000000deadbeef\",\"sampled\":true,"
      "\"latency_us\":1234,\"rows\":2,\"affected\":0,\"error\":\"OK\","
      "\"loops\":[{\"var\":\"n1\",\"access\":\"index\",\"rows_in\":200,"
      "\"rows_out\":14},"
      "{\"var\":\"n2\",\"access\":\"ordering\",\"rows_in\":1400,"
      "\"rows_out\":2}]}");
}

TEST(SlowQueryLogTest, SinkStampsSeqAndTruncatesScript) {
  std::string path =
      ::testing::TempDir() + "slowlog_sink_test.jsonl";
  std::remove(path.c_str());
  {
    auto log = obs::SlowQueryLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    obs::SlowQueryRecord r;
    r.script = std::string(500, 'q');  // far past the excerpt cap
    (*log)->Log(r);
    (*log)->Log(obs::SlowQueryRecord{});
    EXPECT_EQ((*log)->records_written(), 2u);
  }
  std::ifstream in(path);
  std::string line1, line2, extra;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line1)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line2)));
  EXPECT_FALSE(static_cast<bool>(std::getline(in, extra)));
  EXPECT_NE(line1.find("\"seq\":1,"), std::string::npos);
  EXPECT_NE(line2.find("\"seq\":2,"), std::string::npos);
  // 120-char excerpt + "..." — never the full 500 q's.
  std::string excerpt(obs::SlowQueryLog::kScriptExcerptChars, 'q');
  EXPECT_NE(line1.find(excerpt + "..."), std::string::npos);
  EXPECT_EQ(line1.find(std::string(200, 'q')), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Loopback integration: trace context over the wire, the admin
// endpoint, and the server-side slow-query log.

class TraceServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ddl = ddl::ExecuteDdl(R"(
      define entity CHORD (name = integer)
      define entity NOTE (name = integer)
      define ordering note_in_chord (NOTE) under CHORD
    )",
                               &db_);
    ASSERT_TRUE(ddl.ok());
    auto chord = db_.CreateEntity("CHORD");
    ASSERT_TRUE(chord.ok());
    ASSERT_TRUE(db_.SetAttribute(*chord, "name", rel::Value::Int(1)).ok());
    for (int i = 0; i < 40; ++i) {
      auto note = db_.CreateEntity("NOTE");
      ASSERT_TRUE(note.ok());
      ASSERT_TRUE(db_.SetAttribute(*note, "name", rel::Value::Int(i)).ok());
      ASSERT_TRUE(db_.AppendChild("note_in_chord", *chord, *note).ok());
    }
    obs::TraceRing::Global()->Clear();
  }

  void StartServer(net::ServerOptions opts = {}) {
    opts.port = 0;
    server_ = std::make_unique<net::Server>(&db_, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  void StartAdmin() {
    admin_ = std::make_unique<net::AdminServer>(server_.get());
    ASSERT_TRUE(admin_->Start().ok());
  }

  // The server publishes a request's trace right after sending the last
  // result page, so the client can observe completion a beat earlier.
  std::shared_ptr<const obs::Trace> WaitForTrace(uint64_t id) {
    for (int i = 0; i < 200; ++i) {
      if (auto t = obs::TraceRing::Global()->Find(id)) return t;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return nullptr;
  }

  void TearDown() override {
    if (admin_) admin_->Stop();
    if (server_) server_->Stop();
  }

  er::Database db_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<net::AdminServer> admin_;
};

TEST_F(TraceServerTest, TraceIdRoundTripsThroughV3AndTheAdminEndpoint) {
  StartServer();
  StartAdmin();
  net::ClientOptions copts;
  copts.trace_sample_rate = 1.0;
  copts.trace_seed = 42;
  auto conn = Connection::Remote("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  auto rs = conn->Execute("range of n is NOTE\nretrieve (n.name)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 40u);

  uint64_t id = conn->last_trace_id();
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(conn->last_trace_sampled());

  // The server-side ring holds the trace under the CLIENT's id...
  auto trace = WaitForTrace(id);
  ASSERT_NE(trace, nullptr);
  std::vector<std::string> names;
  for (const auto& e : trace->events) names.push_back(e.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "quel.statement"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "net.request"),
            names.end());
  // ...the net.request span is outermost and closes last.
  EXPECT_STREQ(trace->events.back().name, "net.request");
  EXPECT_EQ(trace->events.back().depth, 1);

  // And GET /traces/<id> exports it as trace_event JSON.
  auto body = net::HttpGet("127.0.0.1", admin_->port(),
                           "/traces/" + obs::FormatTraceId(id), 2'000);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body->find("\"trace_id\":\"" + obs::FormatTraceId(id) + "\""),
            std::string::npos);
  EXPECT_NE(body->find("\"name\":\"net.request\""), std::string::npos);
  EXPECT_NE(body->find("\"name\":\"quel.statement\""), std::string::npos);
}

TEST_F(TraceServerTest, UnsampledRequestsLeaveNoTrace) {
  StartServer();
  net::ClientOptions copts;  // trace_sample_rate defaults to 0
  auto conn = Connection::Remote("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Execute("retrieve (NOTE.name)").ok());
  EXPECT_NE(conn->last_trace_id(), 0u);  // an id is always stamped
  EXPECT_FALSE(conn->last_trace_sampled());
  server_->Stop();  // drain: the request scope has fully closed
  EXPECT_EQ(obs::TraceRing::Global()->size(), 0u);
}

TEST_F(TraceServerTest, V2AndV3FramesAreRejectedAndTheConnectionKeepsServing) {
  StartServer();
  auto t = net::DialTcpTransport("127.0.0.1", server_->port(), 2'000);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const std::string script = "retrieve (NOTE.name)";

  // What a v2 client sends (u32 deadline_ms + script, no trace fields)
  // and what a v3 client sends (the v4 ExecuteRequest payload): both
  // get a typed INVALID_ARGUMENT back on the same, still-open link.
  net::Frame v2;
  v2.type = net::FrameType::kExecuteRequest;
  v2.version = 2;
  v2.payload = {0, 0, 0, 0};  // deadline_ms = 0: server default
  v2.payload.push_back(static_cast<uint8_t>(script.size()));
  v2.payload.insert(v2.payload.end(), script.begin(), script.end());
  net::Frame v3 = net::EncodeExecuteRequest({script, 0});
  v3.version = 3;
  for (const net::Frame& old : {v2, v3}) {
    ASSERT_TRUE(net::WriteFrame(t->get(), old).ok());
    bool fatal = false;
    auto reply = net::ReadFrame(t->get(), net::kDefaultMaxFrameBytes,
                                &fatal);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, net::FrameType::kError);
    EXPECT_EQ(reply->version, net::kProtocolVersion);
    Status remote;
    ASSERT_TRUE(net::DecodeErrorFrame(*reply, &remote).ok());
    EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument)
        << remote.ToString();
  }

  // The same connection then serves a current request.
  ASSERT_TRUE(
      net::WriteFrame(t->get(), net::EncodeExecuteRequest({script, 0})).ok());
  quel::ResultSet rs;
  bool done = false;
  while (!done) {
    bool fatal = false;
    auto reply = net::ReadFrame(t->get(), net::kDefaultMaxFrameBytes,
                                &fatal);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, net::FrameType::kResultPage);
    ASSERT_TRUE(net::DecodeResultPage(*reply, &rs, &done).ok());
  }
  EXPECT_EQ(rs.rows.size(), 40u);
  (*t)->Close();
}

TEST_F(TraceServerTest, AdminServesMetricsHealthzStatuszAndTraces) {
  net::ServerOptions opts;
  StartServer(opts);
  StartAdmin();
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Execute("retrieve (NOTE.name)").ok());

  auto health = net::HttpGet("127.0.0.1", admin_->port(), "/healthz", 2'000);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(*health, "ok\n");

  auto metrics = net::HttpGet("127.0.0.1", admin_->port(), "/metrics", 2'000);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("mdm_net_requests_total"), std::string::npos);
  EXPECT_NE(metrics->find("# TYPE"), std::string::npos);

  auto statusz = net::HttpGet("127.0.0.1", admin_->port(), "/statusz", 2'000);
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  EXPECT_NE(statusz->find("\"uptime_ms\":"), std::string::npos);
  EXPECT_NE(statusz->find("\"requests_total\":1"), std::string::npos);
  EXPECT_NE(statusz->find("\"net_request_latency_ns\":"), std::string::npos);
  EXPECT_NE(statusz->find("\"connections\":["), std::string::npos);

  auto list = net::HttpGet("127.0.0.1", admin_->port(), "/traces", 2'000);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_NE(list->find("\"traces\":["), std::string::npos);

  auto missing = net::HttpGet("127.0.0.1", admin_->port(),
                              "/traces/00000000000000ff", 2'000);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  auto nowhere = net::HttpGet("127.0.0.1", admin_->port(), "/nope", 2'000);
  ASSERT_FALSE(nowhere.ok());
  EXPECT_EQ(nowhere.status().code(), StatusCode::kNotFound);
}

TEST_F(TraceServerTest, SlowQueryLogRecordsTraceIdAndPerLoopActuals) {
  std::string path = ::testing::TempDir() + "slowlog_server_test.jsonl";
  std::remove(path.c_str());
  net::ServerOptions opts;
  auto log = obs::SlowQueryLog::Open(path);
  ASSERT_TRUE(log.ok());
  opts.slow_query_log = std::move(*log);
  opts.slow_query_ms = 0;  // log every statement, deterministically
  StartServer(opts);

  net::ClientOptions copts;
  copts.trace_sample_rate = 1.0;
  copts.trace_seed = 7;
  auto conn = Connection::Remote("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(conn.ok());
  auto rs = conn->Execute(
      "range of n1, n2 is NOTE\n"
      "retrieve (n1.name) where n1 before n2 in note_in_chord "
      "and n2.name = 3");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  uint64_t id = conn->last_trace_id();
  server_->Stop();  // drain: the slow-query record is written

  EXPECT_EQ(opts.slow_query_log->records_written(), 1u);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  // The record carries the CLIENT's trace id — the slowlog/trace join.
  EXPECT_NE(line.find("\"trace_id\":\"" + obs::FormatTraceId(id) + "\""),
            std::string::npos);
  EXPECT_NE(line.find("\"sampled\":true"), std::string::npos);
  EXPECT_NE(line.find("\"error\":\"OK\""), std::string::npos);
  // Two range variables -> two per-loop actuals entries, each naming
  // its variable with real row counts.
  EXPECT_NE(line.find("\"loops\":[{\"var\":\""), std::string::npos);
  EXPECT_NE(line.find("\"rows_in\":"), std::string::npos);
  // n2 scans NOTE; n1 enumerates n2's earlier siblings in note_in_chord.
  EXPECT_NE(line.find("\"access\":\"scan\""), std::string::npos);
  EXPECT_NE(line.find("\"access\":\"ordering\""), std::string::npos);
  size_t first_var = line.find("{\"var\":\"");
  ASSERT_NE(first_var, std::string::npos);
  EXPECT_NE(line.find("{\"var\":\"", first_var + 1), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceServerTest, SlowQueryThresholdFiltersFastStatements) {
  std::string path = ::testing::TempDir() + "slowlog_threshold_test.jsonl";
  std::remove(path.c_str());
  net::ServerOptions opts;
  auto log = obs::SlowQueryLog::Open(path);
  ASSERT_TRUE(log.ok());
  opts.slow_query_log = std::move(*log);
  opts.slow_query_ms = 60'000;  // nothing on loopback is this slow
  StartServer(opts);
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Execute("retrieve (NOTE.name)").ok());
  server_->Stop();
  EXPECT_EQ(opts.slow_query_log->records_written(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mdm
