// The mdmd wire protocol and client/server stack (src/net): frame
// codec goldens, malformed-frame rejection, error transport fidelity,
// and loopback integration of concurrent remote clients against one
// server. The integration tests exercise real TCP sockets on 127.0.0.1
// and run under the tsan preset (a connection thread per client over
// the PR 4 locking stack).
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "ddl/parser.h"
#include "er/database.h"
#include "net/client.h"
#include "net/connection.h"
#include "net/protocol.h"
#include "net/retry.h"
#include "net/server.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "quel/quel.h"
#include "rel/value.h"

namespace mdm {
namespace {

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// ---------------------------------------------------------------------
// common::ErrorCode — every Status carries a canonical code.

TEST(ErrorCodeTest, CanonicalMappingIsTotal) {
  EXPECT_EQ(CanonicalCode(StatusCode::kOk), ErrorCode::OK);
  EXPECT_EQ(CanonicalCode(StatusCode::kNotFound), ErrorCode::NOT_FOUND);
  for (StatusCode c :
       {StatusCode::kInvalidArgument, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kConstraintViolation, StatusCode::kParseError,
        StatusCode::kTypeError})
    EXPECT_EQ(CanonicalCode(c), ErrorCode::INVALID_ARGUMENT)
        << StatusCodeName(c);
  EXPECT_EQ(CanonicalCode(StatusCode::kCorruption), ErrorCode::CORRUPTION);
  EXPECT_EQ(CanonicalCode(StatusCode::kResourceExhausted),
            ErrorCode::RESOURCE_EXHAUSTED);
  EXPECT_EQ(CanonicalCode(StatusCode::kDeadlineExceeded),
            ErrorCode::DEADLINE_EXCEEDED);
  EXPECT_EQ(CanonicalCode(StatusCode::kIoError), ErrorCode::UNAVAILABLE);
  EXPECT_EQ(CanonicalCode(StatusCode::kUnavailable),
            ErrorCode::UNAVAILABLE);
  EXPECT_EQ(CanonicalCode(StatusCode::kUnimplemented),
            ErrorCode::INTERNAL);
  EXPECT_EQ(CanonicalCode(StatusCode::kInternal), ErrorCode::INTERNAL);
}

TEST(ErrorCodeTest, StatusExposesErrorCode) {
  EXPECT_EQ(Status::OK().error_code(), ErrorCode::OK);
  EXPECT_EQ(NotFound("x").error_code(), ErrorCode::NOT_FOUND);
  EXPECT_EQ(ParseError("x").error_code(), ErrorCode::INVALID_ARGUMENT);
  EXPECT_EQ(ResourceExhausted("x").error_code(),
            ErrorCode::RESOURCE_EXHAUSTED);
  EXPECT_EQ(DeadlineExceeded("x").error_code(),
            ErrorCode::DEADLINE_EXCEEDED);
  EXPECT_EQ(Unavailable("x").error_code(), ErrorCode::UNAVAILABLE);
  EXPECT_STREQ(ErrorCodeName(ErrorCode::RESOURCE_EXHAUSTED),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::OK), "OK");
}

// ---------------------------------------------------------------------
// Frame codec goldens: the wire encoding is a compatibility surface
// (docs/PROTOCOL.md); byte-level changes are protocol revisions.

TEST(ProtocolGoldenTest, ExecuteRequestFrame) {
  net::ExecuteRequest req;
  req.script = "retrieve (NOTE.name)";
  req.deadline_ms = 250;
  // Layout: deadline_ms u32 | trace_id u64 | flags u8 | script.
  EXPECT_EQ(Hex(net::EncodeFrame(net::EncodeExecuteRequest(req))),
            "4d444d5004010000220000002b9518f6fa0000000000000000000000"
            "0014726574726965766520284e4f54452e6e616d6529");
}

TEST(ProtocolGoldenTest, ExecuteRequestFrameWithTrace) {
  net::ExecuteRequest req;
  req.script = "retrieve (NOTE.name)";
  req.deadline_ms = 250;
  req.trace_id = 0x1122334455667788ull;
  req.trace_sampled = true;
  EXPECT_EQ(Hex(net::EncodeFrame(net::EncodeExecuteRequest(req))),
            "4d444d500401000022000000474f2a1ffa000000887766554433221101"
            "14726574726965766520284e4f54452e6e616d6529");
}

// A v2 client's ExecuteRequest (the v2 golden bytes) is refused with a
// typed INVALID_ARGUMENT: v4 is the only grammar this build speaks.
TEST(ProtocolGoldenTest, V2ExecuteRequestIsRejected) {
  const char kV2Hex[] =
      "4d444d500201000019000000312b51a4fa000000147265747269657665"
      "20284e4f54452e6e616d6529";
  std::vector<uint8_t> bytes;
  for (size_t i = 0; kV2Hex[i] != '\0'; i += 2) {
    auto nibble = [](char c) {
      return static_cast<uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    };
    bytes.push_back(
        static_cast<uint8_t>(nibble(kV2Hex[i]) << 4 | nibble(kV2Hex[i + 1])));
  }
  auto frame = net::DecodeFrame(bytes.data(), bytes.size());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(frame.status().message().find("unsupported protocol version 2"),
            std::string::npos)
      << frame.status().ToString();
}

TEST(ProtocolGoldenTest, ErrorFrame) {
  EXPECT_EQ(Hex(net::EncodeFrame(net::EncodeErrorFrame(
                NotFound("no entity type named FOO")))),
            "4d444d50040300001f0000002979de74010200000000186e6f20656e74"
            "6974792074797065206e616d656420464f4f");
}

TEST(ProtocolGoldenTest, ResultPageFrames) {
  quel::ResultSet rs;
  rs.columns = {"n.name", "n.pitch"};
  rs.rows.push_back({rel::Value::Int(7), rel::Value::String("G4")});
  rs.rows.push_back({rel::Value::Int(9), rel::Value::String("B4")});
  rs.rows.push_back({rel::Value::Null(), rel::Value::Ref(17)});
  rs.affected = 3;
  auto pages = net::EncodeResultSetPages(rs, 2);
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(Hex(net::EncodeFrame(pages[0])),
            "4d444d50040200002f0000009680e84c0102066e2e6e616d65076e2e70"
            "6974636800020202070000000000000004024734020209000000000000"
            "0004024234");
  EXPECT_EQ(Hex(net::EncodeFrame(pages[1])),
            "4d444d500402000015000000a5e6e7d5020102000611000000000000"
            "000300000000000000");
}

// Batch frames: the BatchExecuteRequest payload mirrors an
// ExecuteRequest prefix (deadline | trace_id | flags), then varint N
// and N scripts.
TEST(ProtocolGoldenTest, BatchExecuteRequestFrame) {
  net::BatchExecuteRequest req;
  req.deadline_ms = 250;
  req.trace_id = 0x1122334455667788ull;
  req.trace_sampled = true;
  req.scripts = {"append to NOTE (name = \"C4\")",
                 "retrieve (NOTE.name)"};
  EXPECT_EQ(Hex(net::EncodeFrame(net::EncodeBatchExecuteRequest(req))),
            "4d444d50040600004000000009a0bfc4fa0000008877665544332211"
            "01021c617070656e6420746f204e4f544520286e616d65203d202243"
            "34222914726574726965766520284e4f54452e6e616d6529");
}

TEST(ProtocolGoldenTest, BatchStatusFrameAllOk) {
  BatchResult br;
  br.submitted = 2;
  br.statements.push_back({Status::OK(), 1});
  br.statements.push_back({Status::OK(), 0});
  // submitted=2 | attempted=2 | {ok,affected}x2 | results_follow=1.
  EXPECT_EQ(Hex(net::EncodeFrame(net::EncodeBatchStatus(br))),
            "4d444d5004070000150000006bdf7bcf020201010000000000000001"
            "000000000000000001");
}

TEST(ProtocolGoldenTest, BatchStatusFramePrefixStop) {
  BatchResult br;
  br.submitted = 3;
  br.statements.push_back({Status::OK(), 1});
  br.statements.push_back({NotFound("no entity type named FOO"), 0});
  // Statement 3 was never attempted; results_follow=0.
  EXPECT_EQ(Hex(net::EncodeFrame(net::EncodeBatchStatus(br))),
            "4d444d5004070000340000001720d5bb030201010000000000000000"
            "0000000000000000010200000000186e6f20656e7469747920747970"
            "65206e616d656420464f4f00");
}

TEST(ProtocolTest, BatchExecuteRequestRoundTrip) {
  net::BatchExecuteRequest req;
  req.deadline_ms = 77;
  req.trace_id = 42;
  req.trace_sampled = false;
  req.scripts = {"range of n is NOTE", "retrieve (n.name)", ""};
  auto bytes = net::EncodeFrame(net::EncodeBatchExecuteRequest(req));
  auto frame = net::DecodeFrame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->version, net::kProtocolVersion);
  auto decoded = net::DecodeBatchExecuteRequest(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->scripts, req.scripts);
  EXPECT_EQ(decoded->deadline_ms, req.deadline_ms);
  EXPECT_EQ(decoded->trace_id, req.trace_id);
  EXPECT_FALSE(decoded->trace_sampled);
}

// Batch frames are a v4 construct: a batch frame stamped with an older
// version is a protocol violation, not something to guess about.
TEST(ProtocolTest, BatchFrameClaimingV3IsRejected) {
  net::BatchExecuteRequest req;
  req.scripts = {"retrieve (NOTE.name)"};
  net::Frame f = net::EncodeBatchExecuteRequest(req);
  f.version = 3;
  auto bytes = net::EncodeFrame(f);
  auto decoded = net::DecodeFrame(bytes.data(), bytes.size());
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, BatchStatusRoundTripStatusesIntact) {
  BatchResult br;
  br.submitted = 4;
  br.statements.push_back({Status::OK(), 3});
  br.statements.push_back({Status::OK(), 0});
  Status failed = ParseError("bad token near 'retrive'");
  failed.set_retry_after_ms(250);
  br.statements.push_back({failed, 0});
  net::Frame f = net::EncodeBatchStatus(br);
  BatchResult out;
  bool results_follow = true;
  ASSERT_TRUE(net::DecodeBatchStatus(f, &out, &results_follow).ok());
  EXPECT_FALSE(results_follow);  // not all_ok
  EXPECT_EQ(out.submitted, 4u);
  ASSERT_EQ(out.statements.size(), 3u);
  EXPECT_TRUE(out.statements[0].status.ok());
  EXPECT_EQ(out.statements[0].affected, 3u);
  EXPECT_TRUE(out.statements[1].status.ok());
  EXPECT_EQ(out.statements[2].status.code(), StatusCode::kParseError);
  EXPECT_EQ(out.statements[2].status.error_code(),
            ErrorCode::INVALID_ARGUMENT);
  EXPECT_EQ(out.statements[2].status.message(),
            "bad token near 'retrive'");
  EXPECT_EQ(out.statements[2].status.retry_after_ms(), 250u);
  EXPECT_EQ(out.failed_index(), 2u);
  EXPECT_FALSE(out.all_ok());
}

// ---------------------------------------------------------------------
// Codec round trips.

TEST(ProtocolTest, ExecuteRequestRoundTrip) {
  net::ExecuteRequest req;
  req.script = "range of n is NOTE\nretrieve (n.name)";
  req.deadline_ms = 1234;
  auto bytes = net::EncodeFrame(net::EncodeExecuteRequest(req));
  size_t consumed = 0;
  auto frame = net::DecodeFrame(bytes.data(), bytes.size(),
                                net::kDefaultMaxFrameBytes, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  auto decoded = net::DecodeExecuteRequest(*frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->script, req.script);
  EXPECT_EQ(decoded->deadline_ms, req.deadline_ms);
}

TEST(ProtocolTest, ErrorFramesRoundTripEveryCodeIntact) {
  const Status statuses[] = {
      InvalidArgument("m1"),   NotFound("m2"),
      AlreadyExists("m3"),     FailedPrecondition("m4"),
      OutOfRange("m5"),        Corruption("m6"),
      ConstraintViolation("m7"), ParseError("m8"),
      TypeError("m9"),         IoError("m10"),
      Unimplemented("m11"),    Internal("m12"),
      ResourceExhausted("m13"), DeadlineExceeded("m14"),
      Unavailable("m15"),
  };
  for (const Status& s : statuses) {
    Status out;
    ASSERT_TRUE(
        net::DecodeErrorFrame(net::EncodeErrorFrame(s), &out).ok());
    EXPECT_EQ(out.code(), s.code()) << s.ToString();
    EXPECT_EQ(out.error_code(), s.error_code()) << s.ToString();
    EXPECT_EQ(out.message(), s.message());
  }
}

TEST(ProtocolTest, ResultSetPagingRoundTrip) {
  quel::ResultSet rs;
  rs.columns = {"a", "b", "c"};
  rs.explain = "plan text";
  rs.affected = 42;
  for (int i = 0; i < 5; ++i)
    rs.rows.push_back({rel::Value::Int(i),
                       rel::Value::String("s" + std::to_string(i)),
                       rel::Value::Rat(Rational(i, 4))});
  auto pages = net::EncodeResultSetPages(rs, 2);
  ASSERT_EQ(pages.size(), 3u);

  quel::ResultSet out;
  bool done = false;
  for (const net::Frame& page : pages) {
    ASSERT_FALSE(done);
    ASSERT_TRUE(net::DecodeResultPage(page, &out, &done).ok());
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(out.columns, rs.columns);
  EXPECT_EQ(out.explain, rs.explain);
  EXPECT_EQ(out.affected, rs.affected);
  ASSERT_EQ(out.rows.size(), rs.rows.size());
  for (size_t r = 0; r < rs.rows.size(); ++r)
    for (size_t c = 0; c < rs.columns.size(); ++c)
      EXPECT_TRUE(out.rows[r][c].Equals(rs.rows[r][c]));
}

TEST(ProtocolTest, EmptyResultSetIsOnePage) {
  quel::ResultSet rs;
  rs.affected = 7;
  auto pages = net::EncodeResultSetPages(rs, 100);
  ASSERT_EQ(pages.size(), 1u);
  quel::ResultSet out;
  bool done = false;
  ASSERT_TRUE(net::DecodeResultPage(pages[0], &out, &done).ok());
  EXPECT_TRUE(done);
  EXPECT_TRUE(out.rows.empty());
  EXPECT_EQ(out.affected, 7u);
}

// ---------------------------------------------------------------------
// Malformed frames: every rejection is a typed error.

TEST(ProtocolTest, TruncatedFramesAreCorruption) {
  auto bytes = net::EncodeFrame(net::EncodeErrorFrame(NotFound("x")));
  for (size_t cut : {size_t{0}, size_t{5}, net::kFrameHeaderBytes,
                     bytes.size() - 1}) {
    auto r = net::DecodeFrame(bytes.data(), cut);
    ASSERT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "cut=" << cut;
    EXPECT_EQ(r.status().error_code(), ErrorCode::CORRUPTION);
  }
}

TEST(ProtocolTest, BadMagicIsCorruption) {
  auto bytes = net::EncodeFrame(net::EncodeErrorFrame(NotFound("x")));
  bytes[0] ^= 0xff;
  auto r = net::DecodeFrame(bytes.data(), bytes.size());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, BadVersionIsInvalidArgument) {
  auto bytes = net::EncodeFrame(net::EncodeErrorFrame(NotFound("x")));
  bytes[4] = net::kProtocolVersion + 1;
  auto r = net::DecodeFrame(bytes.data(), bytes.size());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().error_code(), ErrorCode::INVALID_ARGUMENT);
}

TEST(ProtocolTest, OversizedFrameIsResourceExhausted) {
  net::ExecuteRequest req;
  req.script = std::string(2048, 'x');
  auto bytes = net::EncodeFrame(net::EncodeExecuteRequest(req));
  auto r = net::DecodeFrame(bytes.data(), bytes.size(), /*max=*/1024);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().error_code(), ErrorCode::RESOURCE_EXHAUSTED);
}

TEST(ProtocolTest, BadChecksumIsCorruption) {
  auto bytes = net::EncodeFrame(net::EncodeErrorFrame(NotFound("x")));
  bytes.back() ^= 0x01;  // flip a payload bit; crc no longer matches
  auto r = net::DecodeFrame(bytes.data(), bytes.size());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, IsIdempotentScript) {
  EXPECT_TRUE(net::IsIdempotentScript(
      "range of n is NOTE\nretrieve (n.name)"));
  EXPECT_TRUE(net::IsIdempotentScript(
      "explain retrieve (NOTE.name) where NOTE.name = 3"));
  EXPECT_FALSE(net::IsIdempotentScript("append to NOTE (name = 7)"));
  EXPECT_FALSE(net::IsIdempotentScript(
      "replace n (pitch = \"A4\") where n.name = 7"));
  EXPECT_FALSE(net::IsIdempotentScript("delete n where n.name = 7"));
  EXPECT_FALSE(net::IsIdempotentScript(
      "define entity NOTE (name = integer)"));
  // Substrings of keywords do not disqualify.
  EXPECT_TRUE(net::IsIdempotentScript(
      "retrieve (n.name) where n.definedness = 1"));
  // Keywords match in any case, at either end of the script.
  EXPECT_FALSE(net::IsIdempotentScript("DELETE n"));
  EXPECT_FALSE(net::IsIdempotentScript("range of n is NOTE Append"));
  EXPECT_TRUE(net::IsIdempotentScript("retrieve (NOTE.xdelete)"));
  EXPECT_TRUE(net::IsIdempotentScript(""));
}

// ---------------------------------------------------------------------
// Loopback integration: a real server on 127.0.0.1.

class NetServerTest : public ::testing::Test {
 protected:
  static constexpr int kNotes = 200;

  void StartServer(net::ServerOptions opts = {}) {
    opts.port = 0;
    server_ = std::make_unique<net::Server>(&db_, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  static void SeedDb(er::Database* db) {
    auto ddl = ddl::ExecuteDdl(R"(
      define entity CHORD (name = integer)
      define entity NOTE (name = integer)
      define ordering note_in_chord (NOTE) under CHORD
    )",
                               db);
    ASSERT_TRUE(ddl.ok());
    auto chord = db->CreateEntity("CHORD");
    ASSERT_TRUE(chord.ok());
    ASSERT_TRUE(
        db->SetAttribute(*chord, "name", rel::Value::Int(1)).ok());
    for (int i = 0; i < kNotes; ++i) {
      auto note = db->CreateEntity("NOTE");
      ASSERT_TRUE(note.ok());
      ASSERT_TRUE(
          db->SetAttribute(*note, "name", rel::Value::Int(i)).ok());
      ASSERT_TRUE(db->AppendChild("note_in_chord", *chord, *note).ok());
    }
  }

  void SetUp() override { SeedDb(&db_); }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  er::Database db_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(NetServerTest, RemoteExecuteMatchesLocal) {
  StartServer();
  auto remote = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  Connection local = Connection::Local(&db_);

  const char* script = "retrieve (k = count(NOTE.name))";
  auto rr = remote->Execute(script);
  auto lr = local.Execute(script);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_TRUE(lr.ok());
  EXPECT_EQ(rr->ToString(), lr->ToString());
  ASSERT_EQ(rr->rows.size(), 1u);
  EXPECT_EQ(rr->At(0, 0).AsInt(), kNotes);
}

TEST_F(NetServerTest, MultiPageResultArrivesExactly) {
  net::ServerOptions opts;
  opts.rows_per_page = 7;  // forces ceil(200/7) = 29 pages
  StartServer(opts);
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  auto rs = conn->Execute("range of n is NOTE\nretrieve (n.name)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), static_cast<size_t>(kNotes));
  // Every note name exactly once, in scan order.
  for (int i = 0; i < kNotes; ++i) EXPECT_EQ(rs->At(i, 0).AsInt(), i);
}

TEST_F(NetServerTest, DdlAndMutationsOverTheWire) {
  StartServer();
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  auto ddl = conn->Execute("define entity LYRIC (text = string)");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  EXPECT_EQ(ddl->At(0, 0).AsInt(), 1);  // one entity type defined
  ASSERT_TRUE(conn->Execute("append to LYRIC (text = \"la\")").ok());
  auto rs = conn->Execute("retrieve (k = count(LYRIC.text))");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->At(0, 0).AsInt(), 1);
  // The mutation is visible in-process too: one shared database.
  EXPECT_EQ(*db_.CountEntities("LYRIC"), 1u);
}

TEST_F(NetServerTest, BatchExecutesInOneRoundTripWithLastResult) {
  StartServer();
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  auto br = conn->ExecuteBatch({
      "define entity LYRIC (text = string)",
      "append to LYRIC (text = \"la\")",
      "append to LYRIC (text = \"da\")",
      "retrieve (k = count(LYRIC.text))",
  });
  ASSERT_TRUE(br.ok()) << br.status().ToString();
  EXPECT_TRUE(br->all_ok());
  ASSERT_EQ(br->statements.size(), 4u);
  EXPECT_EQ(br->statements[0].affected, 1u);  // one entity type defined
  EXPECT_EQ(br->statements[1].affected, 1u);
  EXPECT_EQ(br->statements[2].affected, 1u);
  // The last statement's ResultSet rides along in the same round trip.
  ASSERT_EQ(br->last.rows.size(), 1u);
  EXPECT_EQ(br->last.At(0, 0).AsInt(), 2);
  // Applied on the shared database, not a shadow copy.
  EXPECT_EQ(*db_.CountEntities("LYRIC"), 2u);
}

TEST_F(NetServerTest, BatchMatchesLocalSemantics) {
  StartServer();
  auto remote = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());
  er::Database local_db;
  SeedDb(&local_db);  // identical seed to the fixture's remote db
  Connection local = Connection::Local(&local_db);
  std::vector<std::string> scripts = {
      "append to NOTE (name = 41)",
      "append to NOTE (name = 43)",
      "range of n is NOTE\nretrieve (n.name) where n.name > 40",
  };
  auto rr = remote->ExecuteBatch(scripts);
  auto lr = local.ExecuteBatch(scripts);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_TRUE(lr.ok()) << lr.status().ToString();
  EXPECT_TRUE(rr->all_ok());
  EXPECT_TRUE(lr->all_ok());
  ASSERT_EQ(rr->statements.size(), lr->statements.size());
  for (size_t i = 0; i < rr->statements.size(); ++i)
    EXPECT_EQ(rr->statements[i].affected, lr->statements[i].affected) << i;
  EXPECT_EQ(rr->last.ToString(), lr->last.ToString());
}

TEST_F(NetServerTest, BatchStopsAtFirstErrorCodeIntact) {
  StartServer();
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  auto br = conn->ExecuteBatch({
      "append to NOTE (name = 999)",
      "retrieve (NOPE.x)",          // fails: no such entity type
      "append to NOTE (name = 1000)",  // never attempted
  });
  ASSERT_TRUE(br.ok()) << br.status().ToString();
  EXPECT_FALSE(br->all_ok());
  ASSERT_EQ(br->statements.size(), 2u);  // prefix-stop after the failure
  EXPECT_TRUE(br->statements[0].status.ok());
  EXPECT_EQ(br->statements[1].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(br->statements[1].status.error_code(), ErrorCode::NOT_FOUND);
  EXPECT_EQ(br->failed_index(), 1u);
  EXPECT_EQ(br->first_error().code(), StatusCode::kNotFound);
  // The applied prefix committed; the tail never ran.
  auto rs = conn->Execute("range of n is NOTE\n"
                          "retrieve (k = count(n.name)) where n.name > 900");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->At(0, 0).AsInt(), 1);
}

TEST_F(NetServerTest, EmptyBatchIsOkAndEmpty) {
  StartServer();
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  auto br = conn->ExecuteBatch({});
  ASSERT_TRUE(br.ok()) << br.status().ToString();
  EXPECT_TRUE(br->all_ok());
  EXPECT_EQ(br->submitted, 0u);
  EXPECT_TRUE(br->statements.empty());
  EXPECT_TRUE(br->last.rows.empty());
}

TEST_F(NetServerTest, ErrorsArriveCodeIntact) {
  StartServer();
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());

  auto nf = conn->Execute("retrieve (NOPE.x)");
  ASSERT_FALSE(nf.ok());
  EXPECT_EQ(nf.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(nf.status().error_code(), ErrorCode::NOT_FOUND);
  EXPECT_FALSE(nf.status().message().empty());

  auto pe = conn->Execute("retrieve ((((");
  ASSERT_FALSE(pe.ok());
  EXPECT_EQ(pe.status().code(), StatusCode::kParseError);
  EXPECT_EQ(pe.status().error_code(), ErrorCode::INVALID_ARGUMENT);
}

TEST_F(NetServerTest, FourConcurrentClientsExactCounts) {
  StartServer();
  constexpr int kClients = 4;
  constexpr int kRequests = 25;
  std::atomic<int> ok{0};
  std::atomic<int> exact{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto conn = Connection::Remote("127.0.0.1", server_->port());
      if (!conn.ok()) return;
      for (int i = 0; i < kRequests; ++i) {
        const char* script =
            (t + i) % 2 == 0
                ? "retrieve (k = count(NOTE.name))"
                : "range of n is NOTE\nrange of c is CHORD\n"
                  "retrieve (k = count(n)) "
                  "where n under c in note_in_chord and c.name = 1";
        auto rs = conn->Execute(script);
        if (!rs.ok()) continue;
        ok.fetch_add(1);
        if (rs->rows.size() == 1 && rs->At(0, 0).AsInt() == kNotes)
          exact.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Exact-count assertions: every request succeeded and saw all 200
  // notes (the database is static during this test).
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_EQ(exact.load(), kClients * kRequests);
  // The server counts a request after writing its reply, so the last
  // increment can trail the client's read by a moment; it can settle at
  // exactly kClients * kRequests and never beyond.
  // Likewise a connection thread notices the client's close (EOF) only
  // at its next poll wakeup, so active_connections drains to 0 shortly
  // after the last join rather than synchronously with it.
  const auto want = static_cast<uint64_t>(kClients * kRequests);
  for (int i = 0; i < 100 && (server_->requests_served() < want ||
                              server_->active_connections() > 0);
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server_->requests_served(), want);
  EXPECT_EQ(server_->active_connections(), 0u);  // all clients closed
}

TEST_F(NetServerTest, MalformedFramesGetTypedErrorsWithoutKillingServer) {
  net::ServerOptions opts;
  opts.max_frame_bytes = 1024;
  StartServer(opts);
  auto fd = net::DialTcp("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(fd.ok());

  auto expect_error = [&](const std::vector<uint8_t>& bytes,
                          StatusCode want) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t w = ::send(*fd, bytes.data() + sent, bytes.size() - sent, 0);
      ASSERT_GT(w, 0);
      sent += static_cast<size_t>(w);
    }
    bool fatal = false;
    auto reply = net::ReadFrame(*fd, net::kDefaultMaxFrameBytes, &fatal);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, net::FrameType::kError);
    Status remote;
    ASSERT_TRUE(net::DecodeErrorFrame(*reply, &remote).ok());
    EXPECT_EQ(remote.code(), want);
  };

  // Bad checksum: framing intact, typed Corruption comes back.
  {
    auto bytes = net::EncodeFrame(net::EncodeExecuteRequest(
        {"retrieve (NOTE.name)", 0}));
    bytes.back() ^= 0x01;
    expect_error(bytes, StatusCode::kCorruption);
  }
  // Unsupported version.
  {
    auto bytes = net::EncodeFrame(net::EncodeExecuteRequest(
        {"retrieve (NOTE.name)", 0}));
    bytes[4] = net::kProtocolVersion + 1;
    expect_error(bytes, StatusCode::kInvalidArgument);
  }
  // Oversized payload (2 KiB against the 1 KiB server limit).
  {
    net::ExecuteRequest big;
    big.script = std::string(2048, 'x');
    expect_error(net::EncodeFrame(net::EncodeExecuteRequest(big)),
                 StatusCode::kResourceExhausted);
  }
  // The same connection still serves real requests afterwards.
  {
    auto bytes = net::EncodeFrame(net::EncodeExecuteRequest(
        {"retrieve (k = count(NOTE.name))", 0}));
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t w = ::send(*fd, bytes.data() + sent, bytes.size() - sent, 0);
      ASSERT_GT(w, 0);
      sent += static_cast<size_t>(w);
    }
    bool fatal = false;
    auto reply = net::ReadFrame(*fd, net::kDefaultMaxFrameBytes, &fatal);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, net::FrameType::kResultPage);
  }
  ::close(*fd);

  // Garbage magic kills only that connection; the server keeps
  // accepting new ones.
  auto fd2 = net::DialTcp("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(fd2.ok());
  std::vector<uint8_t> garbage(64, 0xAB);
  ASSERT_GT(::send(*fd2, garbage.data(), garbage.size(), 0), 0);
  ::close(*fd2);
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  EXPECT_TRUE(conn->Execute("retrieve (k = count(NOTE.name))").ok());
}

TEST_F(NetServerTest, BackpressureRejectsBeyondMaxConnections) {
  net::ServerOptions opts;
  opts.max_connections = 1;
  StartServer(opts);
  auto first = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The admission handshake of the second connection reports the limit.
  auto second = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(second.status().error_code(), ErrorCode::RESOURCE_EXHAUSTED);
  // The admitted client is unaffected.
  EXPECT_TRUE(first->Execute("retrieve (k = count(NOTE.name))").ok());
}

TEST_F(NetServerTest, DeadlineExceededIsReported) {
  StartServer();
  net::ClientOptions copts;
  // The n×n scan below, then n² result rows, take well over 1ms.
  copts.deadline_ms = 1;
  auto conn =
      Connection::Remote("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(conn.ok());
  auto rs = conn->Execute(
      "range of a, b, c is NOTE\n"
      "retrieve (a.name) where a.name = b.name and c.name >= 0");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rs.status().error_code(), ErrorCode::DEADLINE_EXCEEDED);
  // The server survives the miss: a fresh connection without the 1ms
  // budget still serves. (The original connection may have been dropped
  // by the client when its recv timed out mid-reply — by design.)
  auto again = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->Ping().ok());
}

TEST_F(NetServerTest, StopDrainsCleanly) {
  StartServer();
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Execute("retrieve (k = count(NOTE.name))").ok());
  server_->Stop();
  EXPECT_EQ(server_->active_connections(), 0u);
  // The drained server refuses further traffic: the request or its
  // reply fails with a transport-level UNAVAILABLE (never a hang).
  net::ClientOptions no_retry;
  no_retry.retry = net::RetryPolicy::None();
  auto gone = net::Client::Connect("127.0.0.1", server_->port(), no_retry);
  if (gone.ok()) {
    auto rs = gone->Execute("retrieve (NOTE.name)");
    EXPECT_FALSE(rs.ok());
  }
}

// ---------------------------------------------------------------------
// Error frames carry the retry_after_ms backoff hint.

TEST(ProtocolTest, ErrorFrameCarriesRetryAfterHint) {
  Status shed = Unavailable("server overloaded");
  shed.set_retry_after_ms(75);
  Status out;
  ASSERT_TRUE(net::DecodeErrorFrame(net::EncodeErrorFrame(shed), &out).ok());
  EXPECT_EQ(out.code(), StatusCode::kUnavailable);
  EXPECT_EQ(out.retry_after_ms(), 75u);

  // A status without a hint round-trips as 0 (no hint).
  Status plain;
  ASSERT_TRUE(
      net::DecodeErrorFrame(net::EncodeErrorFrame(NotFound("x")), &plain)
          .ok());
  EXPECT_EQ(plain.retry_after_ms(), 0u);
}

// ---------------------------------------------------------------------
// RetrySchedule: the decorrelated-jitter sequence is pinned per seed.

TEST(RetryScheduleTest, SequenceIsDeterministicPerSeed) {
  net::RetryPolicy p;  // default seed
  net::RetrySchedule a(p);
  net::RetrySchedule b(p);
  std::vector<uint32_t> sa, sb;
  for (int i = 0; i < 8; ++i) {
    sa.push_back(a.NextBackoffMs());
    sb.push_back(b.NextBackoffMs());
  }
  EXPECT_EQ(sa, sb);

  net::RetryPolicy other = p;
  other.jitter_seed = p.jitter_seed + 1;
  net::RetrySchedule c(other);
  std::vector<uint32_t> sc;
  for (int i = 0; i < 8; ++i) sc.push_back(c.NextBackoffMs());
  EXPECT_NE(sa, sc);
}

TEST(RetryScheduleTest, GoldenSequenceForDefaultSeed) {
  // Pinned output of the default policy (initial 5ms, max 1000ms, seed
  // "mdmr"). A change here is a behavior change to every client's retry
  // timeline — deliberate edits only.
  net::RetrySchedule s((net::RetryPolicy()));
  std::vector<uint32_t> got;
  for (int i = 0; i < 6; ++i) got.push_back(s.NextBackoffMs());
  EXPECT_EQ(got, (std::vector<uint32_t>{13, 9, 8, 14, 6, 17}));
}

TEST(RetryScheduleTest, BackoffStaysWithinDecorrelatedBounds) {
  net::RetryPolicy p;
  p.initial_backoff_ms = 10;
  p.max_backoff_ms = 100;
  p.jitter_seed = 42;
  net::RetrySchedule s(p);
  uint64_t prev = p.initial_backoff_ms;
  for (int i = 0; i < 200; ++i) {
    uint32_t b = s.NextBackoffMs();
    EXPECT_GE(b, p.initial_backoff_ms);
    EXPECT_LE(b, p.max_backoff_ms);
    EXPECT_LE(b, std::max<uint64_t>(3 * prev, p.initial_backoff_ms));
    prev = b;
  }
}

// ---------------------------------------------------------------------
// DeadlineBudget: elapsed/remaining bookkeeping.

TEST(DeadlineBudgetTest, UnlimitedBudgetAffordsEverything) {
  net::DeadlineBudget b(0);
  EXPECT_TRUE(b.unlimited());
  EXPECT_FALSE(b.exhausted());
  EXPECT_TRUE(b.CanAfford(1u << 30));
}

TEST(DeadlineBudgetTest, TracksElapsedAndExhausts) {
  net::DeadlineBudget wide(60'000);
  EXPECT_FALSE(wide.unlimited());
  EXPECT_FALSE(wide.exhausted());
  EXPECT_GT(wide.remaining_ms(), 50'000u);
  EXPECT_TRUE(wide.CanAfford(100));
  EXPECT_FALSE(wide.CanAfford(70'000));  // longer than the whole budget

  net::DeadlineBudget tiny(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(tiny.exhausted());
  EXPECT_EQ(tiny.remaining_ms(), 0u);
  EXPECT_FALSE(tiny.CanAfford(0));  // strictly positive margin required
}

// ---------------------------------------------------------------------
// Connection::Remote endpoint parsing: every malformed input is a typed
// INVALID_ARGUMENT, an unreachable target UNAVAILABLE — never a crash
// or a hang.

TEST(ConnectionRemoteTest, MalformedEndpointsAreInvalidArgument) {
  const char* cases[] = {
      "",                  // nothing at all
      "localhost",         // no port
      "localhost:",        // empty port
      ":7707",             // empty host
      "[]:7707",           // empty bracketed host
      "localhost:abc",     // non-numeric port
      "localhost:7x7",     // digits then junk
      "localhost:-1",      // sign is junk too
      "localhost:0",       // port 0 is the "pick one" sentinel, not a target
      "localhost:65536",   // out of range
      "localhost:999999",  // far out of range
      "::1:7707",          // unbracketed v6 literal is ambiguous
  };
  for (const char* ep : cases) {
    auto c = Connection::Remote(ep);
    ASSERT_FALSE(c.ok()) << ep;
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument) << ep;
    EXPECT_EQ(c.status().error_code(), ErrorCode::INVALID_ARGUMENT) << ep;
  }
}

TEST(ConnectionRemoteTest, UnreachableEndpointsAreUnavailable) {
  // Nothing listens here (port 1 is reserved and unbound in practice);
  // connect is refused immediately.
  net::ClientOptions copts;
  copts.retry = net::RetryPolicy::None();
  copts.connect_timeout_ms = 2000;
  auto refused = Connection::Remote("127.0.0.1:1", copts);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(refused.status().error_code(), ErrorCode::UNAVAILABLE);

  // An unresolvable name (RFC 2606 reserves .invalid) fails in the
  // resolver, also UNAVAILABLE.
  auto nxdomain =
      Connection::Remote("no-such-host.invalid:7707", copts);
  ASSERT_FALSE(nxdomain.ok());
  EXPECT_EQ(nxdomain.status().code(), StatusCode::kUnavailable);
}

TEST(ClientTest, EmptyHostIsInvalidArgument) {
  auto fd = net::DialTcp("", 7707, 100);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kInvalidArgument);
}

// Regression: Connect bounds the admission handshake recv with
// connect_timeout_ms, and that bound must be cleared before later
// requests — a leftover handshake timeout silently capped every recv
// on the original connection, so legitimate replies slower than
// connect_timeout_ms (server default deadline is 30s) spuriously
// failed UNAVAILABLE.
TEST(ClientTest, HandshakeTimeoutDoesNotCapLaterReplies) {
  // A hand-rolled server: answers the admission ping promptly, then
  // stalls well past connect_timeout_ms before answering the next one.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<struct sockaddr*>(&addr),
                          &len),
            0);
  uint16_t port = ntohs(addr.sin_port);

  std::thread srv([lfd] {
    int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) return;
    auto answer_ping = [cfd](uint32_t stall_ms) {
      bool fatal = false;
      auto req = net::ReadFrame(cfd, net::kDefaultMaxFrameBytes, &fatal);
      if (!req.ok() || req->type != net::FrameType::kPing) return false;
      if (stall_ms != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      net::Frame pong;
      pong.type = net::FrameType::kPong;
      return net::WriteFrame(cfd, pong).ok();
    };
    answer_ping(0);    // admission handshake: prompt
    answer_ping(600);  // next ping: 3x connect_timeout_ms
    ::close(cfd);
  });

  net::ClientOptions copts;
  copts.connect_timeout_ms = 200;  // bounds the *handshake* only
  copts.retry = net::RetryPolicy::None();  // a retry must not mask this
  auto client = net::Client::Connect("127.0.0.1", port, copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // With a stale handshake bound this recv would die UNAVAILABLE after
  // ~200ms; unbounded (deadline_ms = 0, attempt_timeout_ms = 0) it
  // must wait out the 600ms stall and succeed.
  EXPECT_TRUE(client->Ping().ok());
  client->Close();
  srv.join();
  ::close(lfd);
}

// TcpTransport skips a setsockopt that would set the bound already in
// place, but starts from "unknown": an fd handed over with a bound set
// elsewhere gets it replaced on the first call, even by 0.
TEST(TransportTest, TimeoutCacheStartsUnknownAndTracksChanges) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto recv_timeout_ms = [&] {
    struct timeval tv = {};
    socklen_t len = sizeof(tv);
    EXPECT_EQ(::getsockopt(fds[0], SOL_SOCKET, SO_RCVTIMEO, &tv, &len), 0);
    return tv.tv_sec * 1000 + tv.tv_usec / 1000;
  };
  struct timeval preset = {};
  preset.tv_sec = 7;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_RCVTIMEO, &preset,
                         sizeof(preset)),
            0);
  {
    net::TcpTransport t(fds[0], /*owns_fd=*/false);
    ASSERT_TRUE(t.SetRecvTimeout(0).ok());
    EXPECT_EQ(recv_timeout_ms(), 0);
    ASSERT_TRUE(t.SetRecvTimeout(2000).ok());
    EXPECT_EQ(recv_timeout_ms(), 2000);
    ASSERT_TRUE(t.SetRecvTimeout(2000).ok());
    ASSERT_TRUE(t.SetRecvTimeout(0).ok());
    EXPECT_EQ(recv_timeout_ms(), 0);
    ASSERT_TRUE(t.SetSendTimeout(0).ok());
  }
  ::close(fds[0]);
  ::close(fds[1]);
  net::TcpTransport closed(-1);
  EXPECT_FALSE(closed.SetRecvTimeout(0).ok());
}

// ---------------------------------------------------------------------
// Client retry discipline over a live server.

TEST_F(NetServerTest, RetryBudgetNeverExceedsDeadline) {
  StartServer();
  net::ClientOptions copts;
  copts.deadline_ms = 300;
  copts.retry.max_attempts = 50;  // budget, not attempts, must stop us
  copts.retry.initial_backoff_ms = 5;
  auto conn = Connection::Remote("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(conn.ok());
  server_->Stop();  // every retry now fails to reconnect

  auto t0 = std::chrono::steady_clock::now();
  auto rs = conn->Execute("retrieve (k = count(NOTE.name))");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rs.status().error_code(), ErrorCode::DEADLINE_EXCEEDED);
  // The loop may start one last attempt just inside the budget, but it
  // never *sleeps* past it; connect-refused attempts are instant, so a
  // modest slack proves the bound.
  EXPECT_LE(elapsed, 300 + 700);
}

TEST_F(NetServerTest, AttemptsExhaustionIsUnavailable) {
  StartServer();
  net::ClientOptions copts;
  copts.retry.max_attempts = 3;
  copts.retry.initial_backoff_ms = 1;
  copts.retry.max_backoff_ms = 5;
  auto conn = Connection::Remote("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(conn.ok());
  server_->Stop();  // unlimited budget: attempts run out first
  auto rs = conn->Execute("retrieve (k = count(NOTE.name))");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(rs.status().error_code(), ErrorCode::UNAVAILABLE);
}

TEST_F(NetServerTest, IdempotentReadsRetryButMutationsDoNot) {
  StartServer();
  obs::Counter* retries = obs::Registry::Global()->GetCounter(
      "mdm_net_client_retries_total", "");

  // The factory wires a fault-injecting transport around each dial and
  // parks a pointer so the test can arm faults after the handshake.
  net::FaultInjectingTransport* current = nullptr;
  net::ClientOptions copts;
  copts.retry.max_attempts = 3;
  copts.retry.initial_backoff_ms = 1;
  copts.retry.max_backoff_ms = 5;
  copts.transport_factory =
      [&current](const std::string& host, uint16_t port,
                 uint32_t timeout_ms)
      -> Result<std::unique_ptr<net::Transport>> {
    auto base = net::DialTcpTransport(host, port, timeout_ms);
    if (!base.ok()) return base.status();
    auto faulty = std::make_unique<net::FaultInjectingTransport>(
        std::move(*base), net::FaultPlan{});
    current = faulty.get();
    return std::unique_ptr<net::Transport>(std::move(faulty));
  };

  {  // A read heals through a one-shot disconnect.
    auto conn = Connection::Remote("127.0.0.1", server_->port(), copts);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    ASSERT_NE(current, nullptr);
    uint64_t before = retries->value();
    current->FailAtOp(current->ops() + 1, FaultKind::kDisconnect);
    auto rs = conn->Execute("retrieve (k = count(NOTE.name))");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->At(0, 0).AsInt(), kNotes);
    EXPECT_GE(retries->value() - before, 1u);
  }
  {  // The same fault on a mutation surfaces UNAVAILABLE, no retry.
    auto conn = Connection::Remote("127.0.0.1", server_->port(), copts);
    ASSERT_TRUE(conn.ok());
    uint64_t before = retries->value();
    current->FailAtOp(current->ops() + 1, FaultKind::kDisconnect);
    auto rs = conn->Execute("append to NOTE (name = 9999)");
    ASSERT_FALSE(rs.ok());
    EXPECT_EQ(rs.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(retries->value(), before);  // never retried
    // The database was not double-appended by any hidden replay: the
    // append died in the client's send, so the count is unchanged.
    auto check = Connection::Remote("127.0.0.1", server_->port());
    ASSERT_TRUE(check.ok());
    auto count = check->Execute("retrieve (k = count(NOTE.name))");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->At(0, 0).AsInt(), kNotes);
  }
}

// ---------------------------------------------------------------------
// Server self-protection.

TEST_F(NetServerTest, SigpipeSafeWhenClientVanishesMidResultSet) {
  // The client walks away mid-ResultSet; the server's writes to the
  // dead socket must fail with a status, not raise SIGPIPE (which would
  // kill this whole test process — server and client share it here).
  net::ServerOptions opts;
  opts.rows_per_page = 1;  // 200 pages: the disconnect lands mid-stream
  StartServer(opts);
  for (int round = 0; round < 3; ++round) {
    auto fd = net::DialTcp("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(fd.ok());
    auto bytes = net::EncodeFrame(net::EncodeExecuteRequest(
        {"range of n is NOTE\nretrieve (n.name)", 0}));
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t w = ::send(*fd, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      ASSERT_GT(w, 0);
      sent += static_cast<size_t>(w);
    }
    // Read one page so the server is committed to streaming, then bail.
    bool fatal = false;
    auto first = net::ReadFrame(*fd, net::kDefaultMaxFrameBytes, &fatal);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ::close(*fd);
  }
  // Give the connection threads a moment to hit the dead sockets.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Alive and serving: the writes EPIPEd quietly.
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto rs = conn->Execute("retrieve (k = count(NOTE.name))");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->At(0, 0).AsInt(), kNotes);
}

TEST_F(NetServerTest, HandshakeTimeoutDropsSilentConnections) {
  net::ServerOptions opts;
  opts.handshake_timeout_ms = 150;
  StartServer(opts);
  obs::Counter* timeouts = obs::Registry::Global()->GetCounter(
      "mdm_net_handshake_timeouts_total", "");
  uint64_t before = timeouts->value();
  // Connect and say nothing — a slow-loris opening move.
  auto fd = net::DialTcp("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(fd.ok());
  // The server hangs up on us within the allowance (plus poll slack).
  uint8_t byte = 0;
  struct timeval tv = {3, 0};
  ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ssize_t n = ::recv(*fd, &byte, 1, 0);
  EXPECT_LE(n, 0);  // EOF (0) or reset; never a payload
  ::close(*fd);
  for (int i = 0; i < 100 && timeouts->value() == before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(timeouts->value(), before);
  // A well-behaved client is unaffected.
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  EXPECT_TRUE(conn->Ping().ok());
}

TEST_F(NetServerTest, IdleReaperFreesAbandonedConnections) {
  net::ServerOptions opts;
  opts.idle_timeout_ms = 150;
  StartServer(opts);
  obs::Counter* reaped = obs::Registry::Global()->GetCounter(
      "mdm_net_reaped_idle_total", "");
  uint64_t before = reaped->value();
  net::ClientOptions copts;
  copts.retry = net::RetryPolicy::None();
  auto conn =
      Connection::Remote("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(conn.ok());  // the handshake counts as traffic
  for (int i = 0; i < 200 && reaped->value() == before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(reaped->value(), before);
  for (int i = 0; i < 100 && server_->active_connections() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server_->active_connections(), 0u);  // the slot was freed
  // The reaped client sees a clean transport failure on next use.
  auto rs = conn->Execute("retrieve (k = count(NOTE.name))");
  EXPECT_FALSE(rs.ok());
}

TEST_F(NetServerTest, LoadSheddingAnswersUnavailableWithHint) {
  net::ServerOptions opts;
  opts.max_active_statements = 1;
  opts.shed_retry_after_ms = 37;
  StartServer(opts);

  // Hammer the single-statement watermark from several no-retry
  // clients; overlapping statements beyond the first get shed.
  constexpr int kThreads = 3;
  std::atomic<int> shed_seen{0};
  std::atomic<int> ok_seen{0};
  std::atomic<uint32_t> hint_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      net::ClientOptions copts;
      copts.retry = net::RetryPolicy::None();
      auto conn =
          Connection::Remote("127.0.0.1", server_->port(), copts);
      if (!conn.ok()) return;
      for (int i = 0; i < 40; ++i) {
        auto rs = conn->Execute(
            "range of a, b is NOTE\n"
            "retrieve (k = count(a.name)) where a.name = b.name");
        if (rs.ok()) {
          ok_seen.fetch_add(1);
        } else if (rs.status().code() == StatusCode::kUnavailable) {
          shed_seen.fetch_add(1);
          hint_seen.store(rs.status().retry_after_ms());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(ok_seen.load(), 0);    // the admitted statements completed
  EXPECT_GT(shed_seen.load(), 0);  // and overload was answered, not queued
  EXPECT_EQ(hint_seen.load(), 37u);
  EXPECT_GT(server_->shed_requests(), 0u);

  // With retries on, the same overload heals transparently.
  net::ClientOptions retrying;
  retrying.retry.max_attempts = 8;
  auto conn = Connection::Remote("127.0.0.1", server_->port(), retrying);
  ASSERT_TRUE(conn.ok());
  auto rs = conn->Execute("retrieve (k = count(NOTE.name))");
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
}

TEST_F(NetServerTest, WriteTimeoutCutsOffSlowConsumers) {
  net::ServerOptions opts;
  opts.write_timeout_ms = 200;
  opts.rows_per_page = 8;
  StartServer(opts);
  obs::Counter* cut = obs::Registry::Global()->GetCounter(
      "mdm_net_write_timeouts_total", "");
  uint64_t before = cut->value();

  // Seed ~64 rows of 4KB strings, then ask for the 64x64 cross product
  // (~32MB) and never read it: the kernel buffers fill and the server's
  // send blocks until SO_SNDTIMEO cuts the connection.
  {
    auto seed = Connection::Remote("127.0.0.1", server_->port());
    ASSERT_TRUE(seed.ok());
    ASSERT_TRUE(
        seed->Execute("define entity LYRIC (text = string)").ok());
    std::string big(4096, 'x');
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(
          seed->Execute("append to LYRIC (text = \"" + big + "\")").ok());
    }
  }
  auto fd = net::DialTcp("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(fd.ok());
  int small = 4096;  // shrink our receive window to fill buffers fast
  ::setsockopt(*fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  auto bytes = net::EncodeFrame(net::EncodeExecuteRequest(
      {"range of a, b is LYRIC\nretrieve (a.text, b.text)", 0}));
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t w = ::send(*fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    ASSERT_GT(w, 0);
    sent += static_cast<size_t>(w);
  }
  // Do not read. The server must cut us off rather than block forever.
  for (int i = 0; i < 500 && cut->value() == before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(cut->value(), before);
  ::close(*fd);
  // The server remains fully available to well-behaved clients.
  auto conn = Connection::Remote("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  EXPECT_TRUE(conn->Execute("retrieve (k = count(NOTE.name))").ok());
}

}  // namespace
}  // namespace mdm
