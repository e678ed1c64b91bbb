#ifndef MDM_NET_PROTOCOL_H_
#define MDM_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/exec_options.h"
#include "quel/quel.h"

namespace mdm::net {

/// The mdmd wire protocol: length-prefixed binary frames over a byte
/// stream (TCP). Full layout, error-code table and versioning rules in
/// docs/PROTOCOL.md.
///
/// Frame = 16-byte header + payload:
///
///   u32  magic        "MDMP" (0x504D444D little-endian)
///   u8   version      kMinProtocolVersion..kProtocolVersion
///   u8   type         FrameType
///   u16  reserved     0
///   u32  payload_len  bytes following the header
///   u32  crc32        CRC32 (IEEE) of the payload bytes
///
/// All integers little-endian (the ByteWriter/ByteReader convention
/// shared with the storage layer). Strings are varint-length-prefixed.
///
/// There is one wire grammar: every client is built from this tree, so
/// both sides stamp and accept v4 only. A frame stamped with any other
/// version is answered with INVALID_ARGUMENT and the connection keeps
/// serving (its framing is intact).

inline constexpr uint8_t kProtocolVersion = 4;
/// Oldest version this build decodes (docs/PROTOCOL.md "Versioning"
/// has the revision history).
inline constexpr uint8_t kMinProtocolVersion = 4;
inline constexpr uint32_t kFrameMagic = 0x504D444Du;  // "MDMP" on the wire
inline constexpr size_t kFrameHeaderBytes = 16;
/// Default cap on a single frame's payload. Oversized frames are
/// rejected with RESOURCE_EXHAUSTED without buffering the payload.
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;

enum class FrameType : uint8_t {
  kExecuteRequest = 1,       // client -> server: one DDL/QUEL script
  kResultPage = 2,           // server -> client: one page of a ResultSet
  kError = 3,                // server -> client: Status (code + message)
  kPing = 4,                 // either direction: liveness / handshake
  kPong = 5,                 // reply to kPing
  kBatchExecuteRequest = 6,  // client -> server (v4): N scripts, one trip
  kBatchStatus = 7,          // server -> client (v4): per-statement status
};

struct Frame {
  FrameType type = FrameType::kPing;
  /// Stamped into the header by EncodeFrame; set from the header by
  /// DecodeFrame/ReadFrame, which reject unsupported versions.
  uint8_t version = kProtocolVersion;
  std::vector<uint8_t> payload;
};

/// Serializes header + payload, ready to write to the stream.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// Decodes exactly one frame from `data`. Fails with Corruption on bad
/// magic / bad checksum / truncation, InvalidArgument on an unsupported
/// version, ResourceExhausted when payload_len exceeds
/// `max_frame_bytes`. `consumed`, when non-null, receives the number of
/// bytes the frame occupied (valid only on success).
Result<Frame> DecodeFrame(const uint8_t* data, size_t size,
                          size_t max_frame_bytes = kDefaultMaxFrameBytes,
                          size_t* consumed = nullptr);

/// One Execute round: the client sends the script text (DDL or QUEL);
/// `deadline_ms` bounds server-side execution (0 = server default).
///
/// v3 adds end-to-end trace context: a client-generated 8-byte
/// `trace_id` (seeded PRNG, never wall-clock — see ClientOptions) plus
/// a sampling flag. When `trace_sampled` is set the server records the
/// request's span tree into its trace ring (obs/trace.h), retrievable
/// as `GET /traces/<id>` from the admin endpoint. A v2 frame decodes
/// with trace_id = 0 / unsampled.
struct ExecuteRequest {
  std::string script;
  uint32_t deadline_ms = 0;
  uint64_t trace_id = 0;
  bool trace_sampled = false;
};

Frame EncodeExecuteRequest(const ExecuteRequest& req);
Result<ExecuteRequest> DecodeExecuteRequest(const Frame& frame);

/// One batched round (v4): N scripts executed back-to-back under a
/// single exclusive database latch acquisition, committed as ONE WAL
/// transaction with one group-committed fsync, answered in one network
/// round trip. The reply is a single kBatchStatus frame (per-statement
/// outcome), followed — only when every statement succeeded — by
/// kResultPage frames carrying the LAST statement's ResultSet.
/// `deadline_ms` and the trace fields mean exactly what they do on
/// ExecuteRequest; the whole batch is one trace. v2/v3 peers never see
/// these frames: a client only sends them stamped v4, and the server
/// rejects a batch frame claiming an older version.
struct BatchExecuteRequest {
  std::vector<std::string> scripts;
  uint32_t deadline_ms = 0;
  uint64_t trace_id = 0;
  bool trace_sampled = false;
};

Frame EncodeBatchExecuteRequest(const BatchExecuteRequest& req);
Result<BatchExecuteRequest> DecodeBatchExecuteRequest(const Frame& frame);

/// Serializes the per-statement outcomes of `result` (statuses travel
/// losslessly, like error frames) plus a results-follow flag that is
/// set iff the batch fully succeeded — the server then streams the
/// last statement's ResultSet as ordinary kResultPage frames.
Frame EncodeBatchStatus(const BatchResult& result);
/// Recovers submitted/statements into `*out` (last is left empty; the
/// caller folds any following result pages into it). `*results_follow`
/// mirrors the encoded flag.
Status DecodeBatchStatus(const Frame& frame, BatchResult* out,
                         bool* results_follow);

/// Error frames carry the Status losslessly: canonical ErrorCode byte
/// (what remote callers branch on), fine StatusCode byte, the
/// retry_after_ms backoff hint (v2; 0 = no hint), message.
Frame EncodeErrorFrame(const Status& status);
/// Recovers the transported Status into `*out` (always non-OK on a
/// well-formed error frame); the return value reports decoding itself
/// (Corruption if the payload is malformed).
Status DecodeErrorFrame(const Frame& frame, Status* out);

/// Splits a ResultSet into one or more kResultPage frames of at most
/// `rows_per_page` rows. The first page carries the column labels and
/// the explain text; the last page carries the affected count. A
/// ResultSet always encodes to at least one page (first == last for
/// small results).
std::vector<Frame> EncodeResultSetPages(const quel::ResultSet& rs,
                                        size_t rows_per_page);

/// Folds one kResultPage frame into `*out` (columns/explain from the
/// first page, rows appended in order, affected from the last). Sets
/// `*done` when the page was marked last.
Status DecodeResultPage(const Frame& frame, quel::ResultSet* out,
                        bool* done);

class Transport;

/// Blocking framed I/O over a Transport (net/transport.h). WriteFrame
/// loops until the whole frame is on the wire; ReadFrame reassembles
/// one frame. The int-fd overloads wrap the fd in a non-owning
/// TcpTransport — kept for raw-socket tests and one-shot writes.
///
/// ReadFrame distinguishes two failure classes via `*fatal`:
///  * fatal (stream unusable): peer closed, short read mid-frame, bad
///    magic, a recv timeout mid-frame — the caller must drop the
///    connection;
///  * recoverable (framing intact): unsupported version, oversized
///    payload (the payload is read and discarded), bad checksum — the
///    caller may answer with a typed error frame and keep reading.
Status WriteFrame(Transport* t, const Frame& frame);
Result<Frame> ReadFrame(Transport* t, size_t max_frame_bytes, bool* fatal);
Status WriteFrame(int fd, const Frame& frame);
Result<Frame> ReadFrame(int fd, size_t max_frame_bytes, bool* fatal);

/// True when `script` contains only read statements (range / retrieve /
/// explain): safe for the client to retry transparently after a lost
/// connection. Any append/replace/delete/define makes it false.
bool IsIdempotentScript(const std::string& script);

}  // namespace mdm::net

#endif  // MDM_NET_PROTOCOL_H_
