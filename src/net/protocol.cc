#include "net/protocol.h"

#include "net/transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/strings.h"

namespace mdm::net {

namespace {

// ResultPage flag bits.
constexpr uint8_t kPageFirst = 0x1;
constexpr uint8_t kPageLast = 0x2;

// A frame whose header claims more than this is treated as garbage even
// while discarding (protects the discard loop from a hostile length).
constexpr size_t kDiscardCeilingBytes = 64u << 20;

void PutHeader(ByteWriter* w, uint8_t version, FrameType type,
               uint32_t payload_len, uint32_t crc) {
  w->PutU32(kFrameMagic);
  w->PutU8(version);
  w->PutU8(static_cast<uint8_t>(type));
  w->PutU16(0);  // reserved
  w->PutU32(payload_len);
  w->PutU32(crc);
}

bool VersionSupported(uint8_t version) {
  return version >= kMinProtocolVersion && version <= kProtocolVersion;
}

std::string UnsupportedVersionMessage(uint8_t version) {
  return "unsupported protocol version " + std::to_string(version) +
         " (this side speaks " + std::to_string(kMinProtocolVersion) + ".." +
         std::to_string(kProtocolVersion) + ")";
}

/// Reconstructs a transported Status from its wire bytes. A peer
/// speaking a later minor revision may send a fine code we do not
/// know; the canonical byte still identifies the error class.
Status StatusFromWire(uint8_t canonical, uint8_t fine,
                      uint32_t retry_after_ms, std::string message) {
  StatusCode code = static_cast<StatusCode>(fine);
  if (StatusCodeName(code) == std::string("Unknown")) {
    switch (static_cast<ErrorCode>(canonical)) {
      case ErrorCode::NOT_FOUND: code = StatusCode::kNotFound; break;
      case ErrorCode::INVALID_ARGUMENT:
        code = StatusCode::kInvalidArgument;
        break;
      case ErrorCode::CORRUPTION: code = StatusCode::kCorruption; break;
      case ErrorCode::RESOURCE_EXHAUSTED:
        code = StatusCode::kResourceExhausted;
        break;
      case ErrorCode::DEADLINE_EXCEEDED:
        code = StatusCode::kDeadlineExceeded;
        break;
      case ErrorCode::UNAVAILABLE: code = StatusCode::kUnavailable; break;
      default: code = StatusCode::kInternal; break;
    }
  }
  Status out(code, std::move(message));
  out.set_retry_after_ms(retry_after_ms);
  return out;
}

}  // namespace

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  ByteWriter w;
  PutHeader(&w, frame.version, frame.type,
            static_cast<uint32_t>(frame.payload.size()),
            Crc32(frame.payload.data(), frame.payload.size()));
  w.PutBytes(frame.payload.data(), frame.payload.size());
  return w.Take();
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t size,
                          size_t max_frame_bytes, size_t* consumed) {
  if (size < kFrameHeaderBytes)
    return Corruption("truncated frame: " + std::to_string(size) +
                      " bytes, header needs " +
                      std::to_string(kFrameHeaderBytes));
  ByteReader r(data, size);
  uint32_t magic = 0, payload_len = 0, crc = 0;
  uint8_t version = 0, type = 0;
  uint16_t reserved = 0;
  MDM_RETURN_IF_ERROR(r.GetU32(&magic));
  MDM_RETURN_IF_ERROR(r.GetU8(&version));
  MDM_RETURN_IF_ERROR(r.GetU8(&type));
  MDM_RETURN_IF_ERROR(r.GetU16(&reserved));
  MDM_RETURN_IF_ERROR(r.GetU32(&payload_len));
  MDM_RETURN_IF_ERROR(r.GetU32(&crc));
  if (magic != kFrameMagic) return Corruption("bad frame magic");
  if (!VersionSupported(version))
    return InvalidArgument(UnsupportedVersionMessage(version));
  if (payload_len > max_frame_bytes)
    return ResourceExhausted("frame payload of " +
                             std::to_string(payload_len) +
                             " bytes exceeds the " +
                             std::to_string(max_frame_bytes) + "-byte limit");
  if (size - kFrameHeaderBytes < payload_len)
    return Corruption("truncated frame: payload claims " +
                      std::to_string(payload_len) + " bytes, " +
                      std::to_string(size - kFrameHeaderBytes) + " present");
  const uint8_t* payload = data + kFrameHeaderBytes;
  if (Crc32(payload, payload_len) != crc)
    return Corruption("frame checksum mismatch");
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.version = version;
  frame.payload.assign(payload, payload + payload_len);
  if (consumed != nullptr) *consumed = kFrameHeaderBytes + payload_len;
  return frame;
}

Frame EncodeExecuteRequest(const ExecuteRequest& req) {
  // Payload: u32 deadline_ms, u64 trace_id, u8 flags, string script.
  ByteWriter w;
  w.PutU32(req.deadline_ms);
  w.PutU64(req.trace_id);
  w.PutU8(req.trace_sampled ? 1 : 0);
  w.PutString(req.script);
  Frame f;
  f.type = FrameType::kExecuteRequest;
  f.payload = w.Take();
  return f;
}

Result<ExecuteRequest> DecodeExecuteRequest(const Frame& frame) {
  if (frame.type != FrameType::kExecuteRequest)
    return InvalidArgument("frame is not an ExecuteRequest");
  ByteReader r(frame.payload);
  ExecuteRequest req;
  uint8_t flags = 0;
  MDM_RETURN_IF_ERROR(r.GetU32(&req.deadline_ms));
  MDM_RETURN_IF_ERROR(r.GetU64(&req.trace_id));
  MDM_RETURN_IF_ERROR(r.GetU8(&flags));
  req.trace_sampled = (flags & 0x1) != 0;
  MDM_RETURN_IF_ERROR(r.GetString(&req.script));
  if (!r.AtEnd()) return Corruption("trailing bytes after ExecuteRequest");
  return req;
}

Frame EncodeErrorFrame(const Status& status) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(status.error_code()));
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutU32(status.retry_after_ms());
  w.PutString(status.message());
  Frame f;
  f.type = FrameType::kError;
  f.payload = w.Take();
  return f;
}

Status DecodeErrorFrame(const Frame& frame, Status* out) {
  if (frame.type != FrameType::kError)
    return InvalidArgument("frame is not an error frame");
  ByteReader r(frame.payload);
  uint8_t canonical = 0, fine = 0;
  uint32_t retry_after_ms = 0;
  std::string message;
  MDM_RETURN_IF_ERROR(r.GetU8(&canonical));
  MDM_RETURN_IF_ERROR(r.GetU8(&fine));
  MDM_RETURN_IF_ERROR(r.GetU32(&retry_after_ms));
  MDM_RETURN_IF_ERROR(r.GetString(&message));
  if (!r.AtEnd()) return Corruption("trailing bytes after error frame");
  *out = StatusFromWire(canonical, fine, retry_after_ms, std::move(message));
  return Status::OK();
}

Frame EncodeBatchExecuteRequest(const BatchExecuteRequest& req) {
  // Payload: u32 deadline_ms, u64 trace_id, u8 flags, varint N,
  // N x string scripts. The shared prefix deliberately mirrors an
  // ExecuteRequest so the two request kinds stay diffable on the wire.
  ByteWriter w;
  w.PutU32(req.deadline_ms);
  w.PutU64(req.trace_id);
  w.PutU8(req.trace_sampled ? 1 : 0);
  w.PutVarint(req.scripts.size());
  for (const std::string& s : req.scripts) w.PutString(s);
  Frame f;
  f.type = FrameType::kBatchExecuteRequest;
  f.payload = w.Take();
  return f;
}

Result<BatchExecuteRequest> DecodeBatchExecuteRequest(const Frame& frame) {
  if (frame.type != FrameType::kBatchExecuteRequest)
    return InvalidArgument("frame is not a BatchExecuteRequest");
  ByteReader r(frame.payload);
  BatchExecuteRequest req;
  uint8_t flags = 0;
  uint64_t n = 0;
  MDM_RETURN_IF_ERROR(r.GetU32(&req.deadline_ms));
  MDM_RETURN_IF_ERROR(r.GetU64(&req.trace_id));
  MDM_RETURN_IF_ERROR(r.GetU8(&flags));
  req.trace_sampled = (flags & 0x1) != 0;
  MDM_RETURN_IF_ERROR(r.GetVarint(&n));
  req.scripts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string script;
    MDM_RETURN_IF_ERROR(r.GetString(&script));
    req.scripts.push_back(std::move(script));
  }
  if (!r.AtEnd())
    return Corruption("trailing bytes after BatchExecuteRequest");
  return req;
}

Frame EncodeBatchStatus(const BatchResult& result) {
  // v4 payload: varint submitted, varint attempted, per attempted
  // statement {u8 ok, u64 affected, [error bytes as in kError]},
  // u8 results_follow.
  ByteWriter w;
  w.PutVarint(result.submitted);
  w.PutVarint(result.statements.size());
  for (const BatchStatementOutcome& st : result.statements) {
    w.PutU8(st.status.ok() ? 1 : 0);
    w.PutU64(st.affected);
    if (!st.status.ok()) {
      w.PutU8(static_cast<uint8_t>(st.status.error_code()));
      w.PutU8(static_cast<uint8_t>(st.status.code()));
      w.PutU32(st.status.retry_after_ms());
      w.PutString(st.status.message());
    }
  }
  w.PutU8(result.all_ok() ? 1 : 0);
  Frame f;
  f.type = FrameType::kBatchStatus;
  f.payload = w.Take();
  return f;
}

Status DecodeBatchStatus(const Frame& frame, BatchResult* out,
                         bool* results_follow) {
  if (frame.type != FrameType::kBatchStatus)
    return InvalidArgument("frame is not a BatchStatus");
  ByteReader r(frame.payload);
  uint64_t submitted = 0, attempted = 0;
  MDM_RETURN_IF_ERROR(r.GetVarint(&submitted));
  MDM_RETURN_IF_ERROR(r.GetVarint(&attempted));
  if (attempted > submitted)
    return Corruption("BatchStatus claims more attempted than submitted");
  out->submitted = static_cast<size_t>(submitted);
  out->statements.clear();
  out->statements.reserve(attempted);
  out->last = quel::ResultSet{};
  for (uint64_t i = 0; i < attempted; ++i) {
    uint8_t ok = 0;
    BatchStatementOutcome st;
    MDM_RETURN_IF_ERROR(r.GetU8(&ok));
    MDM_RETURN_IF_ERROR(r.GetU64(&st.affected));
    if (ok == 0) {
      uint8_t canonical = 0, fine = 0;
      uint32_t retry_after_ms = 0;
      std::string message;
      MDM_RETURN_IF_ERROR(r.GetU8(&canonical));
      MDM_RETURN_IF_ERROR(r.GetU8(&fine));
      MDM_RETURN_IF_ERROR(r.GetU32(&retry_after_ms));
      MDM_RETURN_IF_ERROR(r.GetString(&message));
      st.status =
          StatusFromWire(canonical, fine, retry_after_ms, std::move(message));
    }
    out->statements.push_back(std::move(st));
  }
  uint8_t follow = 0;
  MDM_RETURN_IF_ERROR(r.GetU8(&follow));
  if (!r.AtEnd()) return Corruption("trailing bytes after BatchStatus");
  *results_follow = follow != 0;
  return Status::OK();
}

std::vector<Frame> EncodeResultSetPages(const quel::ResultSet& rs,
                                        size_t rows_per_page) {
  if (rows_per_page == 0) rows_per_page = 1;
  std::vector<Frame> pages;
  size_t row = 0;
  do {
    size_t end = std::min(rs.rows.size(), row + rows_per_page);
    uint8_t flags = 0;
    if (row == 0) flags |= kPageFirst;
    if (end == rs.rows.size()) flags |= kPageLast;
    ByteWriter w;
    w.PutU8(flags);
    if (flags & kPageFirst) {
      w.PutVarint(rs.columns.size());
      for (const std::string& c : rs.columns) w.PutString(c);
      w.PutString(rs.explain);
    }
    w.PutVarint(end - row);
    for (; row < end; ++row) {
      const auto& cells = rs.rows[row];
      w.PutVarint(cells.size());
      for (const rel::Value& v : cells) v.Encode(&w);
    }
    if (flags & kPageLast) w.PutU64(rs.affected);
    Frame f;
    f.type = FrameType::kResultPage;
    f.payload = w.Take();
    pages.push_back(std::move(f));
  } while (row < rs.rows.size());
  return pages;
}

Status DecodeResultPage(const Frame& frame, quel::ResultSet* out,
                        bool* done) {
  if (frame.type != FrameType::kResultPage)
    return InvalidArgument("frame is not a result page");
  ByteReader r(frame.payload);
  uint8_t flags = 0;
  MDM_RETURN_IF_ERROR(r.GetU8(&flags));
  if (flags & kPageFirst) {
    uint64_t ncols = 0;
    MDM_RETURN_IF_ERROR(r.GetVarint(&ncols));
    out->columns.clear();
    out->columns.reserve(ncols);
    for (uint64_t i = 0; i < ncols; ++i) {
      std::string col;
      MDM_RETURN_IF_ERROR(r.GetString(&col));
      out->columns.push_back(std::move(col));
    }
    MDM_RETURN_IF_ERROR(r.GetString(&out->explain));
    out->rows.clear();
    out->affected = 0;
  }
  uint64_t nrows = 0;
  MDM_RETURN_IF_ERROR(r.GetVarint(&nrows));
  for (uint64_t i = 0; i < nrows; ++i) {
    uint64_t ncells = 0;
    MDM_RETURN_IF_ERROR(r.GetVarint(&ncells));
    std::vector<rel::Value> cells;
    cells.reserve(ncells);
    for (uint64_t c = 0; c < ncells; ++c) {
      rel::Value v;
      MDM_RETURN_IF_ERROR(rel::Value::Decode(&r, &v));
      cells.push_back(std::move(v));
    }
    out->rows.push_back(std::move(cells));
  }
  if (flags & kPageLast) MDM_RETURN_IF_ERROR(r.GetU64(&out->affected));
  if (!r.AtEnd()) return Corruption("trailing bytes after result page");
  *done = (flags & kPageLast) != 0;
  return Status::OK();
}

namespace {

/// Recv exactly `n` bytes through the transport. `*eof` is set when the
/// peer closed cleanly before the first byte (n stays unread); a close
/// mid-buffer is an error, not EOF. A recv timeout propagates as the
/// transport's DeadlineExceeded — the stream position is unknown, so
/// the caller must treat it as fatal.
Status ReadFully(Transport* t, uint8_t* buf, size_t n, bool* eof) {
  if (eof != nullptr) *eof = false;
  size_t got = 0;
  while (got < n) {
    Result<size_t> r = t->Recv(buf + got, n - got);
    if (!r.ok()) return r.status();
    if (*r == 0) {
      if (got == 0 && eof != nullptr) {
        *eof = true;
        return Unavailable("connection closed by peer");
      }
      return Corruption("connection closed mid-frame (" +
                        std::to_string(got) + "/" + std::to_string(n) +
                        " bytes)");
    }
    got += *r;
  }
  return Status::OK();
}

Status DiscardFully(Transport* t, size_t n) {
  uint8_t sink[4096];
  while (n > 0) {
    size_t chunk = std::min(n, sizeof(sink));
    MDM_RETURN_IF_ERROR(ReadFully(t, sink, chunk, nullptr));
    n -= chunk;
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(Transport* t, const Frame& frame) {
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  return t->Send(bytes.data(), bytes.size());
}

Status WriteFrame(int fd, const Frame& frame) {
  TcpTransport t(fd, /*owns_fd=*/false);
  return WriteFrame(&t, frame);
}

Result<Frame> ReadFrame(int fd, size_t max_frame_bytes, bool* fatal) {
  TcpTransport t(fd, /*owns_fd=*/false);
  return ReadFrame(&t, max_frame_bytes, fatal);
}

Result<Frame> ReadFrame(Transport* t, size_t max_frame_bytes, bool* fatal) {
  *fatal = true;  // default: any early exit kills the stream
  uint8_t header[kFrameHeaderBytes];
  bool eof = false;
  MDM_RETURN_IF_ERROR(ReadFully(t, header, sizeof(header), &eof));
  ByteReader r(header, sizeof(header));
  uint32_t magic = 0, payload_len = 0, crc = 0;
  uint8_t version = 0, type = 0;
  uint16_t reserved = 0;
  (void)r.GetU32(&magic);
  (void)r.GetU8(&version);
  (void)r.GetU8(&type);
  (void)r.GetU16(&reserved);
  (void)r.GetU32(&payload_len);
  (void)r.GetU32(&crc);
  // Bad magic means we lost framing: there is no way to find the next
  // frame boundary, so the connection must go.
  if (magic != kFrameMagic) return Corruption("bad frame magic");
  // From here on the framing is intact — we know where the next frame
  // starts — so protocol-level rejections are recoverable.
  if (payload_len > kDiscardCeilingBytes)
    return Corruption("frame payload of " + std::to_string(payload_len) +
                      " bytes is beyond the discard ceiling");
  if (!VersionSupported(version)) {
    MDM_RETURN_IF_ERROR(DiscardFully(t, payload_len));
    *fatal = false;
    return InvalidArgument(UnsupportedVersionMessage(version));
  }
  if (payload_len > max_frame_bytes) {
    MDM_RETURN_IF_ERROR(DiscardFully(t, payload_len));
    *fatal = false;
    return ResourceExhausted("frame payload of " +
                             std::to_string(payload_len) +
                             " bytes exceeds the " +
                             std::to_string(max_frame_bytes) + "-byte limit");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.version = version;
  frame.payload.resize(payload_len);
  if (payload_len > 0)
    MDM_RETURN_IF_ERROR(ReadFully(t, frame.payload.data(), payload_len,
                                  nullptr));
  if (Crc32(frame.payload.data(), frame.payload.size()) != crc) {
    *fatal = false;
    return Corruption("frame checksum mismatch");
  }
  *fatal = false;
  return frame;
}

bool IsIdempotentScript(const std::string& script) {
  // Conservative word scan: any mutating / DDL keyword anywhere (even
  // inside a string literal) disqualifies the script from transparent
  // retry. False negatives only cost a surfaced error. Keywords are
  // matched in place, case-insensitively, so no request copies its
  // script.
  const std::string_view text = script;
  auto word_char = [&](size_t i) {
    return std::isalnum(static_cast<unsigned char>(text[i])) != 0;
  };
  for (std::string_view kw : {"append", "replace", "delete", "define"}) {
    for (size_t pos = 0; pos + kw.size() <= text.size(); ++pos) {
      if (!EqualsIgnoreCase(text.substr(pos, kw.size()), kw)) continue;
      bool head = pos == 0 || !word_char(pos - 1);
      bool tail = pos + kw.size() == text.size() || !word_char(pos + kw.size());
      if (head && tail) return false;
    }
  }
  return true;
}

}  // namespace mdm::net
