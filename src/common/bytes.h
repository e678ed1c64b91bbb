#ifndef MDM_COMMON_BYTES_H_
#define MDM_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace mdm {

/// Little-endian binary encoding helpers used by the storage layer, the
/// tuple codec, WAL records, and the SMF writer (which is big-endian and
/// has its own helpers in src/midi).
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  /// Unsigned LEB128.
  void PutVarint(uint64_t v);
  /// Length-prefixed (varint) byte string.
  void PutString(const std::string& s);
  void PutBytes(const void* data, size_t n);

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  /// Empties the buffer, keeping its capacity for reuse.
  void Clear() { buf_.clear(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Reader over a byte span; all getters fail with Corruption if the
/// buffer is exhausted.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* v);
  Status GetU16(uint16_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI64(int64_t* v);
  Status GetF64(double* v);
  Status GetVarint(uint64_t* v);
  Status GetString(std::string* s);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t pos() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// CRC32 (IEEE polynomial, reflected) — used for WAL record checksums.
uint32_t Crc32(const void* data, size_t n);

}  // namespace mdm

#endif  // MDM_COMMON_BYTES_H_
