#include "common/bytes.h"

#include <cstring>

namespace mdm {

void ByteWriter::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::PutU32(uint32_t v) {
  uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  PutBytes(b, sizeof(b));
}

void ByteWriter::PutU64(uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  PutBytes(b, sizeof(b));
}

void ByteWriter::PutF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void ByteWriter::PutString(const std::string& s) {
  PutVarint(s.size());
  PutBytes(s.data(), s.size());
}

void ByteWriter::PutBytes(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

Status ByteReader::GetU8(uint8_t* v) {
  if (pos_ + 1 > size_) return Corruption("byte reader exhausted (u8)");
  *v = data_[pos_++];
  return Status::OK();
}

Status ByteReader::GetU16(uint16_t* v) {
  if (pos_ + 2 > size_) return Corruption("byte reader exhausted (u16)");
  *v = static_cast<uint16_t>(data_[pos_]) |
       static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return Status::OK();
}

Status ByteReader::GetU32(uint32_t* v) {
  if (pos_ + 4 > size_) return Corruption("byte reader exhausted (u32)");
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status ByteReader::GetU64(uint64_t* v) {
  if (pos_ + 8 > size_) return Corruption("byte reader exhausted (u64)");
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status ByteReader::GetI64(int64_t* v) {
  uint64_t u;
  MDM_RETURN_IF_ERROR(GetU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status ByteReader::GetF64(double* v) {
  uint64_t bits;
  MDM_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status ByteReader::GetVarint(uint64_t* v) {
  uint64_t out = 0;
  int shift = 0;
  while (true) {
    if (shift > 63) return Corruption("varint too long");
    uint8_t b = 0;
    MDM_RETURN_IF_ERROR(GetU8(&b));
    out |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  *v = out;
  return Status::OK();
}

Status ByteReader::GetString(std::string* s) {
  uint64_t n;
  MDM_RETURN_IF_ERROR(GetVarint(&n));
  if (pos_ + n > size_) return Corruption("byte reader exhausted (string)");
  s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return Status::OK();
}

namespace {

// Table-driven CRC32; table built on first use (function-local static,
// initialization is thread-safe in C++11+).
const uint32_t* Crc32Table() {
  static uint32_t table[256];
  static bool built = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return true;
  }();
  (void)built;
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace mdm
