#ifndef STEDB_STORE_FORMAT_H_
#define STEDB_STORE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "src/common/status.h"

namespace stedb::store {

/// On-disk encoding primitives shared by the snapshot and WAL formats.
///
/// Both files are sequences of fixed-width little-endian integers and raw
/// IEEE-754 doubles, with every variable-length payload guarded by a CRC32.
/// Sections and records are padded so that 8-byte values land on 8-byte
/// file offsets — a reader may mmap a snapshot and interpret the φ/ψ
/// payloads in place without copying.

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) of `n` bytes,
/// optionally chained from a previous value.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Hard ceiling on a persisted embedding dimension, shared by every model
/// parser (binary snapshot, WAL). Keeps a corrupted
/// header field from turning a `dim*dim` allocation into a multi-gigabyte
/// bomb before any truncation/CRC check can fire; paper-scale is d = 100.
constexpr size_t kMaxEmbeddingDim = 4096;

// ---- Encoding (append to a std::string buffer) -------------------------

inline void AppendU32(std::string& out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, 4);
}

inline void AppendU64(std::string& out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, 8);
}

inline void AppendI64(std::string& out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

inline void AppendDouble(std::string& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

/// Pads `out` with zero bytes up to the next multiple of 8.
inline void PadTo8(std::string& out) {
  while (out.size() % 8 != 0) out.push_back('\0');
}

// ---- Decoding ----------------------------------------------------------

/// Bounds-checked cursor over an in-memory byte buffer. Every Read*
/// returns false (without advancing) when fewer bytes remain than
/// requested, so parsers degrade to clean errors on truncated input.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const std::string& buf)
      : ByteReader(buf.data(), buf.size()) {}

  size_t offset() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  const char* cursor() const { return data_ + pos_; }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    *v = r;
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    *v = r;
    pos_ += 8;
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool ReadDouble(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  bool SkipTo8() { return pos_ % 8 == 0 ? true : Skip(8 - pos_ % 8); }

 private:
  const char* data_;
  size_t size_;
  size_t pos_;
};

// ---- File I/O ----------------------------------------------------------

/// Writes `contents` to `path` atomically: the bytes go to a sibling
/// temporary file which is fsync'd and then renamed over `path`, so a
/// crash at any point leaves either the old file or the new one — never a
/// truncated hybrid. The containing directory is fsync'd best-effort so
/// the rename itself is durable.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Reads the whole file into `out`; IOError when unreadable.
Status ReadFileToString(const std::string& path, std::string* out);

/// Reads the bytes from `offset` to end-of-file into `out` (empty when the
/// file is no longer than `offset`). The WAL-tailing read: a serving
/// replica re-reads only the journal bytes it has not consumed yet.
Status ReadFileFrom(const std::string& path, size_t offset, std::string* out);

}  // namespace stedb::store

#endif  // STEDB_STORE_FORMAT_H_
