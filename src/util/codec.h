// Fixed-width little-endian field codecs shared by every binary format in
// the repo: the .dmtbin row cache (src/data/dmtbin.cc) and the wire frame
// protocol (src/net/). The repo only targets little-endian hosts (x86-64 /
// AArch64), so the codecs are raw memcpys; the explicit widths keep every
// on-disk and on-wire layout independent of host types.
//
// Two tiers:
//  * PutLE/GetLE — fixed-offset fields inside a preallocated header block
//    (the .dmtbin 64-byte header style).
//  * ByteWriter/ByteReader — sequential append/consume over a growable
//    byte buffer (the wire message payload style). ByteReader never
//    aborts: reading past the end latches ok() == false and returns
//    zeroes, so malformed *network* input degrades into a decode failure
//    instead of a crash (DMT_CHECK is for invariants, not peer input).
#ifndef DMT_UTIL_CODEC_H_
#define DMT_UTIL_CODEC_H_

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <vector>

namespace dmt {

/// Writes `value` at `buf + offset` as its little-endian byte image.
template <typename T>
inline void PutLE(char* buf, size_t offset, T value) {
  std::memcpy(buf + offset, &value, sizeof(T));
}

/// Reads a T from `buf + offset` (little-endian byte image).
template <typename T>
inline T GetLE(const char* buf, size_t offset) {
  T value;
  std::memcpy(&value, buf + offset, sizeof(T));
  return value;
}

/// Sequential little-endian appender over a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    const size_t at = out_->size();
    out_->resize(at + sizeof(T));
    std::memcpy(out_->data() + at, &value, sizeof(T));
  }

  void PutBytes(const void* data, size_t n) {
    const size_t at = out_->size();
    out_->resize(at + n);
    if (n != 0) std::memcpy(out_->data() + at, data, n);
  }

  size_t size() const { return out_->size(); }

 private:
  std::vector<uint8_t>* out_;
};

/// Sequential little-endian consumer with latched bounds checking.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  T Get() {
    T value{};
    if (!TakeInto(&value, sizeof(T))) return T{};
    return value;
  }

  /// Copies `n` raw bytes out; zero-fills (and latches !ok) on overrun.
  bool GetBytes(void* out, size_t n) { return TakeInto(out, n); }

  /// True while every read so far stayed in bounds.
  bool ok() const { return ok_; }
  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  /// True when the payload was consumed exactly and fully.
  bool exhausted() const { return ok_ && pos_ == size_; }

 private:
  // A zero-length read may pass a null `out` (an empty vector's data()),
  // which memset/memcpy must not receive even for n == 0.
  bool TakeInto(void* out, size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      if (n != 0) std::memset(out, 0, n);
      return false;
    }
    if (n != 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dmt

#endif  // DMT_UTIL_CODEC_H_
