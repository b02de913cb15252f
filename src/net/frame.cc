#include "net/frame.h"

#include "util/codec.h"
#include "util/contracts.h"

namespace dmt {
namespace net {
namespace {

constexpr char kMagic[4] = {'D', 'M', 'T', 'W'};

// Slice-by-8 CRC-32 tables, built once per process (deterministic: they
// depend only on the polynomial). t[0] is the bytewise table, and t[k] is
// t[0] followed by k zero bytes, so one step folds 8 bytes with one
// lookup per byte.
struct CrcTables {
  uint32_t t[8][256];

  CrcTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
  }
};

const CrcTables& Crc() {
  static const CrcTables tables;
  return tables;
}

}  // namespace

bool IsKnownMsgType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kHello) &&
         t <= static_cast<uint8_t>(MsgType::kShutdown);
}

uint32_t Crc32(const uint8_t* data, size_t n) {
  const auto& t = Crc().t;
  const char* bytes = reinterpret_cast<const char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint32_t lo = c ^ GetLE<uint32_t>(bytes, i);
    const uint32_t hi = GetLE<uint32_t>(bytes, i + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < n; ++i) c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void AppendFrame(MsgType type, const uint8_t* payload, size_t n,
                 std::vector<uint8_t>* out) {
  char header[kFrameHeaderBytes] = {};
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutLE<uint8_t>(header, 4, kFrameVersion);
  PutLE<uint8_t>(header, 5, static_cast<uint8_t>(type));
  PutLE<uint32_t>(header, 8, static_cast<uint32_t>(n));
  PutLE<uint32_t>(header, 12, Crc32(payload, n));
  const size_t at = out->size();
  out->resize(at + kFrameHeaderBytes + n);
  std::memcpy(out->data() + at, header, kFrameHeaderBytes);
  if (n != 0) std::memcpy(out->data() + at + kFrameHeaderBytes, payload, n);
}

DMT_UNTRUSTED_INPUT
bool DecodeFrameHeader(const uint8_t* header, FrameHeader* out,
                       std::string* error) {
  const char* h = reinterpret_cast<const char*>(header);
  if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
    if (error != nullptr) *error = "frame: bad magic";
    return false;
  }
  const uint8_t version = GetLE<uint8_t>(h, 4);
  if (version != kFrameVersion) {
    if (error != nullptr) {
      *error = "frame: unsupported version " + std::to_string(version);
    }
    return false;
  }
  const uint8_t type = GetLE<uint8_t>(h, 5);
  if (!IsKnownMsgType(type)) {
    if (error != nullptr) {
      *error = "frame: unknown message type " + std::to_string(type);
    }
    return false;
  }
  const uint32_t len = GetLE<uint32_t>(h, 8);
  if (len > kMaxFramePayload) {
    if (error != nullptr) {
      *error = "frame: payload length " + std::to_string(len) +
               " exceeds the " + std::to_string(kMaxFramePayload) +
               "-byte bound";
    }
    return false;
  }
  out->type = static_cast<MsgType>(type);
  out->payload_len = len;
  out->crc = GetLE<uint32_t>(h, 12);
  return true;
}

DMT_UNTRUSTED_INPUT
bool CheckFrameCrc(const FrameHeader& header, const uint8_t* payload,
                   std::string* error) {
  const uint32_t crc = Crc32(payload, header.payload_len);
  if (crc != header.crc) {
    if (error != nullptr) *error = "frame: payload CRC mismatch";
    return false;
  }
  return true;
}

}  // namespace net
}  // namespace dmt
