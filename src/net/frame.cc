#include "net/frame.h"

#include "util/codec.h"
#include "util/contracts.h"

// Crc32 folds whole 16-byte blocks of a payload of 64 bytes or more with
// carry-less multiplies (PCLMULQDQ) where the CPU has them, selected once
// per process from CPUID, as linalg/kernels.cc selects its AVX2 clones;
// DMT_KERNELS_NO_SIMD_DISPATCH keeps every length on the table loop.
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && \
    !defined(DMT_KERNELS_NO_SIMD_DISPATCH)
#define DMT_CRC_CLMUL_DISPATCH 1
#include <immintrin.h>
#else
#define DMT_CRC_CLMUL_DISPATCH 0
#endif

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

#if DMT_CRC_CLMUL_DISPATCH
// Folds n bytes (n >= 64, a multiple of 16) into the raw CRC register c
// (before the final complement) and returns the raw register: four 128-bit
// lanes fold 64 bytes per step, then reduce to one lane, fold the
// remaining 16-byte blocks, fold 128 -> 64 bits and finish with a Barrett
// reduction. The constants are x^k mod P for the bit-reflected polynomial
// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ", Intel 2009; the same values as zlib's crc32_simd and
// Linux's crc32-pclmul).
#define DMT_CRC_TARGET __attribute__((target("pclmul,sse4.1")))

DMT_CRC_TARGET inline __m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds x forward by the distance k = (k_lo, k_hi) encodes, onto block y.
DMT_CRC_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i y) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       y);
}

DMT_CRC_TARGET uint32_t Crc32Clmul(const uint8_t* data, size_t n,
                                   uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);

  __m128i x1 = _mm_xor_si128(Load16(data),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load16(data + 16);
  __m128i x3 = Load16(data + 32);
  __m128i x4 = Load16(data + 48);
  size_t i = 64;
  for (; i + 64 <= n; i += 64) {
    x1 = Fold(x1, k1k2, Load16(data + i));
    x2 = Fold(x2, k1k2, Load16(data + i + 16));
    x3 = Fold(x3, k1k2, Load16(data + i + 32));
    x4 = Fold(x4, k1k2, Load16(data + i + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; i + 16 <= n; i += 16) x1 = Fold(x1, k3k4, Load16(data + i));

  // 128 -> 64 bits.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool UseClmul() {
  static const bool use =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return use;
}
#endif  // DMT_CRC_CLMUL_DISPATCH

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
#if DMT_CRC_CLMUL_DISPATCH
  if (n >= 64 && UseClmul()) {
    i = n & ~size_t{15};
    c = Crc32Clmul(data, i, c);
  }
#endif
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
