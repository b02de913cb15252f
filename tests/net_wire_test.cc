// Wire-format tests: golden checked-in frame bytes (the format contract —
// a change that shifts any byte is a protocol break and must bump the
// frame version), encode/decode round-trips for every message payload,
// and the rejection paths (bad magic/version/type, CRC, truncation,
// oversize). See docs/PROTOCOL.md for the layouts these pin.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/messages.h"
#include "util/rng.h"

namespace dmt {
namespace net {
namespace {

std::vector<uint8_t> Frame(MsgType type, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  AppendFrame(type, payload.data(), payload.size(), &out);
  return out;
}

// ---------------------------------------------------------------------------
// Golden fixtures. Byte-for-byte images of real frames, checked in so an
// accidental encoding change (field order, width, endianness, CRC poly)
// fails loudly instead of silently forking the wire format.

TEST(WireGoldenTest, WindowEndFrameBytes) {
  std::vector<uint8_t> payload;
  EncodeWindowEnd({7}, &payload);
  const std::vector<uint8_t> frame = Frame(MsgType::kWindowEnd, payload);
  const uint8_t golden[] = {
      0x44, 0x4d, 0x54, 0x57, 0x01, 0x02, 0x00, 0x00,  // "DMTW" v1 type=2
      0x08, 0x00, 0x00, 0x00, 0x70, 0xd6, 0xe7, 0x6f,  // len=8, crc
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // window=7 (u64 LE)
  };
  ASSERT_EQ(frame.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(frame.data(), golden, sizeof(golden)), 0);
}

TEST(WireGoldenTest, BroadcastFrameBytes) {
  BroadcastMsg m;
  m.window = 3;
  m.value = 2.5;
  std::vector<uint8_t> payload;
  EncodeBroadcast(m, &payload);
  const std::vector<uint8_t> frame = Frame(MsgType::kBroadcast, payload);
  const uint8_t golden[] = {
      0x44, 0x4d, 0x54, 0x57, 0x01, 0x03, 0x00, 0x00,
      0x10, 0x00, 0x00, 0x00, 0x33, 0x7b, 0xc3, 0xd7,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // window=3
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,  // 2.5 (IEEE-754 LE)
  };
  ASSERT_EQ(frame.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(frame.data(), golden, sizeof(golden)), 0);
}

TEST(WireGoldenTest, HHFlushFrameBytes) {
  HHFlushMsg m;
  m.weight = 12.0;
  m.k = 2;
  m.total_weight = 12.0;
  m.total_decrement = 1.5;
  m.counters = {{5, 8.0}, {9, 2.5}};
  std::vector<uint8_t> payload;
  EncodeHHFlush(m, &payload);
  const std::vector<uint8_t> frame = Frame(MsgType::kHHFlush, payload);
  const uint8_t golden[] = {
      0x44, 0x4d, 0x54, 0x57, 0x01, 0x04, 0x00, 0x00,
      0x40, 0x00, 0x00, 0x00, 0x5a, 0x16, 0x72, 0x05,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x40,  // weight=12.0
      0x02, 0x00, 0x00, 0x00,                          // k=2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x40,  // total_weight=12.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // total_decrement=1.5
      0x02, 0x00, 0x00, 0x00,                          // counter count=2
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // element 5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x40,  // weight 8.0
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // element 9
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,  // weight 2.5
  };
  ASSERT_EQ(frame.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(frame.data(), golden, sizeof(golden)), 0);
}

TEST(WireGoldenTest, MatrixDirectionFrameBytes) {
  MatrixDirectionMsg m;
  m.lambda = 4.0;
  m.dir = {0.5, -0.5};
  std::vector<uint8_t> payload;
  EncodeMatrixDirection(m, &payload);
  const std::vector<uint8_t> frame = Frame(MsgType::kMatrixDirection, payload);
  const uint8_t golden[] = {
      0x44, 0x4d, 0x54, 0x57, 0x01, 0x06, 0x00, 0x00,
      0x1c, 0x00, 0x00, 0x00, 0x56, 0x59, 0x62, 0xd4,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40,  // lambda=4.0
      0x02, 0x00, 0x00, 0x00,                          // dim=2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,  // 0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf,  // -0.5
  };
  ASSERT_EQ(frame.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(frame.data(), golden, sizeof(golden)), 0);
}

// ---------------------------------------------------------------------------
// Round-trips: decode(encode(m)) must reproduce every field bit-for-bit
// (doubles compared via their byte images — the equivalence guarantee).

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(WireRoundTripTest, Hello) {
  HelloMsg m;
  m.site = 3;
  m.num_sites = 9;
  m.num_windows = 1234567;
  m.protocol = "mp2";
  std::vector<uint8_t> payload;
  EncodeHello(m, &payload);
  HelloMsg back;
  ASSERT_TRUE(DecodeHello(payload.data(), payload.size(), &back));
  EXPECT_EQ(back.site, m.site);
  EXPECT_EQ(back.num_sites, m.num_sites);
  EXPECT_EQ(back.num_windows, m.num_windows);
  EXPECT_EQ(back.protocol, m.protocol);
}

TEST(WireRoundTripTest, WindowEndAndSiteDone) {
  std::vector<uint8_t> payload;
  EncodeWindowEnd({~uint64_t{0}}, &payload);
  WindowEndMsg we;
  ASSERT_TRUE(DecodeWindowEnd(payload.data(), payload.size(), &we));
  EXPECT_EQ(we.window, ~uint64_t{0});

  payload.clear();
  EncodeSiteDone({42}, &payload);
  SiteDoneMsg sd;
  ASSERT_TRUE(DecodeSiteDone(payload.data(), payload.size(), &sd));
  EXPECT_EQ(sd.windows, 42u);
}

TEST(WireRoundTripTest, BroadcastPreservesDoubleBits) {
  // Values picked to stress the encoding: denormal, negative zero, an
  // irrational with a full mantissa, and a huge magnitude.
  for (const double v : {5e-324, -0.0, 1.0 / 3.0, -1.7e308, 2.5}) {
    BroadcastMsg m;
    m.window = 11;
    m.value = v;
    std::vector<uint8_t> payload;
    EncodeBroadcast(m, &payload);
    BroadcastMsg back;
    ASSERT_TRUE(DecodeBroadcast(payload.data(), payload.size(), &back));
    EXPECT_EQ(back.window, 11u);
    EXPECT_TRUE(SameBits(back.value, v)) << v;
  }
}

TEST(WireRoundTripTest, HHFlush) {
  HHFlushMsg m;
  m.weight = 123.25;
  m.k = 17;
  m.total_weight = 1e6 + 1.0 / 3.0;
  m.total_decrement = 5e-324;
  for (uint64_t e = 0; e < 17; ++e) {
    m.counters.emplace_back(e * 1000003, 1.0 / static_cast<double>(e + 1));
  }
  std::vector<uint8_t> payload;
  EncodeHHFlush(m, &payload);
  HHFlushMsg back;
  ASSERT_TRUE(DecodeHHFlush(payload.data(), payload.size(), &back));
  EXPECT_TRUE(SameBits(back.weight, m.weight));
  EXPECT_EQ(back.k, m.k);
  EXPECT_TRUE(SameBits(back.total_weight, m.total_weight));
  EXPECT_TRUE(SameBits(back.total_decrement, m.total_decrement));
  ASSERT_EQ(back.counters.size(), m.counters.size());
  for (size_t i = 0; i < m.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].first, m.counters[i].first);
    EXPECT_TRUE(SameBits(back.counters[i].second, m.counters[i].second));
  }
}

TEST(WireRoundTripTest, MatrixScalarAndDirection) {
  std::vector<uint8_t> payload;
  EncodeMatrixScalar({1.0 / 7.0}, &payload);
  MatrixScalarMsg s;
  ASSERT_TRUE(DecodeMatrixScalar(payload.data(), payload.size(), &s));
  EXPECT_TRUE(SameBits(s.value, 1.0 / 7.0));

  MatrixDirectionMsg m;
  m.lambda = 3.75;
  for (int i = 0; i < 24; ++i) m.dir.push_back(std::sin(i + 1.0));
  payload.clear();
  EncodeMatrixDirection(m, &payload);
  MatrixDirectionMsg back;
  ASSERT_TRUE(DecodeMatrixDirection(payload.data(), payload.size(), &back));
  EXPECT_TRUE(SameBits(back.lambda, m.lambda));
  ASSERT_EQ(back.dir.size(), m.dir.size());
  for (size_t i = 0; i < m.dir.size(); ++i) {
    EXPECT_TRUE(SameBits(back.dir[i], m.dir[i])) << i;
  }
}

TEST(WireRoundTripTest, FdSketch) {
  FdSketchMsg m;
  m.ell = 8;
  m.dim = 5;
  m.stream_sq_frob = 321.5;
  m.total_shrinkage = 0.125;
  m.rows = linalg::Matrix(3, 5);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      m.rows(i, j) = static_cast<double>(i) - 0.25 * static_cast<double>(j);
    }
  }
  std::vector<uint8_t> payload;
  EncodeFdSketch(m, &payload);
  FdSketchMsg back;
  ASSERT_TRUE(DecodeFdSketch(payload.data(), payload.size(), &back));
  EXPECT_EQ(back.ell, m.ell);
  EXPECT_EQ(back.dim, m.dim);
  EXPECT_TRUE(SameBits(back.stream_sq_frob, m.stream_sq_frob));
  EXPECT_TRUE(SameBits(back.total_shrinkage, m.total_shrinkage));
  ASSERT_EQ(back.rows.rows(), m.rows.rows());
  ASSERT_EQ(back.rows.cols(), m.rows.cols());
  EXPECT_EQ(std::memcmp(back.rows.Row(0), m.rows.Row(0),
                        3 * 5 * sizeof(double)),
            0);
}

TEST(WireRoundTripTest, FdSketchDegenerateEmpty) {
  FdSketchMsg m;  // rows==0, cols==0: a sketch that never saw a row
  std::vector<uint8_t> payload;
  EncodeFdSketch(m, &payload);
  FdSketchMsg back;
  ASSERT_TRUE(DecodeFdSketch(payload.data(), payload.size(), &back));
  EXPECT_TRUE(back.rows.empty());
}

// Every decoder must reject every strict prefix of a valid payload —
// truncation never parses, and (because count fields are validated
// against remaining bytes) never over-allocates.
TEST(WireRoundTripTest, EveryPrefixOfEveryPayloadIsRejected) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> payloads;
  {
    std::vector<uint8_t> p;
    HelloMsg h;
    h.protocol = "p1";
    EncodeHello(h, &p);
    payloads.emplace_back("hello", p);
  }
  {
    std::vector<uint8_t> p;
    EncodeWindowEnd({1}, &p);
    payloads.emplace_back("window_end", p);
  }
  {
    std::vector<uint8_t> p;
    EncodeBroadcast({1, 2.0}, &p);
    payloads.emplace_back("broadcast", p);
  }
  {
    std::vector<uint8_t> p;
    HHFlushMsg m;
    m.k = 2;
    m.counters = {{1, 1.0}};
    EncodeHHFlush(m, &p);
    payloads.emplace_back("hh_flush", p);
  }
  {
    std::vector<uint8_t> p;
    MatrixDirectionMsg m;
    m.dir = {1.0, 2.0};
    EncodeMatrixDirection(m, &p);
    payloads.emplace_back("matrix_direction", p);
  }
  {
    std::vector<uint8_t> p;
    FdSketchMsg m;
    m.rows = linalg::Matrix(1, 2);
    EncodeFdSketch(m, &p);
    payloads.emplace_back("fd_sketch", p);
  }
  for (const auto& [name, p] : payloads) {
    for (size_t n = 0; n < p.size(); ++n) {
      HelloMsg hello;
      WindowEndMsg we;
      BroadcastMsg bc;
      HHFlushMsg hh;
      MatrixDirectionMsg md;
      FdSketchMsg fd;
      bool accepted = false;
      if (name == "hello") accepted = DecodeHello(p.data(), n, &hello);
      if (name == "window_end") accepted = DecodeWindowEnd(p.data(), n, &we);
      if (name == "broadcast") accepted = DecodeBroadcast(p.data(), n, &bc);
      if (name == "hh_flush") accepted = DecodeHHFlush(p.data(), n, &hh);
      if (name == "matrix_direction") {
        accepted = DecodeMatrixDirection(p.data(), n, &md);
      }
      if (name == "fd_sketch") accepted = DecodeFdSketch(p.data(), n, &fd);
      EXPECT_FALSE(accepted) << name << " accepted prefix of " << n
                             << " of " << p.size() << " bytes";
    }
  }
}

// ---------------------------------------------------------------------------
// Frame header validation: every corruption is a decode error, not an
// abort (the bytes come off a socket).

std::vector<uint8_t> ValidHeader() {
  std::vector<uint8_t> payload;
  EncodeWindowEnd({1}, &payload);
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kWindowEnd, payload.data(), payload.size(), &frame);
  frame.resize(kFrameHeaderBytes);
  return frame;
}

TEST(FrameHeaderTest, AcceptsValidHeader) {
  const std::vector<uint8_t> h = ValidHeader();
  FrameHeader out;
  std::string error;
  ASSERT_TRUE(DecodeFrameHeader(h.data(), &out, &error)) << error;
  EXPECT_EQ(out.type, MsgType::kWindowEnd);
  EXPECT_EQ(out.payload_len, 8u);
}

TEST(FrameHeaderTest, RejectsBadMagic) {
  std::vector<uint8_t> h = ValidHeader();
  h[0] = 'X';
  FrameHeader out;
  std::string error;
  EXPECT_FALSE(DecodeFrameHeader(h.data(), &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(FrameHeaderTest, RejectsWrongVersion) {
  std::vector<uint8_t> h = ValidHeader();
  h[4] = kFrameVersion + 1;
  FrameHeader out;
  std::string error;
  EXPECT_FALSE(DecodeFrameHeader(h.data(), &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(FrameHeaderTest, RejectsUnknownType) {
  std::vector<uint8_t> h = ValidHeader();
  h[5] = 200;
  FrameHeader out;
  std::string error;
  EXPECT_FALSE(DecodeFrameHeader(h.data(), &out, &error));
  EXPECT_NE(error.find("type"), std::string::npos);
}

TEST(FrameHeaderTest, RejectsOversizePayloadLength) {
  std::vector<uint8_t> h = ValidHeader();
  // Length field at offset 8: set to kMaxFramePayload + 1.
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(h.data() + 8, &huge, sizeof(huge));
  FrameHeader out;
  std::string error;
  EXPECT_FALSE(DecodeFrameHeader(h.data(), &out, &error));
}

TEST(FrameHeaderTest, CrcCatchesPayloadCorruption) {
  std::vector<uint8_t> payload;
  EncodeBroadcast({5, 1.25}, &payload);
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kBroadcast, payload.data(), payload.size(), &frame);
  FrameHeader header;
  std::string error;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &header, &error)) << error;
  // Pristine payload passes.
  EXPECT_TRUE(CheckFrameCrc(header, frame.data() + kFrameHeaderBytes, &error));
  // Any single flipped bit fails.
  for (size_t byte = 0; byte < payload.size(); ++byte) {
    std::vector<uint8_t> corrupt(frame.begin() + kFrameHeaderBytes,
                                 frame.end());
    corrupt[byte] ^= 0x10;
    EXPECT_FALSE(CheckFrameCrc(header, corrupt.data(), &error))
        << "flip in byte " << byte << " not caught";
  }
}

// CRC-32 by its definition: the reflected polynomial applied one bit at a
// time, with the all-ones preset and final complement.
uint32_t BitwiseCrc32(const uint8_t* data, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

// Crc32 folds 16-byte blocks with carry-less multiplies from 64 bytes up
// (where the CPU has them), 8 bytes per table step otherwise, and finishes
// the tail bytewise; every length and start alignment must give the
// definition's value. Every length to 1100 runs at offsets 0..7, then
// random lengths to 64 KiB at offsets 0..15.
TEST(FrameHeaderTest, Crc32MatchesTheBitwiseDefinition) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);

  const size_t kMaxLen = 64 * 1024, kOffsets = 16;
  Rng rng(41);
  std::vector<uint8_t> buf(kMaxLen + kOffsets);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextBelow(256));
  size_t mismatches = 0;
  const auto expect_match = [&](size_t offset, size_t len) {
    const uint8_t* p = buf.data() + offset;
    if (Crc32(p, len) == BitwiseCrc32(p, len)) return true;
    ADD_FAILURE() << "offset " << offset << ", length " << len;
    return ++mismatches < 10;
  };
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      if (!expect_match(offset, len)) return;
    }
  }
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    if (!expect_match(offset, kMaxLen)) return;
    for (int i = 0; i < 16; ++i) {
      if (!expect_match(offset, rng.NextBelow(kMaxLen + 1))) return;
    }
  }
}

TEST(FrameHeaderTest, KnownTypesRoundTheEnum) {
  for (uint8_t t = 1; t <= 9; ++t) EXPECT_TRUE(IsKnownMsgType(t)) << int{t};
  EXPECT_FALSE(IsKnownMsgType(0));
  EXPECT_FALSE(IsKnownMsgType(10));
  EXPECT_FALSE(IsKnownMsgType(255));
}

}  // namespace
}  // namespace net
}  // namespace dmt
