/// \file test_frame.cpp
/// Wire-format unit tests: request/response round trips are exact, the
/// frame-header validator rejects garbage magic / wrong versions /
/// oversized lengths, and the bounded FrameReader refuses every hostile
/// length field BEFORE allocating. Ends with a decode-level fuzz loop: 1000
/// random corruptions of a valid frame must each produce either a clean
/// ProtocolError or a successful decode — never a crash, never an
/// allocation above the configured bounds.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "math/rng.hpp"
#include "net/protocol.hpp"

namespace {

using namespace dlpic;
using net::decode_frame_header;
using net::decode_request;
using net::decode_response;
using net::encode_request;
using net::encode_response;
using net::FrameHeader;
using net::FrameLimits;
using net::FrameReader;
using net::FrameWriter;
using net::NetRequest;
using net::NetResponse;
using net::ProtocolError;
using net::Status;

NetRequest sample_request() {
  NetRequest request;
  request.request_id = 42;
  request.model = "bundle-a";
  request.priority = 0;
  request.deadline_us = 1'500'000;
  request.payload = {1.0, -2.5, 3.25, 0.0, 1e300, -0.0};
  return request;
}

/// Splits a full wire frame into (validated header, body span).
std::vector<uint8_t> body_of(const std::vector<uint8_t>& frame,
                             const FrameLimits& limits = {}) {
  const FrameHeader header = decode_frame_header(frame.data(), limits);
  EXPECT_EQ(header.body_len, frame.size() - net::kFrameHeaderBytes);
  return {frame.begin() + net::kFrameHeaderBytes, frame.end()};
}

TEST(Frame, RequestRoundTripIsExact) {
  const NetRequest request = sample_request();
  const auto frame = encode_request(request);
  const auto body = body_of(frame);
  const NetRequest decoded = decode_request(body.data(), body.size(), {});
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.model, request.model);
  EXPECT_EQ(decoded.priority, request.priority);
  EXPECT_EQ(decoded.deadline_us, request.deadline_us);
  ASSERT_EQ(decoded.payload.size(), request.payload.size());
  for (size_t i = 0; i < request.payload.size(); ++i)
    EXPECT_EQ(decoded.payload[i], request.payload[i]);  // bitwise incl. -0.0
}

// The bytes on the wire, spelled out field by field from the layout in
// protocol.hpp: the frame writer fills one buffer, header first, and that
// buffer is exactly the frame (reserved once, never regrown). The span
// overload the client sends through writes the same bytes.
TEST(Frame, EncodedBytesFollowTheDocumentedLayout) {
  std::vector<uint8_t> body;
  auto put = [&body](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    body.insert(body.end(), b, b + n);
  };
  const NetRequest request = sample_request();
  const uint8_t type = net::kRequestMessage;
  const uint64_t name_len = request.model.size();
  const uint64_t count = request.payload.size();
  put(&type, 1);
  put(&request.request_id, 8);
  put(&name_len, 8);
  put(request.model.data(), request.model.size());
  put(&request.priority, 1);
  put(&request.deadline_us, 8);
  put(&count, 8);
  put(request.payload.data(), 8 * request.payload.size());
  std::vector<uint8_t> expected;
  const uint32_t magic = net::kMagic, version = net::kProtocolVersion;
  const uint64_t body_len = body.size();
  for (const auto& [p, n] : {std::pair<const void*, size_t>{&magic, 4}, {&version, 4},
                             {&body_len, 8}}) {
    const auto* b = static_cast<const uint8_t*>(p);
    expected.insert(expected.end(), b, b + n);
  }
  expected.insert(expected.end(), body.begin(), body.end());

  const auto frame = encode_request(request);
  EXPECT_EQ(frame, expected);
  EXPECT_EQ(frame.capacity(), frame.size());
  EXPECT_EQ(encode_request(request.request_id, request.model, request.priority,
                           request.deadline_us, request.payload),
            expected);

  NetResponse err;
  err.request_id = 8;
  err.status = Status::kProtocolError;
  err.error = "bad";
  const auto reply = encode_response(err);
  EXPECT_EQ(reply.capacity(), reply.size());
  const std::vector<uint8_t> reply_body(reply.begin() + net::kFrameHeaderBytes, reply.end());
  const std::vector<uint8_t> expected_reply = {
      net::kResponseMessage, 8, 0, 0, 0, 0, 0, 0, 0,
      static_cast<uint8_t>(Status::kProtocolError), 3, 0, 0, 0, 0, 0, 0, 0, 'b', 'a', 'd'};
  EXPECT_EQ(reply_body, expected_reply);
}

TEST(Frame, ResponseRoundTripIsExact) {
  NetResponse ok;
  ok.request_id = 7;
  ok.status = Status::kOk;
  ok.payload = {9.5, -1.25};
  auto body = body_of(encode_response(ok));
  NetResponse decoded = decode_response(body.data(), body.size(), {});
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_EQ(decoded.status, Status::kOk);
  ASSERT_EQ(decoded.payload.size(), 2u);
  EXPECT_EQ(decoded.payload[0], 9.5);
  EXPECT_EQ(decoded.payload[1], -1.25);

  NetResponse err;
  err.request_id = 8;
  err.status = Status::kAppError;
  err.error = "unknown model 'nope'";
  body = body_of(encode_response(err));
  decoded = decode_response(body.data(), body.size(), {});
  EXPECT_EQ(decoded.request_id, 8u);
  EXPECT_EQ(decoded.status, Status::kAppError);
  EXPECT_EQ(decoded.error, err.error);
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(Frame, HeaderRejectsGarbageMagicVersionAndOversizedLength) {
  const auto frame = encode_request(sample_request());
  uint8_t header[net::kFrameHeaderBytes];

  std::memcpy(header, frame.data(), sizeof(header));
  header[0] ^= 0xFF;  // magic
  EXPECT_THROW(decode_frame_header(header, {}), ProtocolError);

  std::memcpy(header, frame.data(), sizeof(header));
  header[4] = 99;  // version
  EXPECT_THROW(decode_frame_header(header, {}), ProtocolError);

  std::memcpy(header, frame.data(), sizeof(header));
  const uint64_t huge = ~0ull;  // body_len = 2^64 - 1
  std::memcpy(header + 8, &huge, sizeof(huge));
  EXPECT_THROW(decode_frame_header(header, {}), ProtocolError);

  // The limit is configurable: a body legal under the default must fail
  // under a tightened max_frame_bytes.
  std::memcpy(header, frame.data(), sizeof(header));
  FrameLimits tight;
  tight.max_frame_bytes = 8;
  EXPECT_THROW(decode_frame_header(header, tight), ProtocolError);
  EXPECT_NO_THROW(decode_frame_header(header, FrameLimits{}));
}

TEST(Frame, BodyRejectsHostileLengthsBeforeAllocating) {
  // String length claiming 2^61 bytes: must throw, not allocate.
  FrameWriter w;
  w.put_u8(net::kRequestMessage);
  w.put_u64(1);              // request_id
  w.put_u64(1ull << 61);     // string length (lying)
  w.put_u8('x');
  const auto& body = w.body();
  try {
    decode_request(body.data(), body.size(), {});
    FAIL() << "hostile string length accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("length"), std::string::npos) << e.what();
  }

  // Vector element count over max_vector_elems, with a plausible byte count.
  FrameWriter v;
  v.put_u8(net::kRequestMessage);
  v.put_u64(2);
  v.put_string("m");
  v.put_u8(1);
  v.put_i64(-1);
  v.put_u64((1ull << 16) + 1);  // count just over the default limit
  EXPECT_THROW(decode_request(v.body().data(), v.body().size(), {}), ProtocolError);
}

TEST(Frame, BodyRejectsWrongTypeBadLaneAndGarbageTail) {
  const NetRequest request = sample_request();
  auto body = body_of(encode_request(request));

  auto wrong_type = body;
  wrong_type[0] = 0x77;
  EXPECT_THROW(decode_request(wrong_type.data(), wrong_type.size(), {}),
               ProtocolError);

  auto bad_lane = body;
  bad_lane[9 + 8 + request.model.size()] = 5;  // priority byte: lanes are 0/1
  EXPECT_THROW(decode_request(bad_lane.data(), bad_lane.size(), {}), ProtocolError);

  auto tail = body;
  tail.push_back(0xAB);  // one trailing garbage byte
  EXPECT_THROW(decode_request(tail.data(), tail.size(), {}), ProtocolError);

  auto truncated = body;
  truncated.resize(truncated.size() - 3);  // payload cut mid-double
  EXPECT_THROW(decode_request(truncated.data(), truncated.size(), {}),
               ProtocolError);
}

TEST(Frame, ReaderErrorsNameTheOffset) {
  FrameWriter w;
  w.put_u32(0xDEADBEEF);
  FrameReader reader(w.body().data(), w.body().size(), {});
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEFu);
  EXPECT_TRUE(reader.at_end());
  try {
    reader.read_u64();  // past the end
    FAIL() << "read past end accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("offset 4"), std::string::npos) << e.what();
  }
}

TEST(Frame, ExpectEndCatchesUnderconsumedBody) {
  FrameWriter w;
  w.put_u64(1);
  w.put_u64(2);
  FrameReader reader(w.body().data(), w.body().size(), {});
  reader.read_u64();
  EXPECT_EQ(reader.remaining(), 8u);
  EXPECT_THROW(reader.expect_end("test message"), ProtocolError);
  reader.read_u64();
  EXPECT_NO_THROW(reader.expect_end("test message"));
}

// The decode-level fuzz contract: ANY byte-level corruption of a valid
// request frame produces either a clean ProtocolError or a decode that
// succeeded (some mutations hit payload bytes and leave a well-formed
// frame) — never a crash, hang, or out-of-bounds access. 1000 corruptions:
// bit flips, truncations, extensions and length-field rewrites.
TEST(Frame, ThousandRandomCorruptionsDecodeCleanlyOrFail) {
  const auto pristine = encode_request(sample_request());
  math::Rng rng(20260808);
  size_t decoded_ok = 0, protocol_errors = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    auto frame = pristine;
    const int mode = static_cast<int>(rng.uniform(0.0, 4.0));
    switch (mode) {
      case 0: {  // flip 1-8 random bytes
        const int flips = 1 + static_cast<int>(rng.uniform(0.0, 8.0));
        for (int f = 0; f < flips; ++f) {
          const size_t pos = static_cast<size_t>(
              rng.uniform(0.0, static_cast<double>(frame.size()) - 0.001));
          frame[pos] ^= static_cast<uint8_t>(1 + rng.uniform(0.0, 254.0));
        }
        break;
      }
      case 1:  // truncate
        frame.resize(static_cast<size_t>(
            rng.uniform(0.0, static_cast<double>(frame.size()) - 0.001)));
        break;
      case 2: {  // append garbage
        const int extra = 1 + static_cast<int>(rng.uniform(0.0, 32.0));
        for (int f = 0; f < extra; ++f)
          frame.push_back(static_cast<uint8_t>(rng.uniform(0.0, 255.999)));
        break;
      }
      default: {  // rewrite a length-ish u64 somewhere in the frame
        const size_t pos = static_cast<size_t>(rng.uniform(
            0.0, static_cast<double>(frame.size() > 8 ? frame.size() - 8 : 1)));
        const uint64_t lie = static_cast<uint64_t>(rng.uniform(0.0, 1e18));
        if (pos + 8 <= frame.size()) std::memcpy(frame.data() + pos, &lie, 8);
        break;
      }
    }
    try {
      if (frame.size() < net::kFrameHeaderBytes) throw ProtocolError("short frame");
      const FrameHeader header = decode_frame_header(frame.data(), FrameLimits{});
      if (frame.size() - net::kFrameHeaderBytes != header.body_len)
        throw ProtocolError("frame length mismatch");
      const NetRequest decoded = decode_request(
          frame.data() + net::kFrameHeaderBytes, header.body_len, FrameLimits{});
      // A surviving decode must still respect every bound.
      EXPECT_LE(decoded.model.size(), FrameLimits{}.max_string_bytes);
      EXPECT_LE(decoded.payload.size(), FrameLimits{}.max_vector_elems);
      ++decoded_ok;
    } catch (const ProtocolError&) {
      ++protocol_errors;  // the only acceptable failure
    }
  }
  EXPECT_EQ(decoded_ok + protocol_errors, 1000u);
  EXPECT_GT(protocol_errors, 500u) << "corruptions mostly slipped through";
}

}  // namespace
