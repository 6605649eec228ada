#include "net/protocol.hpp"

#include <bit>
#include <cstring>
#include <utility>

namespace dlpic::net {

static_assert(std::endian::native == std::endian::little,
              "the dlpic wire format assumes a little-endian host");

// ------------------------------------------------------------ FrameWriter ---

FrameWriter::FrameWriter(size_t body_bytes) {
  bytes_.reserve(kFrameHeaderBytes + body_bytes);
  bytes_.resize(kFrameHeaderBytes);
}

void FrameWriter::append(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

void FrameWriter::put_u8(uint8_t v) { append(&v, 1); }
void FrameWriter::put_u32(uint32_t v) { append(&v, 4); }
void FrameWriter::put_u64(uint64_t v) { append(&v, 8); }
void FrameWriter::put_i64(int64_t v) { append(&v, 8); }
void FrameWriter::put_f64(double v) { append(&v, 8); }

void FrameWriter::put_string(std::string_view s) {
  put_u64(s.size());
  append(s.data(), s.size());
}

void FrameWriter::put_f64_vector(std::span<const double> v) {
  put_u64(v.size());
  append(v.data(), v.size() * 8);
}

std::vector<uint8_t> FrameWriter::frame() && {
  FrameHeader header;
  header.body_len = bytes_.size() - kFrameHeaderBytes;
  encode_frame_header(header, bytes_.data());
  return std::move(bytes_);
}

// ------------------------------------------------------------ FrameReader ---

const uint8_t* FrameReader::cursor(size_t bytes, const char* what) {
  if (bytes > remaining()) {
    throw ProtocolError("frame truncated: " + std::string(what) + " needs " +
                        std::to_string(bytes) + " bytes, " +
                        std::to_string(remaining()) + " remain at offset " +
                        std::to_string(offset_));
  }
  const uint8_t* p = data_ + offset_;
  offset_ += bytes;
  return p;
}

uint8_t FrameReader::read_u8() { return *cursor(1, "u8"); }

uint32_t FrameReader::read_u32() {
  uint32_t v;
  std::memcpy(&v, cursor(4, "u32"), 4);
  return v;
}

uint64_t FrameReader::read_u64() {
  uint64_t v;
  std::memcpy(&v, cursor(8, "u64"), 8);
  return v;
}

int64_t FrameReader::read_i64() {
  int64_t v;
  std::memcpy(&v, cursor(8, "i64"), 8);
  return v;
}

double FrameReader::read_f64() {
  double v;
  std::memcpy(&v, cursor(8, "f64"), 8);
  return v;
}

std::string FrameReader::read_string() {
  const size_t length_offset = offset_;
  const uint64_t n = read_u64();
  // Bound BEFORE allocating: against the policy limit first (a hostile
  // length must not even be compared against a large frame), then against
  // the bytes actually present.
  if (n > limits_.max_string_bytes) {
    throw ProtocolError("string length " + std::to_string(n) +
                        " exceeds max_string_bytes " +
                        std::to_string(limits_.max_string_bytes) + " at offset " +
                        std::to_string(length_offset));
  }
  const uint8_t* p = cursor(static_cast<size_t>(n), "string bytes");
  return std::string(reinterpret_cast<const char*>(p), static_cast<size_t>(n));
}

std::vector<double> FrameReader::read_f64_vector() {
  const size_t length_offset = offset_;
  const uint64_t n = read_u64();
  if (n > limits_.max_vector_elems) {
    throw ProtocolError("f64 vector length " + std::to_string(n) +
                        " exceeds max_vector_elems " +
                        std::to_string(limits_.max_vector_elems) + " at offset " +
                        std::to_string(length_offset));
  }
  const uint8_t* p = cursor(static_cast<size_t>(n) * 8, "f64 vector bytes");
  std::vector<double> v(static_cast<size_t>(n));
  if (n > 0) std::memcpy(v.data(), p, static_cast<size_t>(n) * 8);
  return v;
}

void FrameReader::expect_end(const char* what) const {
  if (!at_end()) {
    throw ProtocolError(std::string(what) + ": " + std::to_string(remaining()) +
                        " bytes of garbage after the message at offset " +
                        std::to_string(offset_));
  }
}

// ------------------------------------------------------------ frame header ---

void encode_frame_header(const FrameHeader& header, uint8_t out[kFrameHeaderBytes]) {
  std::memcpy(out, &header.magic, 4);
  std::memcpy(out + 4, &header.version, 4);
  std::memcpy(out + 8, &header.body_len, 8);
}

FrameHeader decode_frame_header(const uint8_t data[kFrameHeaderBytes],
                                const FrameLimits& limits) {
  FrameHeader header;
  std::memcpy(&header.magic, data, 4);
  std::memcpy(&header.version, data + 4, 4);
  std::memcpy(&header.body_len, data + 8, 8);
  if (header.magic != kMagic) {
    throw ProtocolError("bad frame magic 0x" + std::to_string(header.magic) +
                        " (stream desynchronized or not a dlpic peer)");
  }
  if (header.version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(header.version) + " (this peer speaks " +
                        std::to_string(kProtocolVersion) + ")");
  }
  if (header.body_len > limits.max_frame_bytes) {
    throw ProtocolError("frame body of " + std::to_string(header.body_len) +
                        " bytes exceeds max_frame_bytes " +
                        std::to_string(limits.max_frame_bytes));
  }
  return header;
}

// ---------------------------------------------------------------- messages ---

std::vector<uint8_t> encode_request(uint64_t request_id, std::string_view model,
                                    uint8_t priority, int64_t deadline_us,
                                    std::span<const double> payload) {
  FrameWriter w(1 + 8 + 8 + model.size() + 1 + 8 + 8 + payload.size_bytes());
  w.put_u8(kRequestMessage);
  w.put_u64(request_id);
  w.put_string(model);
  w.put_u8(priority);
  w.put_i64(deadline_us);
  w.put_f64_vector(payload);
  return std::move(w).frame();
}

std::vector<uint8_t> encode_request(const NetRequest& request) {
  return encode_request(request.request_id, request.model, request.priority,
                        request.deadline_us, request.payload);
}

NetRequest decode_request(const uint8_t* body, size_t size, const FrameLimits& limits) {
  FrameReader r(body, size, limits);
  const uint8_t type = r.read_u8();
  if (type != kRequestMessage)
    throw ProtocolError("expected a request message, got type " + std::to_string(type));
  NetRequest request;
  request.request_id = r.read_u64();
  request.model = r.read_string();
  request.priority = r.read_u8();
  if (request.priority > 1)
    throw ProtocolError("invalid priority lane " + std::to_string(request.priority));
  request.deadline_us = r.read_i64();
  request.payload = r.read_f64_vector();
  r.expect_end("request");
  return request;
}

std::vector<uint8_t> encode_response(const NetResponse& response) {
  FrameWriter w(1 + 8 + 1 + 8 +
                (response.status == Status::kOk ? response.payload.size() * 8
                                                : response.error.size()));
  w.put_u8(kResponseMessage);
  w.put_u64(response.request_id);
  w.put_u8(static_cast<uint8_t>(response.status));
  if (response.status == Status::kOk) {
    w.put_f64_vector(response.payload);
  } else {
    w.put_string(response.error);
  }
  return std::move(w).frame();
}

NetResponse decode_response(const uint8_t* body, size_t size, const FrameLimits& limits) {
  FrameReader r(body, size, limits);
  const uint8_t type = r.read_u8();
  if (type != kResponseMessage)
    throw ProtocolError("expected a response message, got type " + std::to_string(type));
  NetResponse response;
  response.request_id = r.read_u64();
  const uint8_t status = r.read_u8();
  if (status > static_cast<uint8_t>(Status::kProtocolError))
    throw ProtocolError("invalid response status " + std::to_string(status));
  response.status = static_cast<Status>(status);
  if (response.status == Status::kOk) {
    response.payload = r.read_f64_vector();
  } else {
    response.error = r.read_string();
  }
  r.expect_end("response");
  return response;
}

}  // namespace dlpic::net
