#include "net/client.hpp"

#include <utility>

namespace dlpic::net {

Client::Client(const Address& address, const FrameLimits& limits)
    : limits_(limits), socket_(Socket::connect(address)) {
  connected_.store(true, std::memory_order_relaxed);
  reader_ = std::thread([this] { reader_loop(); });
}

Client::~Client() { close(); }

void Client::close() {
  std::call_once(close_once_, [this] {
    connected_.store(false, std::memory_order_relaxed);
    // Wakes the reader out of recv; the fd stays valid until destruction so
    // the reader never races a reused descriptor.
    socket_.shutdown_rdwr();
    if (reader_.joinable()) reader_.join();
    fail_all_pending("client closed");
  });
}

std::future<NetResponse> Client::submit_async(const std::string& model,
                                              std::vector<double> input,
                                              uint8_t priority,
                                              int64_t deadline_us) {
  NetRequest request;
  request.request_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.model = model;
  request.priority = priority;
  request.deadline_us = deadline_us;
  request.payload = std::move(input);

  // Register the promise BEFORE sending: the response could arrive (and be
  // dispatched by the reader) before a post-send registration happened. The
  // connected check shares the lock with fail_all_pending, so a promise is
  // either registered before a failing reader fails everything or not at
  // all — never left behind a reader that has already exited.
  std::future<NetResponse> future;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (!connected_.load(std::memory_order_relaxed))
      throw SocketError("Client: not connected");
    future = pending_[request.request_id].get_future();
  }

  const std::vector<uint8_t> frame = encode_request(request);
  try {
    std::lock_guard<std::mutex> lock(send_mutex_);
    socket_.send_all(frame.data(), frame.size());
  } catch (...) {
    // Send failed (peer gone or injected net.write fault): this request
    // never reached the server, so fail its promise here — along with any
    // other outstanding ones, since a half-sent frame desyncs the stream.
    fail_all_pending("Client: send failed");
    socket_.shutdown_rdwr();
    throw;
  }
  requests_sent_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

std::vector<double> Client::submit(const std::string& model,
                                   std::vector<double> input, uint8_t priority,
                                   int64_t deadline_us) {
  NetResponse response =
      submit_async(model, std::move(input), priority, deadline_us).get();
  if (response.status != Status::kOk)
    throw RemoteError(response.status, response.error);
  return std::move(response.payload);
}

void Client::reader_loop() {
  while (true) {
    uint8_t header_bytes[kFrameHeaderBytes];
    try {
      if (!socket_.recv_all(header_bytes, kFrameHeaderBytes)) {
        fail_all_pending("Client: server closed the connection");
        return;
      }
      const FrameHeader header = decode_frame_header(header_bytes, limits_);
      std::vector<uint8_t> body(header.body_len);
      if (header.body_len > 0 && !socket_.recv_all(body.data(), body.size())) {
        fail_all_pending("Client: connection closed mid-frame");
        return;
      }
      const NetResponse response =
          decode_response(body.data(), body.size(), limits_);
      responses_received_.fetch_add(1, std::memory_order_relaxed);

      std::promise<NetResponse> promise;
      {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        auto it = pending_.find(response.request_id);
        if (it == pending_.end()) continue;  // unsolicited id: drop
        promise = std::move(it->second);
        pending_.erase(it);
      }
      promise.set_value(response);
    } catch (const std::exception& e) {
      // SocketError (reset, truncation, injected net.read) or ProtocolError
      // (the server sent something the bounded decoder rejects): either way
      // the stream is unusable — fail everything and stop.
      fail_all_pending(std::string("Client: connection failed: ") + e.what());
      return;
    }
  }
}

void Client::fail_all_pending(const std::string& reason) {
  std::map<uint64_t, std::promise<NetResponse>> orphans;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    connected_.store(false, std::memory_order_relaxed);
    orphans.swap(pending_);
  }
  for (auto& [id, promise] : orphans) {
    try {
      promise.set_exception(std::make_exception_ptr(SocketError(reason)));
    } catch (const std::future_error&) {
      // already satisfied: a response raced the failure — keep it
    }
  }
}

}  // namespace dlpic::net
