#pragma once
/// \file client.hpp
/// Client side of the dlpic wire protocol: one connection, pipelined
/// requests, promise-per-request delivery. submit_async() assigns a request
/// id, sends the frame and returns a future; a background reader thread
/// decodes response frames in place from a RecvBuffer (through the same
/// bounded FrameReader the server uses — the client trusts the server no
/// more than the server trusts the client) and resolves the matching
/// promise. On disconnect or a decode
/// failure every outstanding promise is failed with the reason, so no
/// caller is ever left blocked on a future that cannot resolve.

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace dlpic::net {

/// Thrown by the sync submit() when the server answers with a non-kOk
/// status; carries the wire status and the server's error message.
class RemoteError : public std::runtime_error {
 public:
  RemoteError(Status status, const std::string& message)
      : std::runtime_error(message), status_(status) {}
  [[nodiscard]] Status status() const { return status_; }

 private:
  Status status_;
};

/// A connected protocol client. Thread-safe: any number of threads may
/// submit concurrently (sends are serialized, responses dispatched by id).
class Client {
 public:
  /// Connects and starts the response reader. Throws SocketError on
  /// connection failure.
  explicit Client(const Address& address, const FrameLimits& limits = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request and returns a future for its response. `deadline_us`
  /// is the relative deadline in microseconds granted from server receipt
  /// (< 0 = none). The future resolves with the decoded NetResponse (any
  /// status), or throws SocketError when the connection died first. Throws
  /// SocketError immediately when already disconnected. `input` is read
  /// only during the call: it is encoded straight into the request frame.
  std::future<NetResponse> submit_async(
      const std::string& model, std::span<const double> input,
      uint8_t priority = 1, int64_t deadline_us = -1);

  /// Synchronous round trip: returns the result row on kOk, throws
  /// RemoteError on kAppError/kProtocolError replies, SocketError on a dead
  /// connection.
  std::vector<double> submit(const std::string& model, std::span<const double> input,
                             uint8_t priority = 1, int64_t deadline_us = -1);

  /// Closes the connection and joins the reader; outstanding futures fail
  /// with SocketError. Idempotent (the destructor calls it).
  void close();

  /// True until the peer hangs up, a decode fails, or close() is called.
  [[nodiscard]] bool connected() const {
    return connected_.load(std::memory_order_relaxed);
  }

  /// Requests sent and responses matched so far.
  [[nodiscard]] size_t requests_sent() const {
    return requests_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] size_t responses_received() const {
    return responses_received_.load(std::memory_order_relaxed);
  }

 private:
  void reader_loop();
  /// Fails every outstanding promise with `reason` and marks disconnected.
  void fail_all_pending(const std::string& reason);

  FrameLimits limits_;
  Socket socket_;
  std::mutex send_mutex_;    // serializes whole-frame sends
  std::mutex pending_mutex_; // guards pending_
  std::map<uint64_t, std::promise<NetResponse>> pending_;
  std::thread reader_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> connected_{false};
  std::atomic<size_t> requests_sent_{0};
  std::atomic<size_t> responses_received_{0};
  std::once_flag close_once_;
};

}  // namespace dlpic::net
