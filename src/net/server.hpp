#pragma once
/// \file server.hpp
/// The socket front end of the inference service: listens on a unix-domain
/// or TCP address, speaks the length-prefixed versioned protocol of
/// net/protocol.hpp, and feeds decoded requests into a net::Router (which
/// shards them across InferenceServer replicas).
///
/// Connection model: one accept-loop thread plus one handler pair per
/// connection — a reader thread that decodes frames in place from a
/// RecvBuffer and submits to the router, and a writer thread that resolves
/// the submitted futures in FIFO order and streams response frames back,
/// sending every reply that is already resolved behind the head one in the
/// same write. Responses carry the request id, so a client may pipeline
/// any number of requests on one connection.
///
/// Hardening contract: every byte from the network flows through the
/// bounded FrameReader. A frame-header violation (garbage magic, version
/// mismatch, oversized length) desynchronizes the stream, so the handler
/// sends one kProtocolError reply and closes the connection; a body-level
/// decode error (bad lengths, garbage tails, invalid lanes) is reported as
/// a kProtocolError reply for that request id and the connection keeps
/// serving — either way the server never allocates from an untrusted
/// length and never crashes. Application failures (unknown model, deadline
/// expired, forward errors, shutdown) travel back as kAppError replies.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/router.hpp"
#include "net/socket.hpp"

namespace dlpic::net {

/// Front-end tuning knobs.
struct NetServerConfig {
  /// Decode bounds applied to every received frame.
  FrameLimits limits;
  /// Cap on concurrently served connections; further accepts are closed
  /// immediately (a load-shedding guard, not a queue).
  size_t max_connections = 256;
};

/// Aggregate front-end counters (relaxed atomics; exact once quiesced).
struct NetServerStats {
  size_t connections_accepted = 0;
  size_t connections_rejected = 0;  ///< over max_connections
  size_t requests_decoded = 0;
  size_t responses_sent = 0;
  size_t protocol_errors = 0;  ///< malformed frames answered with kProtocolError
  size_t app_errors = 0;       ///< requests answered with kAppError
};

/// The TCP/unix-socket serving front end. Construction binds, listens and
/// starts the accept loop; destruction (or stop()) closes the listener,
/// tears down every connection and joins all threads. The router is
/// caller-owned and must outlive the server.
class NetServer {
 public:
  NetServer(Router& router, const Address& address, const NetServerConfig& config = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Stops accepting, closes every connection (in-flight requests still
  /// resolve locally — their futures are failed by the router on shutdown
  /// or answered before the close), and joins all threads. Idempotent.
  void stop();

  /// The bound address (TCP port filled in when auto-assigned).
  [[nodiscard]] const Address& address() const { return listener_.address(); }

  /// Front-end counters (safe while serving).
  [[nodiscard]] NetServerStats stats() const;

  /// Connections currently being served.
  [[nodiscard]] size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

  /// The configuration the server was started with.
  [[nodiscard]] const NetServerConfig& config() const { return config_; }

 private:
  /// One live connection: the socket, its reader/writer threads, and the
  /// FIFO of submitted-but-unanswered requests the writer drains.
  struct Connection {
    Socket socket;
    std::thread reader;
    std::thread writer;
    std::mutex mutex;
    std::condition_variable cv;
    /// A response in flight: either an already-built error reply (`ready`)
    /// or a future still being served by the router.
    struct Pending {
      uint64_t request_id = 0;
      bool ready = false;               // error reply built at decode time
      NetResponse response;             // valid when ready
      std::future<std::vector<double>> future;  // valid when !ready
    };
    std::deque<Pending> pending;
    bool reader_done = false;
    std::atomic<bool> closing{false};
    /// Reader + writer still running; 0 means the connection is reapable.
    std::atomic<int> live_threads{2};
  };

  void accept_loop();
  void reader_loop(Connection& connection);
  void writer_loop(Connection& connection);
  /// Builds the kAppError/kProtocolError reply for one request.
  static NetResponse error_response(uint64_t request_id, Status status,
                                    const std::string& message);
  /// Queues an already-built reply for the writer.
  void enqueue_ready(Connection& connection, NetResponse response);
  /// Marks one handler thread finished; the last one out decrements
  /// active_connections_.
  void finish_thread(Connection& connection);
  void reap_finished_locked();  // pre: connections_mutex_ held

  Router& router_;
  NetServerConfig config_;
  Listener listener_;
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<size_t> active_connections_{0};
  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;

  std::atomic<size_t> connections_accepted_{0};
  std::atomic<size_t> connections_rejected_{0};
  std::atomic<size_t> requests_decoded_{0};
  std::atomic<size_t> responses_sent_{0};
  std::atomic<size_t> protocol_errors_{0};
  std::atomic<size_t> app_errors_{0};
};

}  // namespace dlpic::net
