#include "net/server.hpp"

#include <chrono>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#include "util/log.hpp"

namespace dlpic::net {

namespace {

/// Best-effort request-id recovery from a body that failed to decode: the
/// id sits right after the type byte, so when at least the prefix is intact
/// the error reply can name the request it answers (id 0 otherwise).
uint64_t salvage_request_id(const uint8_t* body, size_t size) {
  if (size < 1 + sizeof(uint64_t) || body[0] != kRequestMessage) return 0;
  uint64_t id = 0;
  std::memcpy(&id, body + 1, sizeof(id));
  return id;
}

}  // namespace

NetServer::NetServer(Router& router, const Address& address,
                     const NetServerConfig& config)
    : router_(router), config_(config), listener_(address) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_relaxed);
    listener_.stop();
    if (accept_thread_.joinable()) accept_thread_.join();
    // With the accept loop gone, close the listening socket so peers stuck
    // in the backlog (connected, never accepted) observe the shutdown
    // instead of waiting forever for replies.
    listener_.close();
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) {
      connection->closing.store(true, std::memory_order_relaxed);
      // Wakes a reader blocked in recv (sees EOF); the fd stays valid until
      // the Connection is destroyed, after both threads joined.
      connection->socket.shutdown_rdwr();
      connection->cv.notify_all();
    }
    for (auto& connection : connections_) {
      if (connection->reader.joinable()) connection->reader.join();
      if (connection->writer.joinable()) connection->writer.join();
    }
    connections_.clear();
  });
}

NetServerStats NetServer::stats() const {
  NetServerStats s;
  s.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
  s.requests_decoded = requests_decoded_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.app_errors = app_errors_.load(std::memory_order_relaxed);
  return s;
}

NetResponse NetServer::error_response(uint64_t request_id, Status status,
                                      const std::string& message) {
  NetResponse response;
  response.request_id = request_id;
  response.status = status;
  response.error = message;
  return response;
}

void NetServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Socket client;
    try {
      client = listener_.accept();
    } catch (const std::exception& e) {
      // Includes injected net.accept faults: the listener stays usable, so
      // log and keep accepting rather than taking the whole server down.
      DLPIC_LOG_WARN("NetServer: accept failed: %s", e.what());
      continue;
    }
    if (!client.valid()) break;  // stop() woke us
    if (active_connections_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;  // client destroys -> connection closes
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(client);
    Connection* raw = connection.get();
    std::lock_guard<std::mutex> lock(connections_mutex_);
    reap_finished_locked();
    connection->reader = std::thread([this, raw] { reader_loop(*raw); });
    connection->writer = std::thread([this, raw] { writer_loop(*raw); });
    connections_.push_back(std::move(connection));
  }
}

void NetServer::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& connection = **it;
    if (connection.live_threads.load(std::memory_order_acquire) == 0) {
      if (connection.reader.joinable()) connection.reader.join();
      if (connection.writer.joinable()) connection.writer.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::reader_loop(Connection& connection) {
  bool desynced = false;
  while (!connection.closing.load(std::memory_order_relaxed) && !desynced) {
    uint8_t header_bytes[kFrameHeaderBytes];
    try {
      if (!connection.socket.recv_all(header_bytes, kFrameHeaderBytes))
        break;  // clean EOF between frames: client hung up
    } catch (const std::exception&) {
      break;  // truncated header / reset / injected net.read fault
    }

    FrameHeader header;
    try {
      header = decode_frame_header(header_bytes, config_.limits);
    } catch (const ProtocolError& e) {
      // Garbage magic / version / oversized length: the byte stream is
      // desynchronized, so answer once and close instead of guessing where
      // the next frame starts.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      enqueue_ready(connection,
                    error_response(0, Status::kProtocolError, e.what()));
      desynced = true;
      continue;
    }

    std::vector<uint8_t> body(header.body_len);  // bounded by decode above
    if (header.body_len > 0) {
      try {
        if (!connection.socket.recv_all(body.data(), body.size())) break;
      } catch (const std::exception&) {
        break;  // truncated body: nothing sensible to answer
      }
    }

    NetRequest request;
    try {
      request = decode_request(body.data(), body.size(), config_.limits);
    } catch (const ProtocolError& e) {
      // Framing was intact (header validated, body fully received), so the
      // connection keeps serving after the error reply.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      enqueue_ready(connection,
                    error_response(salvage_request_id(body.data(), body.size()),
                                   Status::kProtocolError, e.what()));
      continue;
    }
    requests_decoded_.fetch_add(1, std::memory_order_relaxed);

    auto deadline = serve::kNoDeadline;
    if (request.deadline_us >= 0) {
      // A relative deadline beyond the clock's range (the wire field is
      // untrusted) means no deadline, not an overflowed time point.
      const auto now = std::chrono::steady_clock::now();
      const auto headroom =
          std::chrono::duration_cast<std::chrono::microseconds>(serve::kNoDeadline - now);
      if (request.deadline_us < headroom.count())
        deadline = now + std::chrono::microseconds(request.deadline_us);
    }
    try {
      auto future = router_.submit(request.model, std::move(request.payload),
                                   static_cast<serve::Priority>(request.priority),
                                   deadline);
      Connection::Pending pending;
      pending.request_id = request.request_id;
      pending.future = std::move(future);
      std::lock_guard<std::mutex> lock(connection.mutex);
      connection.pending.push_back(std::move(pending));
      connection.cv.notify_one();
    } catch (const std::exception& e) {
      // Unknown model, backpressure rejection, shutdown: well-formed
      // request, application-level failure.
      app_errors_.fetch_add(1, std::memory_order_relaxed);
      enqueue_ready(connection, error_response(request.request_id,
                                               Status::kAppError, e.what()));
    }
  }
  {
    std::lock_guard<std::mutex> lock(connection.mutex);
    connection.reader_done = true;
  }
  connection.cv.notify_all();
  finish_thread(connection);
}

void NetServer::enqueue_ready(Connection& connection, NetResponse response) {
  Connection::Pending pending;
  pending.request_id = response.request_id;
  pending.ready = true;
  pending.response = std::move(response);
  std::lock_guard<std::mutex> lock(connection.mutex);
  connection.pending.push_back(std::move(pending));
  connection.cv.notify_one();
}

void NetServer::writer_loop(Connection& connection) {
  bool send_broken = false;
  while (true) {
    Connection::Pending pending;
    {
      std::unique_lock<std::mutex> lock(connection.mutex);
      connection.cv.wait(lock, [&] {
        return !connection.pending.empty() || connection.reader_done ||
               connection.closing.load(std::memory_order_relaxed);
      });
      if (connection.pending.empty()) {
        if (connection.reader_done ||
            connection.closing.load(std::memory_order_relaxed))
          break;
        continue;
      }
      pending = std::move(connection.pending.front());
      connection.pending.pop_front();
    }

    NetResponse response;
    if (pending.ready) {
      response = std::move(pending.response);
    } else {
      // FIFO resolve: block on this request's future. The router's replicas
      // always resolve it — with a value, DeadlineExpired, or a shutdown
      // drain error — so no promise is ever lost, even when the socket is
      // already gone.
      try {
        response.request_id = pending.request_id;
        response.status = Status::kOk;
        response.payload = pending.future.get();
      } catch (const std::exception& e) {
        app_errors_.fetch_add(1, std::memory_order_relaxed);
        response = error_response(pending.request_id, Status::kAppError, e.what());
      }
    }

    if (send_broken) continue;  // still draining futures, peer is gone
    try {
      const std::vector<uint8_t> frame = encode_response(response);
      connection.socket.send_all(frame.data(), frame.size());
      responses_sent_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception&) {
      // Peer hung up mid-reply or an injected net.write fault fired. Wake
      // the reader (it may be blocked in recv) and keep draining pending
      // futures without sending, so every submitted promise is consumed.
      send_broken = true;
      connection.closing.store(true, std::memory_order_relaxed);
      connection.socket.shutdown_rdwr();
    }
  }
  // Drain anything still queued (reader may have enqueued between our last
  // pop and its exit): consume futures so results are observed, send
  // nothing if the stream already broke.
  while (true) {
    Connection::Pending pending;
    {
      std::lock_guard<std::mutex> lock(connection.mutex);
      if (connection.pending.empty()) break;
      pending = std::move(connection.pending.front());
      connection.pending.pop_front();
    }
    if (pending.ready) continue;
    try {
      pending.future.get();
    } catch (...) {
    }
  }
  connection.socket.shutdown_rdwr();
  finish_thread(connection);
}

void NetServer::finish_thread(Connection& connection) {
  if (connection.live_threads.fetch_sub(1, std::memory_order_acq_rel) == 1)
    active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace dlpic::net
