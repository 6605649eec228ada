#pragma once
/// \file socket.hpp
/// Thin RAII wrappers over POSIX stream sockets (TCP and unix-domain) used
/// by the serving front end. Blocking I/O: whole-message send_all, and
/// buffered reads through RecvBuffer. The chaos seam's net.accept /
/// net.read / net.write fault sites fire at these boundaries so the
/// protocol and router layers can be soaked against connection loss (see
/// util/fault_injection.hpp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace dlpic::net {

/// The failure every socket-layer problem surfaces as (connect/bind/listen
/// errors, send/recv failures, injected net.* faults rethrown as-is keep
/// their own type).
class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what) : std::runtime_error(what) {}
};

/// Where a server listens / a client connects: a unix-domain socket path or
/// a TCP host:port. Unix sockets are the default deployment inside one host
/// (no TCP stack, filesystem permissions); TCP crosses machines.
struct Address {
  enum class Kind : uint8_t { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;   ///< unix-domain socket path (kUnix)
  std::string host;   ///< IPv4 dotted quad or "localhost" (kTcp)
  uint16_t port = 0;  ///< TCP port; 0 = auto-assign on listen (kTcp)

  static Address unix_socket(std::string path_) {
    Address a;
    a.kind = Kind::kUnix;
    a.path = std::move(path_);
    return a;
  }
  static Address tcp(std::string host_, uint16_t port_) {
    Address a;
    a.kind = Kind::kTcp;
    a.host = std::move(host_);
    a.port = port_;
    return a;
  }

  [[nodiscard]] std::string to_string() const;
};

/// RAII connected stream socket. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to a listening peer. Throws SocketError on failure.
  static Socket connect(const Address& address);

  /// Writes exactly `n` bytes (looping over partial sends). Throws
  /// SocketError on a broken connection; fault site net.write fires first.
  void send_all(const void* data, size_t n);

  /// Half-closes the write side (peer sees EOF after draining).
  void shutdown_write();

  /// Shuts down both directions without releasing the descriptor — wakes a
  /// thread blocked in recv/send on this socket (recv sees EOF) while
  /// keeping the fd valid until close(), so no concurrent thread can race a
  /// reused descriptor number.
  void shutdown_rdwr();

  /// Closes the descriptor (idempotent).
  void close();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Buffered reads from one connected Socket. One recv() takes in as much of
/// the stream as the buffer holds, so a peer that pipelines messages costs
/// one syscall per buffer-full, not one per header and one per body. Owned
/// by the connection's single reader thread; the Socket must outlive it.
class RecvBuffer {
 public:
  /// Bytes buffered. The buffer is allocated uninitialised, so only bytes
  /// actually received become resident.
  static constexpr size_t kCapacity = 64 * 1024;

  explicit RecvBuffer(Socket& socket);

  /// The next `n` bytes of the stream, contiguous and valid until the next
  /// call. Returns nullptr on clean EOF before the first of the `n` bytes
  /// (peer closed between messages); throws SocketError on EOF or error
  /// after it (a truncated frame is a protocol violation, not a clean
  /// close). Fault site net.read fires first, once per call. A read larger
  /// than kCapacity is received straight into an allocation of exactly `n`
  /// bytes, so the caller must bound `n` first.
  const uint8_t* next(size_t n);

 private:
  Socket& socket_;
  std::unique_ptr<uint8_t[]> buffer_;
  size_t begin_ = 0;  // first unconsumed byte
  size_t end_ = 0;    // one past the last received byte
  std::unique_ptr<uint8_t[]> large_;  // the last read larger than kCapacity
};

/// RAII listening socket with an interruptible accept: stop() wakes a
/// blocked accept() via a self-pipe, which is how NetServer's accept loop
/// shuts down promptly on any platform.
class Listener {
 public:
  /// Binds + listens. For TCP with port 0 the kernel assigns a port
  /// (readable via address().port). For unix sockets a stale path from a
  /// previous run is unlinked first. Throws SocketError on failure.
  explicit Listener(const Address& address);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Blocks until a connection arrives (returned), stop() is called (an
  /// invalid Socket is returned), or an accept-level failure — including an
  /// injected net.accept fault — occurs (throws SocketError; the listener
  /// itself stays usable).
  Socket accept();

  /// Wakes every blocked accept() and makes subsequent ones return an
  /// invalid Socket immediately. Idempotent; called by the destructor.
  void stop();

  /// Closes the listening socket (idempotent; the destructor calls it).
  /// Must not race accept() — stop() and join the accepting thread first.
  /// Closing matters during shutdown: peers queued in the listen backlog
  /// that will never be accepted only observe a reset once the listening
  /// fd is gone, so deferring this to destruction would leave their
  /// clients blocked on replies that cannot come.
  void close();

  /// The bound address (with the kernel-assigned port filled in for TCP).
  [[nodiscard]] const Address& address() const { return address_; }

 private:
  Address address_;
  int fd_ = -1;
  int wake_read_ = -1;   // self-pipe: poll()ed alongside the listen fd
  int wake_write_ = -1;
};

}  // namespace dlpic::net
