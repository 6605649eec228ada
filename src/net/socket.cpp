#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/fault_injection.hpp"

namespace dlpic::net {

namespace {

std::string errno_string(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Builds the sockaddr for `address`; returns the byte length used.
socklen_t fill_sockaddr(const Address& address, sockaddr_storage& storage) {
  std::memset(&storage, 0, sizeof(storage));
  if (address.kind == Address::Kind::kUnix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(&storage);
    sun->sun_family = AF_UNIX;
    if (address.path.size() + 1 > sizeof(sun->sun_path))
      throw SocketError("unix socket path too long: " + address.path);
    std::memcpy(sun->sun_path, address.path.c_str(), address.path.size() + 1);
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  address.path.size() + 1);
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(&storage);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(address.port);
  const std::string host = address.host == "localhost" ? "127.0.0.1" : address.host;
  if (inet_pton(AF_INET, host.c_str(), &sin->sin_addr) != 1)
    throw SocketError("cannot parse IPv4 host: " + address.host);
  return sizeof(sockaddr_in);
}

int socket_for(const Address& address) {
  const int domain = address.kind == Address::Kind::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) throw SocketError(errno_string("socket"));
  return fd;
}

}  // namespace

std::string Address::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect(const Address& address) {
  const int fd = socket_for(address);
  sockaddr_storage storage;
  socklen_t len;
  try {
    len = fill_sockaddr(address, storage);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0) {
    const std::string what = errno_string("connect to " + address.to_string());
    ::close(fd);
    throw SocketError(what);
  }
  if (address.kind == Address::Kind::kTcp) {
    // Request/response frames are latency-bound; never Nagle-delay them.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return Socket(fd);
}

void Socket::send_all(const void* data, size_t n) {
  util::fault_point(util::FaultSite::kNetWrite);
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that vanished mid-write must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t rc = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw SocketError(errno_string("send"));
    }
    sent += static_cast<size_t>(rc);
  }
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_rdwr() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

RecvBuffer::RecvBuffer(Socket& socket)
    : socket_(socket), buffer_(std::make_unique_for_overwrite<uint8_t[]>(kCapacity)) {}

const uint8_t* RecvBuffer::next(size_t n) {
  util::fault_point(util::FaultSite::kNetRead);
  large_.reset();
  size_t have = end_ - begin_;  // bytes of this read already received
  uint8_t* out = nullptr;
  size_t room = 0;  // bytes `out` can take, so one recv never overruns it
  if (n > kCapacity) {
    // Too large to buffer: hand over what is buffered, then receive the
    // rest straight into place, and nothing beyond it.
    large_ = std::make_unique_for_overwrite<uint8_t[]>(n);
    std::memcpy(large_.get(), buffer_.get() + begin_, have);
    begin_ = end_ = 0;
    out = large_.get();
    room = n;
  } else {
    if (begin_ + n > kCapacity) {
      // Too little room after the unconsumed bytes: move them to the front.
      std::memmove(buffer_.get(), buffer_.get() + begin_, have);
      begin_ = 0;
      end_ = have;
    }
    out = buffer_.get() + begin_;
    room = kCapacity - begin_;
  }
  while (have < n) {
    const ssize_t rc = ::recv(socket_.fd(), out + have, room - have, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw SocketError(errno_string("recv"));
    }
    if (rc == 0) {
      if (have == 0) return nullptr;  // clean EOF between messages
      throw SocketError("connection closed mid-message (" + std::to_string(have) +
                        " of " + std::to_string(n) + " bytes received)");
    }
    have += static_cast<size_t>(rc);
  }
  if (large_) return out;
  end_ = begin_ + have;
  begin_ += n;
  // Fully consumed: the next receive starts at the front. The bytes handed
  // out stay in place until then.
  if (begin_ == end_) begin_ = end_ = 0;
  return out;
}

Listener::Listener(const Address& address) : address_(address) {
  fd_ = socket_for(address);
  try {
    if (address.kind == Address::Kind::kUnix) {
      // A stale socket file from a crashed previous run would fail bind().
      ::unlink(address.path.c_str());
    } else {
      const int one = 1;
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    }
    sockaddr_storage storage;
    const socklen_t len = fill_sockaddr(address, storage);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&storage), len) != 0)
      throw SocketError(errno_string("bind " + address.to_string()));
    if (::listen(fd_, SOMAXCONN) != 0)
      throw SocketError(errno_string("listen " + address.to_string()));
    if (address.kind == Address::Kind::kTcp && address.port == 0) {
      sockaddr_in bound{};
      socklen_t bound_len = sizeof(bound);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0)
        throw SocketError(errno_string("getsockname"));
      address_.port = ntohs(bound.sin_port);
    }
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw SocketError(errno_string("pipe"));
    wake_read_ = pipe_fds[0];
    wake_write_ = pipe_fds[1];
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

Listener::~Listener() {
  stop();
  close();
  if (wake_read_ >= 0) ::close(wake_read_);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (address_.kind == Address::Kind::kUnix) ::unlink(address_.path.c_str());
  }
}

Socket Listener::accept() {
  util::fault_point(util::FaultSite::kNetAccept);
  while (true) {
    pollfd fds[2];
    fds[0] = {fd_, POLLIN, 0};
    fds[1] = {wake_read_, POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw SocketError(errno_string("poll"));
    }
    if (fds[1].revents != 0) return Socket();  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw SocketError(errno_string("accept"));
    }
    if (address_.kind == Address::Kind::kTcp) {
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return Socket(client);
  }
}

void Listener::stop() {
  if (wake_write_ >= 0) {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup; ignore the result.
    [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
    ::close(wake_write_);
    wake_write_ = -1;
  }
}

}  // namespace dlpic::net
