#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"

namespace b2b::net {

namespace {

/// Resolve host:port to a sockaddr (IPv4; numeric or named hosts).
bool resolve(const std::string& host, std::uint16_t port, sockaddr_in* out) {
  std::memset(out, 0, sizeof *out);
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1) return true;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &result) != 0 ||
      result == nullptr) {
    return false;
  }
  out->sin_addr = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return true;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

bool Socket::send_all(const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    // MSG_NOSIGNAL: a peer reset surfaces as EPIPE, not a process signal.
    ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

long Socket::recv_some(void* buf, std::size_t len) {
  for (;;) {
    ssize_t n = ::recv(fd_, buf, len, 0);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

bool Socket::recv_exact(void* buf, std::size_t len) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    long n = recv_some(p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::set_nodelay() {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void Socket::set_nonblocking(bool nonblocking) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return;
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  ::fcntl(fd_, F_SETFL, flags);
}

void Socket::set_recv_timeout(std::uint64_t micros) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(micros / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(micros % 1'000'000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

void Socket::set_linger_reset() {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
}

Socket tcp_listen(const std::string& host, std::uint16_t port,
                  std::uint16_t* bound_port) {
  sockaddr_in addr{};
  if (!resolve(host, port, &addr)) {
    throw Error("listener: cannot resolve " + host);
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw Error("listener: socket() failed");
  // Restarted processes rebind their old port without waiting out
  // TIME_WAIT (the crash/recover path depends on this).
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw Error("listener: cannot bind " + host + ":" +
                std::to_string(port) + " (" + std::strerror(errno) + ")");
  }
  // SOMAXCONN: a gateway node can see hundreds of near-simultaneous
  // dials at startup; a short backlog turns those into connect timeouts.
  if (::listen(sock.fd(), SOMAXCONN) != 0) {
    throw Error("listener: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    throw Error("listener: getsockname() failed");
  }
  if (bound_port != nullptr) *bound_port = ntohs(bound.sin_port);
  return sock;
}

Listener Listener::open(const std::string& host, std::uint16_t port) {
  Listener listener;
  listener.listen_ = tcp_listen(host, port, &listener.port_);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw Error("listener: pipe() failed");
  listener.wake_read_ = Socket(pipe_fds[0]);
  listener.wake_write_ = Socket(pipe_fds[1]);
  return listener;
}

Socket Listener::accept() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_.fd(), POLLIN, 0};
    fds[1] = {wake_read_.fd(), POLLIN, 0};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Socket{};
    }
    if (fds[1].revents != 0) return Socket{};  // stop() was called
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_.fd(), nullptr, nullptr);
    if (fd < 0) {
      // ECONNABORTED and friends are transient; keep accepting.
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: shed this connection instead of killing
        // the acceptor. The peer's retransmit layer redials; back off
        // briefly so a sustained fd famine does not spin this thread.
        std::fprintf(stderr,
                     "[b2b.net] accept: out of file descriptors (%s); "
                     "dropping connection attempt\n",
                     std::strerror(errno));
        ::poll(nullptr, 0, 50);
        continue;
      }
      return Socket{};
    }
    return Socket(fd);
  }
}

void Listener::stop() {
  if (wake_write_.valid()) {
    char byte = 0;
    [[maybe_unused]] ssize_t n = ::write(wake_write_.fd(), &byte, 1);
  }
}

Socket tcp_connect(const std::string& host, std::uint16_t port,
                   std::uint64_t timeout_micros) {
  sockaddr_in addr{};
  if (!resolve(host, port, &addr)) return Socket{};
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Socket{};

  int flags = ::fcntl(sock.fd(), F_GETFL, 0);
  ::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr);
  if (rc != 0) {
    if (errno != EINPROGRESS) return Socket{};
    pollfd pfd{sock.fd(), POLLOUT, 0};
    int timeout_ms = static_cast<int>(timeout_micros / 1000);
    if (::poll(&pfd, 1, timeout_ms) <= 0) return Socket{};
    int err = 0;
    socklen_t err_len = sizeof err;
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      return Socket{};
    }
  }
  ::fcntl(sock.fd(), F_SETFL, flags);  // back to blocking
  return sock;
}

Socket tcp_connect_start(const std::string& host, std::uint16_t port,
                         bool* in_progress) {
  if (in_progress != nullptr) *in_progress = false;
  sockaddr_in addr{};
  if (!resolve(host, port, &addr)) return Socket{};
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!sock.valid()) return Socket{};
  int rc;
  do {
    rc = ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (errno != EINPROGRESS) return Socket{};
    if (in_progress != nullptr) *in_progress = true;
  }
  return sock;
}

}  // namespace b2b::net
