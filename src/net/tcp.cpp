#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw IoError{std::string(what) + ": " + std::strerror(errno)};
}

bool errno_is_timeout() noexcept {
  return errno == EAGAIN || errno == EWOULDBLOCK;
}

void set_socket_timeout(int fd, int optname, int ms) {
  timeval tv{};
  if (ms > 0) {
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  }
  if (::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof tv) != 0) {
    throw_errno("setsockopt(timeout)");
  }
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::set_recv_timeout(int ms) {
  VP_REQUIRE(valid(), "timeout on closed socket");
  set_socket_timeout(fd_, SO_RCVTIMEO, ms);
}

void Socket::set_send_timeout(int ms) {
  VP_REQUIRE(valid(), "timeout on closed socket");
  set_socket_timeout(fd_, SO_SNDTIMEO, ms);
}

void Socket::send_all(std::span<const std::uint8_t> data) {
  VP_REQUIRE(valid(), "send on closed socket");
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno_is_timeout()) throw TimeoutError{"send deadline expired"};
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool Socket::recv_exact(std::span<std::uint8_t> out) {
  VP_REQUIRE(valid(), "recv on closed socket");
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::recv(fd_, out.data() + got, out.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno_is_timeout()) throw TimeoutError{"recv deadline expired"};
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF at message boundary
      throw IoError{"connection closed mid-message"};
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::send_message(std::span<const std::uint8_t> payload) {
  ByteWriter w(4 + payload.size());
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  send_all(w.bytes());
}

bool Socket::recv_message(Bytes& out, std::size_t max_bytes) {
  std::uint8_t header[4];
  if (!recv_exact(header)) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            (static_cast<std::uint32_t>(header[1]) << 8) |
                            (static_cast<std::uint32_t>(header[2]) << 16) |
                            (static_cast<std::uint32_t>(header[3]) << 24);
  if (len > max_bytes) {
    throw DecodeError{"frame length " + std::to_string(len) +
                      " exceeds limit"};
  }
  out.resize(len);
  if (len > 0 && !recv_exact(out)) {
    throw IoError{"connection closed mid-message"};
  }
  return true;
}

Socket tcp_connect(const std::string& host, std::uint16_t port,
                   int connect_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    throw IoError{"invalid IPv4 address: " + host};
  }

  if (connect_timeout_ms > 0) {
    // Non-blocking connect + poll: a dead IP fails in connect_timeout_ms
    // instead of the kernel's multi-minute SYN retry schedule.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      throw_errno("fcntl");
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (errno != EINPROGRESS) throw_errno("connect");
      pollfd pfd{fd, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, connect_timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) throw_errno("poll");
      if (rc == 0) {
        throw TimeoutError{"connect to " + host + ":" + std::to_string(port)};
      }
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
        throw_errno("getsockopt(SO_ERROR)");
      }
      if (err != 0) {
        errno = err;
        throw_errno("connect");
      }
    }
    if (::fcntl(fd, F_SETFL, flags) != 0) throw_errno("fcntl");
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) != 0) {
    throw_errno("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  listen_fd_ = Socket(fd);

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind");
  }
  if (::listen(fd, backlog) != 0) throw_errno("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

Socket TcpListener::accept_one() {
  for (;;) {
    const int fd = ::accept(listen_fd_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

std::optional<Socket> TcpListener::accept_for(int timeout_ms) {
  pollfd pfd{listen_fd_.fd(), POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) throw_errno("poll");
  if (rc == 0) return std::nullopt;
  return accept_one();
}

namespace {

/// One connection's request/response loop. Handler failures become
/// structured ErrorResponse replies so the client learns *why*; only
/// framing and transport failures end the connection.
void service_connection(Socket& client, const TcpListener::Handler& handler,
                        const ServeOptions& options, ServeStats& stats) {
  Bytes request;
  try {
    for (;;) {
      try {
        if (!client.recv_message(request, options.max_message_bytes)) {
          return;  // clean hangup
        }
      } catch (const DecodeError& e) {
        // Oversized frame header: the stream position is unrecoverable, so
        // answer with a structured error and drop the connection.
        stats.decode_errors.fetch_add(1, std::memory_order_relaxed);
        VP_OBS_COUNT("net.server.decode_errors", 1);
        ErrorResponse err;
        err.code = ErrorResponse::kBadRequest;
        err.message = e.what();
        client.send_message(err.encode());
        stats.responses.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Bytes response;
      try {
        response = handler(request);
      } catch (const DecodeError& e) {
        stats.handler_errors.fetch_add(1, std::memory_order_relaxed);
        VP_OBS_COUNT("net.server.handler_errors", 1);
        ErrorResponse err;
        err.code = ErrorResponse::kBadRequest;
        err.message = e.what();
        response = err.encode();
      } catch (const std::exception& e) {
        stats.handler_errors.fetch_add(1, std::memory_order_relaxed);
        VP_OBS_COUNT("net.server.handler_errors", 1);
        ErrorResponse err;
        err.code = ErrorResponse::kHandlerFailure;
        err.message = e.what();
        response = err.encode();
      }
      client.send_message(response);
      stats.responses.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const TimeoutError&) {
    // Peer stalled past the deadline: free the worker, count it.
    stats.timeouts.fetch_add(1, std::memory_order_relaxed);
    VP_OBS_COUNT("net.server.timeouts", 1);
  } catch (const Error&) {
    stats.io_errors.fetch_add(1, std::memory_order_relaxed);
    VP_OBS_COUNT("net.server.io_errors", 1);
  }
}

}  // namespace

void TcpListener::serve(const Handler& handler,
                        const std::function<bool()>& keep_going,
                        const ServeOptions& options, ServeStats* stats) {
  ServeStats local_stats;
  ServeStats& s = stats ? *stats : local_stats;

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t active = 0;

  while (keep_going()) {
    std::optional<Socket> client = accept_for(options.poll_interval_ms);
    if (!client) continue;
    s.accepted.fetch_add(1, std::memory_order_relaxed);
    VP_OBS_COUNT("net.server.accepted", 1);
    if (options.io_timeout_ms > 0) {
      client->set_recv_timeout(options.io_timeout_ms);
      client->set_send_timeout(options.io_timeout_ms);
    }
    if (options.pool == nullptr) {
      service_connection(*client, handler, options, s);
      continue;
    }
    {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return active < options.max_connections; });
      ++active;
      // Connections currently handed to workers (servicing or queued on
      // the pool): the backlog signal behind admission decisions.
      VP_OBS_GAUGE_SET("server.queue_depth", static_cast<double>(active));
    }
    // shared_ptr because std::function requires copyable captures.
    auto conn = std::make_shared<Socket>(std::move(*client));
    options.pool->submit([&handler, &options, &s, &mutex, &cv, &active,
                          conn] {
      service_connection(*conn, handler, options, s);
      // Notify under the lock: the drain below may destroy `cv` the moment
      // it observes active == 0, and it can only re-check the predicate
      // once this task has released the mutex — i.e. after notify_all has
      // fully returned.
      std::lock_guard lock(mutex);
      --active;
      VP_OBS_GAUGE_SET("server.queue_depth", static_cast<double>(active));
      cv.notify_all();
    });
  }
  // Drain: serve owns the handler/options lifetimes the tasks reference.
  std::unique_lock lock(mutex);
  cv.wait(lock, [&] { return active == 0; });
}

}  // namespace vp
