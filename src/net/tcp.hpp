// TCP transport for running the VisualPrint client and cloud service as
// real processes. RAII sockets, length-prefixed message framing, per-socket
// deadlines, and a concurrent accept loop that borrows the shared
// ThreadPool (see examples/vp_server_main.cpp, examples/vp_client_main.cpp).
//
// Framing: every message is u32 little-endian length followed by that many
// bytes (the encoded wire messages of net/wire.hpp). Length is capped to
// protect the receiver from hostile peers.
//
// Fault model (DESIGN.md §8): deadlines turn a stalled peer into a
// TimeoutError instead of a wedged thread; `serve` turns handler failures
// into structured ErrorResponse (`VPE!`) replies instead of dropped
// connections, and counts every failure class in ServeStats.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "util/bytes.hpp"

namespace vp {

class ThreadPool;

/// Owning socket handle (move-only RAII).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Per-socket deadlines (SO_RCVTIMEO / SO_SNDTIMEO). Once set, a recv or
  /// send that stalls past the deadline throws TimeoutError instead of
  /// blocking forever. `ms <= 0` clears the deadline (block indefinitely).
  void set_recv_timeout(int ms);
  void set_send_timeout(int ms);

  /// Send all bytes (loops over partial writes). Throws IoError, or
  /// TimeoutError when a send deadline is set and expires.
  void send_all(std::span<const std::uint8_t> data);

  /// Receive exactly n bytes. Returns false on clean EOF at a message
  /// boundary (start of the read); throws IoError on partial reads/errors
  /// and TimeoutError when a recv deadline expires.
  bool recv_exact(std::span<std::uint8_t> out);

  /// Length-prefixed framing over this socket.
  void send_message(std::span<const std::uint8_t> payload);
  /// Returns false on clean EOF. Throws DecodeError for oversized frames
  /// (checked against `max_bytes` before any allocation).
  bool recv_message(Bytes& out, std::size_t max_bytes = 256 * 1024 * 1024);

 private:
  int fd_ = -1;
};

/// Connect to host:port (IPv4 dotted or "localhost"). Throws IoError on
/// refusal/unreachability and TimeoutError when `connect_timeout_ms > 0`
/// and the peer does not answer the handshake in time (a dead IP would
/// otherwise block for the kernel's multi-minute SYN retry schedule).
Socket tcp_connect(const std::string& host, std::uint16_t port,
                   int connect_timeout_ms = 0);

/// Failure/throughput counters for one `serve` call. All fields are
/// monotonic; read them from any thread. `serve` counts failures instead
/// of swallowing them — a misbehaving client costs its own connection and
/// leaves an audit trail here (mirrored into the obs registry under
/// net.server.*).
struct ServeStats {
  std::atomic<std::uint64_t> accepted{0};        ///< connections accepted
  std::atomic<std::uint64_t> responses{0};       ///< replies sent (incl. errors)
  std::atomic<std::uint64_t> handler_errors{0};  ///< handler threw -> VPE! reply
  std::atomic<std::uint64_t> decode_errors{0};   ///< unframeable input -> VPE! + close
  std::atomic<std::uint64_t> timeouts{0};        ///< peer stalled past deadline
  std::atomic<std::uint64_t> io_errors{0};       ///< connection died mid-exchange
};

/// Tuning for `TcpListener::serve`.
struct ServeOptions {
  /// Borrowed worker pool; connections are serviced concurrently on it.
  /// nullptr = service each connection inline on the accept thread (the
  /// pre-existing single-client behaviour).
  ThreadPool* pool = nullptr;
  /// Bound on concurrently serviced connections. Accepting blocks once the
  /// bound is reached; deadlines guarantee the wait is finite.
  std::size_t max_connections = 32;
  /// Per-socket recv/send deadline for accepted connections; a stalled
  /// client can hold a worker for at most this long. <= 0 disables.
  int io_timeout_ms = 10'000;
  /// Frame size cap for incoming requests.
  std::size_t max_message_bytes = 256 * 1024 * 1024;
  /// How often the accept loop re-checks `keep_going` while idle.
  int poll_interval_ms = 50;
};

/// Listening socket bound to 127.0.0.1:port (port 0 = ephemeral).
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port, int backlog = 8);

  /// Port actually bound (useful with port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Block until one client connects.
  Socket accept_one();

  /// Wait up to `timeout_ms` for a client; nullopt on timeout.
  std::optional<Socket> accept_for(int timeout_ms);

  /// Serve until `handler` returns false. One response per request; the
  /// handler runs once per received frame. Handler exceptions become
  /// structured ErrorResponse replies (the connection survives); framing
  /// and I/O failures close only the offending connection. With
  /// `options.pool` set, connections are serviced concurrently (bounded by
  /// `options.max_connections`); `serve` returns only after every
  /// in-flight connection has drained.
  using Handler = std::function<Bytes(std::span<const std::uint8_t>)>;
  void serve(const Handler& handler, const std::function<bool()>& keep_going,
             const ServeOptions& options = {}, ServeStats* stats = nullptr);

 private:
  Socket listen_fd_;
  std::uint16_t port_ = 0;
};

}  // namespace vp
