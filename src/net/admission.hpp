// Adaptive admission control: bound concurrent request work and shed the
// excess with structured kOverloaded replies instead of letting queueing
// blow every deadline (DESIGN.md §13).
//
// AdmissionGate is the one shared primitive: a lock-free inflight counter
// with a configurable cap. `try_enter` either admits (inflight +1, strictly
// never above the cap — enforced by CAS, so a sampler can assert the
// invariant at any instant) or sheds, and both outcomes are counted. The
// gate carries no policy about *what* to do on shed; its one production
// call site, VisualPrintServer::handle_query, answers with
// ErrorResponse{kOverloaded}, and RetryingClient treats that reply as
// retryable with honored backoff.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace vp {

/// Inflight-bounded admission gate. All operations are lock-free and safe
/// from any thread; a cap of 0 admits everything (counters still track).
class AdmissionGate {
 public:
  explicit AdmissionGate(std::size_t max_inflight = 0) noexcept
      : cap_(max_inflight) {}
  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Admit (true; inflight grew by one and is <= the cap) or shed (false).
  /// Every call increments exactly one of admitted()/shed().
  bool try_enter() noexcept;

  /// Release one admitted slot. Must pair with a successful try_enter
  /// (AdmissionTicket does this automatically).
  void exit() noexcept;

  /// Reconfigure the cap (0 = unlimited). Takes effect for future
  /// try_enter calls; already-admitted work is never revoked, so a cap
  /// lowered below the current inflight simply sheds until it drains.
  void set_max_inflight(std::size_t cap) noexcept {
    cap_.store(cap, std::memory_order_relaxed);
  }
  std::size_t max_inflight() const noexcept {
    return cap_.load(std::memory_order_relaxed);
  }

  /// Requests currently admitted and not yet exited.
  std::size_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }
  /// Highest inflight ever observed by an admitting thread. With a nonzero
  /// cap this never exceeds it — the property tests pin exactly that.
  std::size_t peak_inflight() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

  std::uint64_t admitted() const noexcept {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed() const noexcept {
    return shed_.load(std::memory_order_relaxed);
  }
  /// shed / (admitted + shed); 0 before any request was offered.
  double shed_rate() const noexcept;

 private:
  std::atomic<std::size_t> cap_;
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
};

/// RAII admission: enters the gate on construction and, when admitted,
/// exits it on destruction.
class AdmissionTicket {
 public:
  explicit AdmissionTicket(AdmissionGate& gate) noexcept
      : gate_(gate), admitted_(gate.try_enter()) {}
  ~AdmissionTicket() {
    if (admitted_) gate_.exit();
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  bool admitted() const noexcept { return admitted_; }

 private:
  AdmissionGate& gate_;
  bool admitted_;  ///< this ticket holds a slot
};

}  // namespace vp
