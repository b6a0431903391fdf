// Admission scheduler: graceful degradation for many-client serving.
//
// Thousands of concurrent Enumerate() callers on one Session would all
// pile onto the cores and the engine caches at once; past the
// core count that buys no throughput, only latency variance and memory
// pressure (every admitted request holds its frontier buffers and an
// epoch pin). The scheduler turns that cliff into a queue: requests are
// admitted strictly FIFO, subject to
//
//   * a concurrency cap (max_concurrent in-flight requests), and
//   * a probe-budget cap (the sum of admitted requests' probe budgets —
//     the API layer's unit of probe spend — stays below
//     max_inflight_probe_budget).
//
// A request whose budget alone exceeds the cap is admitted when it is the
// only one in flight (otherwise it would starve forever); unbudgeted
// requests (probe_budget == 0) count only against the concurrency cap.
// Both caps default to 0 = unlimited, which reduces TryAdmit() to one
// uncontended mutex round-trip — cheap enough to sit on every request.
//
// Overload shedding (the HTTP front end's contract): a saturated scheduler
// must fail fast, not queue unboundedly. TryAdmit() adds two bounds on top
// of the FIFO discipline —
//
//   * max_queue_depth: a request that WOULD have to wait while that many
//     requests are already waiting is rejected immediately, and
//   * a wait deadline: a request still queued when its deadline passes
//     abandons its place in line and is rejected.
//
// Both rejections are Status::Unavailable (typed, so the server maps them
// to 429 + Retry-After). TryAdmit is the only admission entry point;
// without a deadline (std::nullopt) a request waits as long as it takes,
// and only the queue-depth bound can reject it. Abandoned tickets are
// skipped when the FIFO cursor reaches them, so a timed-out head-of-line
// waiter cannot stall the queue.
//
// Telemetry: queue depth and in-flight gauges, admitted- and
// rejected-request counters, and a wait-time histogram
// (hypre_api_admission_*).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "common/status.h"

namespace hypre {
namespace api {

class AdmissionScheduler {
 public:
  struct Options {
    /// In-flight request cap; 0 = unlimited.
    size_t max_concurrent = 0;
    /// Cap on the summed probe budgets of in-flight requests; 0 =
    /// unlimited. An oversized request is admitted when alone.
    size_t max_inflight_probe_budget = 0;
    /// Cap on requests WAITING for admission; 0 = unlimited. A request that
    /// would have to queue behind this many waiters is rejected with
    /// Status::Unavailable instead of blocking.
    size_t max_queue_depth = 0;
  };

  /// \brief One scheduler snapshot, for tests and introspection.
  struct Stats {
    uint64_t admitted = 0;        // requests admitted so far
    uint64_t waited = 0;          // of those, how many had to queue
    uint64_t rejected = 0;        // TryAdmit rejections (queue full/timeout)
    size_t inflight = 0;          // currently admitted requests
    size_t inflight_budget = 0;   // summed probe budgets of those
    size_t queue_depth = 0;       // requests currently waiting
  };

  /// \brief RAII admission slot: holds the request's concurrency/budget
  /// reservation, released on destruction. Move-only.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept
        : scheduler_(other.scheduler_), cost_(other.cost_) {
      other.scheduler_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        scheduler_ = other.scheduler_;
        cost_ = other.cost_;
        other.scheduler_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    void Release();

   private:
    friend class AdmissionScheduler;
    Ticket(AdmissionScheduler* scheduler, size_t cost)
        : scheduler_(scheduler), cost_(cost) {}
    AdmissionScheduler* scheduler_ = nullptr;
    size_t cost_ = 0;
  };

  AdmissionScheduler() = default;
  explicit AdmissionScheduler(const Options& options) : options_(options) {}
  AdmissionScheduler(const AdmissionScheduler&) = delete;
  AdmissionScheduler& operator=(const AdmissionScheduler&) = delete;

  /// \brief Waits until this request is admitted (strict FIFO by arrival,
  /// then capacity), reserving one concurrency slot and `probe_budget`
  /// units of in-flight probe spend, and returns the RAII reservation.
  /// Rejects with Status::Unavailable when the request would have to queue
  /// behind max_queue_depth waiters, or when it is still queued at
  /// `deadline` (std::nullopt = wait forever).
  Result<Ticket> TryAdmit(
      size_t probe_budget,
      std::optional<std::chrono::steady_clock::time_point> deadline =
          std::nullopt);

  /// \brief Replaces the caps. Takes effect for future admission checks;
  /// already-admitted requests keep their reservations. Waiters are
  /// re-woken so a LOOSENED cap admits them promptly.
  void set_options(const Options& options);
  Options options() const;

  Stats stats() const;

 private:
  /// True when `cost` fits under the current caps; caller holds mu_.
  bool HasCapacityLocked(size_t cost) const;
  void ReleaseLocked(size_t cost);
  /// Advances the cursor past tickets whose waiters gave up; caller holds
  /// mu_. Without this, a timed-out head waiter would stall FIFO forever.
  void SkipAbandonedLocked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Options options_;
  // FIFO by ticket number: a waiter is admitted only when it is the oldest
  // waiter (its number == admit_cursor_) AND capacity allows.
  uint64_t next_ticket_ = 0;
  uint64_t admit_cursor_ = 0;
  // Tickets abandoned by a deadline expiry while not at the cursor yet;
  // skipped (and erased) when the cursor reaches them.
  std::unordered_set<uint64_t> abandoned_;
  size_t waiting_ = 0;
  size_t inflight_ = 0;
  size_t inflight_budget_ = 0;
  uint64_t admitted_total_ = 0;
  uint64_t waited_total_ = 0;
  uint64_t rejected_total_ = 0;

  friend class Ticket;
};

}  // namespace api
}  // namespace hypre
