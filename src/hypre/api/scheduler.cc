#include "hypre/api/scheduler.h"

#include <chrono>

#include "hypre/telemetry/registry.h"

namespace hypre {
namespace api {

#if HYPRE_TELEMETRY_ENABLED
namespace {

telemetry::Gauge* QueueDepthGauge() {
  static telemetry::Gauge* g = telemetry::MetricsRegistry::Global().GetGauge(
      "hypre_api_admission_queue_depth", "api",
      "Requests currently waiting for admission");
  return g;
}

telemetry::Gauge* InflightGauge() {
  static telemetry::Gauge* g = telemetry::MetricsRegistry::Global().GetGauge(
      "hypre_api_admission_inflight", "api",
      "Requests currently admitted and running");
  return g;
}

telemetry::Counter* AdmittedCounter() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "hypre_api_admission_admitted_total", "api",
          "Requests admitted by the scheduler");
  return c;
}

telemetry::Histogram* WaitHistogram() {
  static telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "hypre_api_admission_wait_us", "api",
          "Microseconds spent queued before admission");
  return h;
}

telemetry::Counter* RejectedCounter() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "hypre_api_admission_rejected_total", "api",
          "Requests shed by the scheduler (queue full or deadline expired)");
  return c;
}

}  // namespace
#endif  // HYPRE_TELEMETRY_ENABLED

bool AdmissionScheduler::HasCapacityLocked(size_t cost) const {
  if (options_.max_concurrent != 0 && inflight_ >= options_.max_concurrent) {
    return false;
  }
  if (options_.max_inflight_probe_budget != 0 && cost != 0) {
    // A request too large for the cap on its own is admitted when nothing
    // else is in flight — otherwise it would starve behind every smaller
    // request forever.
    if (inflight_budget_ + cost > options_.max_inflight_probe_budget &&
        inflight_ != 0) {
      return false;
    }
  }
  return true;
}

void AdmissionScheduler::SkipAbandonedLocked() {
  while (abandoned_.erase(admit_cursor_) != 0) ++admit_cursor_;
}

Result<AdmissionScheduler::Ticket> AdmissionScheduler::TryAdmit(
    size_t cost,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
#if HYPRE_TELEMETRY_ENABLED
  const auto enqueued = std::chrono::steady_clock::now();
#endif
  std::unique_lock<std::mutex> lock(mu_);
  if (next_ticket_ != admit_cursor_ || !HasCapacityLocked(cost)) {
    // The request would have to queue. Shed it if the queue is already at
    // its bound, or if its deadline has no waiting room left at all.
    if (options_.max_queue_depth != 0 &&
        waiting_ >= options_.max_queue_depth) {
      ++rejected_total_;
      HYPRE_TELEMETRY_STMT(RejectedCounter()->Increment());
      return Status::Unavailable(
          "admission queue full (" + std::to_string(waiting_) +
          " requests waiting, cap " +
          std::to_string(options_.max_queue_depth) + ")");
    }
    if (deadline.has_value() &&
        std::chrono::steady_clock::now() >= *deadline) {
      ++rejected_total_;
      HYPRE_TELEMETRY_STMT(RejectedCounter()->Increment());
      return Status::Unavailable(
          "admission deadline expired before the request could queue");
    }
  }
  const uint64_t my_ticket = next_ticket_++;
  bool waited = false;
  // Strict FIFO: even with capacity free, a request behind an unadmitted
  // older request waits — capacity freed by a release goes to the oldest
  // waiter first, so large requests cannot be starved by small ones.
  while (my_ticket != admit_cursor_ || !HasCapacityLocked(cost)) {
    if (!waited) {
      waited = true;
      ++waiting_;
    }
    HYPRE_TELEMETRY_STMT(
        QueueDepthGauge()->Set(static_cast<int64_t>(waiting_)));
    if (deadline.has_value()) {
      if (cv_.wait_until(lock, *deadline) == std::cv_status::timeout &&
          (my_ticket != admit_cursor_ || !HasCapacityLocked(cost))) {
        // Still queued at the deadline: abandon the place in line. A head
        // ticket advances the cursor itself so the next waiter is not
        // stalled; any other ticket is skipped when the cursor reaches it.
        --waiting_;
        if (my_ticket == admit_cursor_) {
          ++admit_cursor_;
          SkipAbandonedLocked();
          cv_.notify_all();
        } else {
          abandoned_.insert(my_ticket);
        }
        ++rejected_total_;
        HYPRE_TELEMETRY_STMT(RejectedCounter()->Increment();
                             QueueDepthGauge()->Set(
                                 static_cast<int64_t>(waiting_)));
        return Status::Unavailable("admission wait deadline exceeded");
      }
    } else {
      cv_.wait(lock);
    }
  }
  if (waited) --waiting_;
  ++admit_cursor_;
  SkipAbandonedLocked();
  ++inflight_;
  inflight_budget_ += cost;
  ++admitted_total_;
  if (waited) ++waited_total_;
  // The next-oldest waiter may also fit under the caps; let it re-check.
  cv_.notify_all();
#if HYPRE_TELEMETRY_ENABLED
  QueueDepthGauge()->Set(static_cast<int64_t>(waiting_));
  InflightGauge()->Set(static_cast<int64_t>(inflight_));
  AdmittedCounter()->Increment();
  if (waited) {
    WaitHistogram()->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - enqueued)
            .count()));
  }
#endif
  return Ticket(this, cost);
}

void AdmissionScheduler::ReleaseLocked(size_t cost) {
  --inflight_;
  inflight_budget_ -= cost;
  HYPRE_TELEMETRY_STMT(InflightGauge()->Set(static_cast<int64_t>(inflight_)));
}

void AdmissionScheduler::Ticket::Release() {
  if (scheduler_ == nullptr) return;
  AdmissionScheduler* scheduler = scheduler_;
  scheduler_ = nullptr;
  {
    std::lock_guard<std::mutex> lock(scheduler->mu_);
    scheduler->ReleaseLocked(cost_);
  }
  scheduler->cv_.notify_all();
}

void AdmissionScheduler::set_options(const Options& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    options_ = options;
  }
  cv_.notify_all();
}

AdmissionScheduler::Options AdmissionScheduler::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

AdmissionScheduler::Stats AdmissionScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.admitted = admitted_total_;
  stats.waited = waited_total_;
  stats.rejected = rejected_total_;
  stats.inflight = inflight_;
  stats.inflight_budget = inflight_budget_;
  stats.queue_depth = waiting_;
  return stats;
}

}  // namespace api
}  // namespace hypre
