#ifndef HYGRAPH_COMMON_CONTEXT_H_
#define HYGRAPH_COMMON_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace hygraph {

class ResourceGovernor;

/// Per-query governance state: a deadline, a cooperative cancel flag, an
/// optional work budget (rows / points visited), and per-query memory
/// reservations. One QueryContext lives for one query execution and is
/// threaded by pointer through the executor, evaluator, hypertable scans,
/// and graph traversal / pattern-match loops.
///
/// Cost model: hot loops call Charge(n) once per item (or once per batch of
/// items). Charge only bumps two counters and re-reads the atomic cancel
/// flag; the clock is consulted at most once every kCheckInterval charged
/// units, so the per-item overhead on a scan is a null check plus an add.
/// The deadline is therefore enforced with a granularity of one check
/// interval, which is the contract the 2x-deadline acceptance bound relies
/// on.
///
/// Thread-safety: Cancel() / cancelled() may be called from any thread (the
/// flag is atomic). Everything else — Charge, deadlines, budgets, memory
/// accounting — is owned by the single thread running the query, matching
/// how RunPlan executes today.
///
/// Layering: this lives in common/ (not obs/) because graph/ links only
/// hygraph_common; the clock is injected as a plain now-function so the
/// executor can pass obs::SystemClock without common/ depending on obs/.
class QueryContext {
 public:
  /// How many charged units may pass between deadline (clock) checks.
  static constexpr uint64_t kCheckInterval = 1024;

  QueryContext() = default;
  ~QueryContext();

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Arms the deadline `timeout_ms` from now, reading "now" (and all later
  /// deadline checks) through `now_nanos`. A zero timeout is ignored.
  void SetTimeout(uint64_t timeout_ms, std::function<uint64_t()> now_nanos);

  /// Arms an absolute deadline in the time base of `now_nanos`.
  void SetDeadline(uint64_t deadline_nanos,
                   std::function<uint64_t()> now_nanos);

  [[nodiscard]] bool has_deadline() const { return deadline_nanos_ != 0; }

  /// Caps the total units this context may Charge(); exceeding it returns
  /// kResourceExhausted. Zero (the default) means unlimited.
  void SetPointsBudget(uint64_t budget) { points_budget_ = budget; }

  /// Requests cooperative cancellation. Safe from any thread; the running
  /// query observes it at its next Charge() checkpoint.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Accounts `units` of work (rows matched, samples decoded, vertices
  /// popped, ...) and returns the first governance violation hit:
  /// kCancelled, kResourceExhausted (points budget), or kDeadlineExceeded.
  /// Amortized: the deadline clock is read once per kCheckInterval units.
  Status Charge(uint64_t units = 1) {
    charged_ += units;
    since_check_ += units;
    if (since_check_ < kCheckInterval && !cancelled() &&
        (points_budget_ == 0 || charged_ <= points_budget_)) {
      return Status::OK();
    }
    return CheckNow();
  }

  /// Unamortized check: consults the cancel flag, points budget, and clock
  /// immediately. Used at loop boundaries and by Charge's slow path.
  Status CheckNow();

  /// Total units charged so far.
  [[nodiscard]] uint64_t charged() const { return charged_; }

  /// Reserves `bytes` against the process-wide governor (when one is
  /// attached), tracking them so the destructor releases everything this
  /// query still holds. Returns kResourceExhausted when over budget.
  Status ReserveMemory(uint64_t bytes);

  /// Returns `bytes` of this query's reservation to the governor.
  void ReleaseMemory(uint64_t bytes);

  [[nodiscard]] uint64_t reserved_bytes() const { return reserved_bytes_; }

  /// Attaches the governor used by ReserveMemory. Null detaches (memory
  /// accounting becomes a no-op; already-held bytes are released first).
  void AttachGovernor(ResourceGovernor* governor);

  /// The context governing the current thread's query, or nullptr. Deep
  /// layers (hypertable decode loops) resolve this instead of widening
  /// every virtual interface above them — same pattern as RocksDB's
  /// thread-local perf_context.
  static QueryContext* Current();

  /// RAII installer for Current(); restores the previous context on scope
  /// exit so nested RunPlan calls compose.
  class Scope {
   public:
    explicit Scope(QueryContext* ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    QueryContext* previous_;
  };

 private:
  std::function<uint64_t()> now_nanos_;
  uint64_t deadline_nanos_ = 0;  // 0 = no deadline
  uint64_t points_budget_ = 0;   // 0 = unlimited
  uint64_t charged_ = 0;
  uint64_t since_check_ = 0;
  std::atomic<bool> cancelled_{false};
  ResourceGovernor* governor_ = nullptr;
  uint64_t reserved_bytes_ = 0;
};

}  // namespace hygraph

#endif  // HYGRAPH_COMMON_CONTEXT_H_
