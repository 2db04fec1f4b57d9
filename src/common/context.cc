#include "common/context.h"

#include <string>
#include <utility>

#include "common/governor.h"

namespace hygraph {

namespace {
thread_local QueryContext* g_current_context = nullptr;
}  // namespace

QueryContext::~QueryContext() {
  if (governor_ != nullptr && reserved_bytes_ > 0) {
    governor_->Release(reserved_bytes_);
  }
}

void QueryContext::SetTimeout(uint64_t timeout_ms,
                              std::function<uint64_t()> now_nanos) {
  if (timeout_ms == 0 || !now_nanos) return;
  now_nanos_ = std::move(now_nanos);
  deadline_nanos_ = now_nanos_() + timeout_ms * 1'000'000ull;
}

void QueryContext::SetDeadline(uint64_t deadline_nanos,
                               std::function<uint64_t()> now_nanos) {
  if (deadline_nanos == 0 || !now_nanos) return;
  now_nanos_ = std::move(now_nanos);
  deadline_nanos_ = deadline_nanos;
}

Status QueryContext::CheckNow() {
  since_check_ = 0;
  if (cancelled()) {
    return Status::Cancelled("query cancelled after " +
                             std::to_string(charged_) + " units of work");
  }
  if (points_budget_ != 0 && charged_ > points_budget_) {
    return Status::ResourceExhausted(
        "points budget exhausted: " + std::to_string(charged_) + " of " +
        std::to_string(points_budget_) + " units");
  }
  if (deadline_nanos_ != 0 && now_nanos_() >= deadline_nanos_) {
    return Status::DeadlineExceeded("query deadline exceeded after " +
                                    std::to_string(charged_) +
                                    " units of work");
  }
  return Status::OK();
}

Status QueryContext::ReserveMemory(uint64_t bytes) {
  if (governor_ == nullptr || bytes == 0) return Status::OK();
  HYGRAPH_RETURN_IF_ERROR(governor_->Reserve(bytes));
  reserved_bytes_ += bytes;
  return Status::OK();
}

void QueryContext::ReleaseMemory(uint64_t bytes) {
  if (governor_ == nullptr || bytes == 0) return;
  if (bytes > reserved_bytes_) bytes = reserved_bytes_;
  governor_->Release(bytes);
  reserved_bytes_ -= bytes;
}

void QueryContext::AttachGovernor(ResourceGovernor* governor) {
  if (governor_ != nullptr && reserved_bytes_ > 0) {
    governor_->Release(reserved_bytes_);
    reserved_bytes_ = 0;
  }
  governor_ = governor;
}

QueryContext* QueryContext::Current() { return g_current_context; }

QueryContext::Scope::Scope(QueryContext* ctx) : previous_(g_current_context) {
  g_current_context = ctx;
}

QueryContext::Scope::~Scope() { g_current_context = previous_; }

}  // namespace hygraph
