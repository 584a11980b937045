// CancelToken: the cooperative-cancellation currency of the query service.
//
// A token is shared between the party that may cancel (the service's
// memory governor, the client, a coordinator call whose simulated deadline
// passed) and the code doing the work. It reaches that code through the
// caller's TaskContext (common/parallel.h): coordinator calls read it at
// fragment, message and loop boundaries, engine morsel loops through the
// parallel pool. Work checks `cancelled()` — one relaxed atomic load — at
// natural yield points and unwinds with `status()` when it fires; the
// coordinator call's run object then drops the call's temps and returns its
// temp namespace, and the service releases the admission slot.
//
// The first Cancel wins: a token records exactly one (code, reason) pair,
// so a query killed by the governor reports kResourceExhausted even if a
// deadline also expires while it unwinds.
#ifndef NEXUS_COMMON_CANCEL_H_
#define NEXUS_COMMON_CANCEL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace nexus {

class CancelToken {
 public:
  /// Requests cancellation with the status the unwinding work should
  /// surface. Thread-safe; only the first call takes effect.
  void Cancel(StatusCode code, std::string reason) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_.load(std::memory_order_relaxed)) return;
    code_ = code;
    reason_ = std::move(reason);
    cancelled_.store(true, std::memory_order_release);
  }

  /// One atomic load; safe to call from any thread at any frequency.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// OK until cancelled; afterwards the (code, reason) given to Cancel.
  Status status() const {
    if (!cancelled()) return Status::OK();
    std::lock_guard<std::mutex> lock(mu_);
    return Status(code_, reason_);
  }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  StatusCode code_ = StatusCode::kCancelled;
  std::string reason_;
};

using CancelTokenPtr = std::shared_ptr<CancelToken>;

}  // namespace nexus

#endif  // NEXUS_COMMON_CANCEL_H_
