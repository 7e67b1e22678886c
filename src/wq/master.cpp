#include "wq/master.hpp"

namespace lobster::wq {

namespace {
double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}
}  // namespace

bool Master::submit(TaskSpec spec) {
  if (closed_.load(std::memory_order_acquire)) {
    rejected_resubmits_.fetch_add(1, std::memory_order_acq_rel);
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  if (!pending_.send(Stamped{std::move(spec),
                             std::chrono::steady_clock::now()})) {
    // Lost the race with close_submission(): undo the count and record the
    // rejection.  The transient submitted_ inflation may have made
    // close_submission's delivered==submitted check fail spuriously, so
    // re-run the close check here — otherwise nobody closes results_ and
    // next_result() hangs.
    submitted_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_resubmits_.fetch_add(1, std::memory_order_acq_rel);
    maybe_close_results();
    return false;
  }
  return true;
}

void Master::close_submission() {
  bool expected = false;
  if (!closed_.compare_exchange_strong(expected, true)) return;
  pending_.close();
  // If everything already came back, unblock result consumers now.
  maybe_close_results();
}

void Master::maybe_close_results() {
  // BOTH loads must happen under the mutex.  With bare acq/rel each side
  // of the old check (deliver: write delivered_, read closed_;
  // close_submission: write closed_, read delivered_) could read the
  // other's pre-write value — store-buffering, so both skipped the close
  // and next_result() blocked forever.  The mutex serialises the checkers:
  // whichever of close_submission(), the final deliver(), or a doomed
  // submit() locks last observes the terminal state and closes results_.
  std::lock_guard lock(close_mutex_);
  if (!closed_.load(std::memory_order_acquire)) return;
  if (delivered_.load(std::memory_order_acquire) ==
      submitted_.load(std::memory_order_acquire))
    results_.close();
}

std::optional<TaskResult> Master::next_result() { return results_.receive(); }

std::optional<TaskSpec> Master::next_task(std::chrono::milliseconds wait) {
  auto stamped = pending_.receive_for(wait);
  if (!stamped) return std::nullopt;
  dispatched_.fetch_add(1, std::memory_order_acq_rel);
  stamped->spec.dispatch_wait = elapsed_seconds(stamped->enqueued);
  return std::move(stamped->spec);
}

void Master::deliver(TaskResult result) {
  if (result.evicted)
    evicted_.fetch_add(1, std::memory_order_acq_rel);
  else if (result.exit_code == 0)
    completed_.fetch_add(1, std::memory_order_acq_rel);
  else
    failed_.fetch_add(1, std::memory_order_acq_rel);
  results_.send(std::move(result));
  delivered_.fetch_add(1, std::memory_order_acq_rel);
  maybe_close_results();
}

}  // namespace lobster::wq
