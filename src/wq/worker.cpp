#include "wq/worker.hpp"

#include <chrono>

namespace lobster::wq {

using namespace std::chrono_literals;

Worker::Worker(std::string name, TaskSource& source, std::size_t slots)
    : name_(std::move(name)), source_(source) {
  if (slots == 0) slots = 1;
  slot_tokens_.resize(slots);
  threads_.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s)
    threads_.emplace_back([this, s] { slot_loop(s); });
}

Worker::~Worker() {
  evict();
  join();
}

void Worker::evict() {
  bool expected = false;
  if (!evicting_.compare_exchange_strong(expected, true)) return;
  std::lock_guard lock(tokens_mutex_);
  for (auto& token : slot_tokens_) token.cancel();
}

void Worker::shutdown() {
  stopping_.store(true, std::memory_order_release);
  join();
}

void Worker::join() {
  for (auto& t : threads_)
    if (t.joinable()) t.join();
}

void Worker::slot_loop(std::size_t slot) {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto spec = source_.next_task(50ms);
    if (!spec) {
      if (source_.drained() || evicting_.load(std::memory_order_acquire))
        return;
      continue;
    }
    TaskResult result;
    result.id = spec->id;
    result.tag = spec->tag;
    result.worker_name = name_;
    result.slot = slot;
    result.dispatch_time = spec->dispatch_wait;

    if (evicting_.load(std::memory_order_acquire)) {
      // Pulled after eviction: never started; hand it back as evicted so
      // the application resubmits the work.
      result.evicted = true;
      result.exit_code = static_cast<int>(TaskExit::Evicted);
      source_.deliver(std::move(result));
      return;
    }

    TaskContext ctx;
    ctx.worker_name = name_;
    ctx.slot = slot;
    {
      std::lock_guard lock(tokens_mutex_);
      slot_tokens_[slot] = CancelToken();  // fresh token for this task
      if (evicting_.load(std::memory_order_acquire))
        slot_tokens_[slot].cancel();
      ctx.cancel = slot_tokens_[slot];
    }

    // Stage the task's inputs into a fresh sandbox through the worker's
    // shared file cache: cacheable inputs cross the wire once per worker.
    Sandbox sandbox;
    bool staging_ok = true;
    for (const auto& input : spec->input_files) {
      try {
        const auto before = file_cache_.bytes_transferred();
        const auto saved_before = file_cache_.bytes_saved();
        InputFile staged = input;
        staged.content = file_cache_.stage_through(input);
        sandbox.stage(staged);
        result.stage_in_bytes += file_cache_.bytes_transferred() - before;
        result.cache_saved_bytes += file_cache_.bytes_saved() - saved_before;
      } catch (...) {
        staging_ok = false;
        break;
      }
    }
    if (!staging_ok) {
      result.exit_code = static_cast<int>(TaskExit::StageInFailure);
      tasks_run_.fetch_add(1, std::memory_order_acq_rel);
      source_.deliver(std::move(result));
      continue;
    }
    ctx.sandbox = &sandbox;

    const auto t0 = std::chrono::steady_clock::now();
    int code;
    try {
      code = spec->work ? spec->work(ctx)
                        : static_cast<int>(TaskExit::WrapperFailure);
    } catch (...) {
      code = static_cast<int>(TaskExit::ExecutionFailure);
    }
    result.execute_time =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    result.outputs = std::move(ctx.outputs);
    result.output_files = sandbox.outputs();
    if (ctx.cancel.cancelled()) {
      result.evicted = true;
      result.exit_code = static_cast<int>(TaskExit::Evicted);
    } else {
      result.exit_code = code;
    }
    tasks_run_.fetch_add(1, std::memory_order_acq_rel);
    source_.deliver(std::move(result));
  }
}

}  // namespace lobster::wq
