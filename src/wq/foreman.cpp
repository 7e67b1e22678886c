#include "wq/foreman.hpp"

namespace lobster::wq {

using namespace std::chrono_literals;

Foreman::Foreman(std::string name, TaskSource& upstream, std::size_t window)
    : name_(std::move(name)),
      upstream_(upstream),
      local_(window == 0 ? 1 : window) {
  pump_thread_ = std::thread([this] { pump(); });
}

Foreman::~Foreman() { shutdown(); }

void Foreman::shutdown() {
  stopping_.store(true, std::memory_order_release);
  // Close before joining: the pump may be blocked in a bounded send, which
  // close() unblocks (that one in-flight task is dropped and reported
  // below via the pump's own eviction path).
  local_.close();
  if (pump_thread_.joinable()) pump_thread_.join();
  // Tasks still buffered when a foreman dies are lost downstream; report
  // them upward as evicted so the master's accounting stays exact and the
  // application resubmits them.
  while (auto spec = local_.try_receive()) {
    evicted_.fetch_add(1, std::memory_order_acq_rel);
    TaskResult r;
    r.id = spec->id;
    r.tag = spec->tag;
    r.worker_name = name_;
    r.evicted = true;
    r.exit_code = static_cast<int>(TaskExit::Evicted);
    deliver(std::move(r));
  }
}

void Foreman::pump() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto spec = upstream_.next_task(50ms);
    if (!spec) {
      if (upstream_.drained()) {
        local_.close();
        return;
      }
      continue;
    }
    const std::uint64_t id = spec->id;
    std::string tag = spec->tag;
    // Bounded send: backpressure when our workers are slower than the
    // master can hand out work.  A false return means the foreman was shut
    // down mid-send: report the task as evicted so it is not lost.  Only a
    // successful send counts as relayed — a task evicted mid-send never
    // entered the window, and counting it would overstate throughput by
    // one per shutdown.
    if (!local_.send(std::move(*spec))) {
      TaskResult r;
      r.id = id;
      r.tag = std::move(tag);
      r.worker_name = name_;
      r.evicted = true;
      r.exit_code = static_cast<int>(TaskExit::Evicted);
      deliver(std::move(r));
      return;
    }
    relayed_.fetch_add(1, std::memory_order_acq_rel);
  }
}

std::optional<TaskSpec> Foreman::next_task(std::chrono::milliseconds wait) {
  auto spec = local_.receive_for(wait);
  if (spec) dispatched_.fetch_add(1, std::memory_order_acq_rel);
  return spec;
}

bool Foreman::drained() const { return local_.drained(); }

void Foreman::deliver(TaskResult result) {
  results_.fetch_add(1, std::memory_order_acq_rel);
  upstream_.deliver(std::move(result));
}

}  // namespace lobster::wq
