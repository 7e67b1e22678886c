#include "des/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

namespace lobster::des {

void Process::promise_type::FinalAwaiter::await_suspend(Handle h) noexcept {
  auto& pr = h.promise();
  Simulation* sim = pr.sim;
  // Keep the completion event alive past frame destruction.
  std::shared_ptr<Event> done = std::move(pr.done);
  if (sim) sim->unregister(pr.live);
  h.destroy();
  if (done) done->trigger();
}

void Process::promise_type::unhandled_exception() {
  if (sim)
    sim->record_error(std::current_exception());
  else
    std::terminate();
}

void Event::trigger() {
  if (triggered_) return;
  triggered_ = true;
  // Resume waiters through the event queue so trigger() never re-enters
  // user coroutines synchronously.
  for (auto h : waiters_) sim_->schedule_resume(0.0, h);
  waiters_.clear();
}

Simulation::~Simulation() {
  // Destroy frames of processes that never finished.  Their pending queue
  // callbacks may capture the (now dangling) handles, but the queue is
  // discarded without executing them.  Frames go down in reverse spawn
  // order (LIFO, like stack unwinding) so teardown side effects never
  // depend on slot-recycling order.
  std::vector<std::pair<std::uint64_t, void*>> frames;
  frames.reserve(live_.size());
  live_.for_each([&frames](EntityHandle, LiveProc& lp) {
    frames.emplace_back(lp.spawn_seq, lp.frame);
  });
  std::sort(frames.begin(), frames.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [spawn_seq, frame] : frames)
    std::coroutine_handle<>::from_address(frame).destroy();
}

void Simulation::schedule(double delay, std::function<void()> fn) {
  // !(>= 0) also rejects NaN, which would silently corrupt queue order.
  if (!(delay >= 0.0)) throw std::invalid_argument("schedule: negative delay");
  queue_.push_fn(now_ + delay, std::move(fn));
}

void Simulation::schedule_resume(double delay, std::coroutine_handle<> h) {
  if (!(delay >= 0.0)) throw std::invalid_argument("schedule: negative delay");
  queue_.push_resume(now_ + delay, h);
}

void Simulation::schedule_at(double t, std::function<void()> fn) {
  if (!(t >= now_)) throw std::invalid_argument("schedule_at: time in the past");
  queue_.push_fn(t, std::move(fn));
}

void Simulation::schedule_resume_at(double t, std::coroutine_handle<> h) {
  if (!(t >= now_)) throw std::invalid_argument("schedule_at: time in the past");
  queue_.push_resume(t, h);
}

ProcessRef Simulation::spawn(Process p) {
  Process::Handle h = std::exchange(p.handle_, nullptr);
  assert(h && "spawn of moved-from Process");
  auto& pr = h.promise();
  pr.sim = this;
  pr.live = live_.emplace(LiveProc{h.address(), spawned_++});
  schedule_resume(0.0, h);
  return ProcessRef(this, pr.live);
}

std::shared_ptr<Event> Simulation::join_event(EntityHandle h) {
  if (LiveProc* lp = live_.get(h)) {
    auto& pr = Process::Handle::from_address(lp->frame).promise();
    if (!pr.done) pr.done = std::make_shared<Event>(*this);
    return pr.done;
  }
  // Process already finished (or handle stale): joining completes
  // immediately, exactly as awaiting its triggered done event would.
  if (!finished_event_) {
    finished_event_ = std::make_shared<Event>(*this);
    finished_event_->trigger();  // no waiters yet; just marks triggered
  }
  return finished_event_;
}

bool Simulation::step() {
  EventQueue::Item item;
  if (!queue_.pop_next(item)) return false;
  assert(item.time >= now_ && "event queue went backwards");
  now_ = item.time;
  events_counter_->add();
  if (item.handle) {
    item.handle.resume();
  } else {
    // Move the callback out (recycling its slab slot) before invoking, so
    // it may freely schedule new events.
    EventQueue::Callback fn = queue_.take_fn(item.fn);
    fn();
  }
  maybe_rethrow();
  return true;
}

void Simulation::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
}

void Simulation::run_until(double t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  if (now_ < t) now_ = t;
}

void Simulation::maybe_rethrow() {
  if (error_) {
    std::exception_ptr e = std::exchange(error_, nullptr);
    std::rethrow_exception(e);
  }
}

}  // namespace lobster::des
