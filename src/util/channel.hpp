// channel.hpp — a bounded/unbounded MPMC blocking queue used as the message
// channel between the real (thread-based) Work Queue master, foremen and
// workers.  Closing the channel wakes all blocked receivers; receive returns
// nullopt once the channel is closed and drained.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/thread_annotations.hpp"

namespace lobster::util {

template <typename T>
class Channel {
 public:
  /// capacity == 0 means unbounded.
  explicit Channel(std::size_t capacity = 0) : capacity_(capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Returns false when the channel has been closed (the item is dropped).
  /// (unique_lock + cv wait: outside clang's attribute analysis; the
  /// lexical lobster_lint tracker still checks these bodies.)
  bool send(T item) LOBSTER_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&]() LOBSTER_NO_THREAD_SAFETY_ANALYSIS {
      return closed_ || capacity_ == 0 || queue_.size() < capacity_;
    });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the channel is closed and empty.
  std::optional<T> receive() LOBSTER_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&]() LOBSTER_NO_THREAD_SAFETY_ANALYSIS {
      return closed_ || !queue_.empty();
    });
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Timed receive: waits up to `timeout` for an item; nullopt on timeout
  /// or when closed and drained (check drained() to distinguish).
  std::optional<T> receive_for(std::chrono::milliseconds timeout)
      LOBSTER_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock lock(mutex_);
    not_empty_.wait_for(lock, timeout, [&]() LOBSTER_NO_THREAD_SAFETY_ANALYSIS {
      return closed_ || !queue_.empty();
    });
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// True once the channel is closed and every item has been consumed.
  bool drained() const {
    std::lock_guard lock(mutex_);
    return closed_ && queue_.empty();
  }

  /// Non-blocking receive.
  std::optional<T> try_receive() LOBSTER_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_ LOBSTER_GUARDED_BY(mutex_);
  std::size_t capacity_ LOBSTER_NOT_GUARDED(immutable after construction);
  bool closed_ LOBSTER_GUARDED_BY(mutex_) = false;
};

}  // namespace lobster::util
