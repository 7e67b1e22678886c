#include "cvmfs/parrot_cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace lobster::cvmfs {

namespace {
/// Fold object sizes in sorted-path order: summing in hash order would make
/// the reported total depend on the unordered_map's bucket layout, and FP
/// addition is not associative.
template <typename Store>
double sum_bytes_ordered(const Store& store) {
  std::vector<std::pair<std::string_view, double>> items;
  items.reserve(store.size());
  for (const auto& [path, e] : store) items.emplace_back(path, e.bytes);
  std::sort(items.begin(), items.end());
  double total = 0.0;
  for (const auto& [path, bytes] : items) total += bytes;
  return total;
}
}  // namespace

const char* to_string(CacheMode mode) {
  switch (mode) {
    case CacheMode::Exclusive: return "exclusive";
    case CacheMode::PerInstance: return "per-instance";
    case CacheMode::Alien: return "alien";
  }
  return "?";
}

CacheGroup::CacheGroup(CacheMode mode, Fetcher fetcher)
    : mode_(mode), fetcher_(std::move(fetcher)) {
  if (!fetcher_) throw std::invalid_argument("CacheGroup: null fetcher");
}

CacheGroup::Instance CacheGroup::make_instance() {
  std::lock_guard lock(instances_mutex_);
  const std::size_t id = instance_stores_.size();
  instance_stores_.push_back(
      std::make_unique<std::pair<std::mutex, Store>>());
  return Instance(this, id);
}

std::size_t CacheGroup::stored_objects() const {
  auto* self = const_cast<CacheGroup*>(this);
  if (mode_ == CacheMode::PerInstance) {
    std::lock_guard lock(self->instances_mutex_);
    std::size_t n = 0;
    for (const auto& store : self->instance_stores_) {
      std::lock_guard slock(store->first);
      n += store->second.size();
    }
    return n;
  }
  std::shared_lock lock(self->cache_lock_);
  return shared_store_.size();
}

double CacheGroup::stored_bytes() const {
  auto* self = const_cast<CacheGroup*>(this);
  double total = 0.0;
  if (mode_ == CacheMode::PerInstance) {
    std::lock_guard lock(self->instances_mutex_);
    for (const auto& store : self->instance_stores_) {
      std::lock_guard slock(store->first);
      total += sum_bytes_ordered(store->second);
    }
    return total;
  }
  std::shared_lock lock(self->cache_lock_);
  return sum_bytes_ordered(shared_store_);
}

AccessResult CacheGroup::Instance::access(const FileObject& obj) {
  switch (group_->mode_) {
    case CacheMode::Exclusive: return group_->access_exclusive(obj);
    case CacheMode::PerInstance: return group_->access_per_instance(obj, id_);
    case CacheMode::Alien: return group_->access_alien(obj);
  }
  return {};
}

AccessResult CacheGroup::access_exclusive(const FileObject& obj) {
  // Fast path: shared read lock, hit if present.
  {
    std::shared_lock lock(cache_lock_);
    const auto it = shared_store_.find(obj.path);
    if (it != shared_store_.end()) {
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      return {it->second.digest, true, 0.0};
    }
  }
  // Miss: the whole-cache write lock is held for the entire fetch — this is
  // precisely the Figure 6(a) pathology: concurrent cold instances
  // serialise behind one writer.
  std::unique_lock lock(cache_lock_, std::try_to_lock);
  if (!lock.owns_lock()) {
    stats_.lock_waits.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  const auto it = shared_store_.find(obj.path);
  if (it != shared_store_.end()) {
    // Populated while we waited for the lock.
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    return {it->second.digest, true, 0.0};
  }
  const Digest d = fetcher_(obj);
  shared_store_.emplace(obj.path, Entry{d, obj.size_bytes});
  stats_.fetches.fetch_add(1, std::memory_order_relaxed);
  stats_.add_bytes(obj.size_bytes);
  return {d, false, obj.size_bytes};
}

AccessResult CacheGroup::access_per_instance(const FileObject& obj,
                                             std::size_t id) {
  std::pair<std::mutex, Store>* store;
  {
    std::lock_guard lock(instances_mutex_);
    store = instance_stores_.at(id).get();
  }
  {
    std::lock_guard lock(store->first);
    const auto it = store->second.find(obj.path);
    if (it != store->second.end()) {
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      return {it->second.digest, true, 0.0};
    }
  }
  // Fetch outside the map lock: instances never contend with each other,
  // but each one downloads its own copy (duplicate bandwidth).
  const Digest d = fetcher_(obj);
  {
    std::lock_guard lock(store->first);
    store->second.emplace(obj.path, Entry{d, obj.size_bytes});
  }
  stats_.fetches.fetch_add(1, std::memory_order_relaxed);
  stats_.add_bytes(obj.size_bytes);
  return {d, false, obj.size_bytes};
}

AccessResult CacheGroup::access_alien(const FileObject& obj) {
  // Per-object coordination: the first accessor fetches, concurrent
  // accessors of the *same* object wait for it, accessors of different
  // objects proceed in parallel (Figure 6(d)).  Safe because the repository
  // is read-only: an object, once present, never changes.
  std::shared_ptr<ObjectState> state;
  {
    std::lock_guard lock(objects_mutex_);
    auto& slot = objects_[obj.path];
    if (!slot) slot = std::make_shared<ObjectState>();
    state = slot;
  }

  std::unique_lock lock(state->m);
  if (state->present) {
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock slock(cache_lock_);
    return {shared_store_.at(obj.path).digest, true, 0.0};
  }
  if (state->fetching) {
    stats_.lock_waits.fetch_add(1, std::memory_order_relaxed);
    state->cv.wait(lock, [&]() LOBSTER_NO_THREAD_SAFETY_ANALYSIS {
      return state->present;
    });
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock slock(cache_lock_);
    return {shared_store_.at(obj.path).digest, true, 0.0};
  }
  state->fetching = true;
  lock.unlock();

  const Digest d = fetcher_(obj);

  {
    std::unique_lock wlock(cache_lock_);
    shared_store_.emplace(obj.path, Entry{d, obj.size_bytes});
  }
  stats_.fetches.fetch_add(1, std::memory_order_relaxed);
  stats_.add_bytes(obj.size_bytes);

  lock.lock();
  state->present = true;
  lock.unlock();
  state->cv.notify_all();
  return {d, false, obj.size_bytes};
}

}  // namespace lobster::cvmfs
