#include "hdfs/hdfs.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace lobster::hdfs {

Cluster::Cluster(std::size_t num_datanodes, std::size_t replication,
                 std::size_t block_size)
    : replication_(replication), block_size_(block_size) {
  if (num_datanodes == 0) throw HdfsError("hdfs: need at least one datanode");
  if (replication == 0 || replication > num_datanodes)
    throw HdfsError("hdfs: replication must be in [1, num_datanodes]");
  if (block_size == 0) throw HdfsError("hdfs: block size must be positive");
  datanodes_.resize(num_datanodes);
}

std::vector<std::size_t> Cluster::place_replicas_locked(
    std::uint64_t block_id) const {
  // Deterministic placement: start at block_id mod N, take the next
  // `replication_` live datanodes.
  std::vector<std::size_t> out;
  const std::size_t n = datanodes_.size();
  std::size_t start = static_cast<std::size_t>(block_id % n);
  for (std::size_t step = 0; step < n && out.size() < replication_; ++step) {
    const std::size_t idx = (start + step) % n;
    if (datanodes_[idx].alive) out.push_back(idx);
  }
  if (out.empty()) throw HdfsError("hdfs: no live datanodes");
  return out;
}

void Cluster::put(const std::string& path, const std::string& content) {
  if (path.empty()) throw HdfsError("hdfs: empty path");
  std::lock_guard lock(mutex_);
  if (namespace_.count(path)) remove_locked(path);
  std::vector<Block> blocks;
  for (std::size_t off = 0; off == 0 || off < content.size();
       off += block_size_) {
    const std::size_t len = std::min(block_size_, content.size() - off);
    Block b;
    b.id = next_block_++;
    b.size = len;
    b.replicas = place_replicas_locked(b.id);
    const std::string payload = content.substr(off, len);
    for (std::size_t dn : b.replicas) datanodes_[dn].blocks[b.id] = payload;
    blocks.push_back(std::move(b));
    if (content.empty()) break;  // single empty block for empty files
  }
  namespace_[path] = std::move(blocks);
}

std::string Cluster::get(const std::string& path) const {
  std::lock_guard lock(mutex_);
  const auto it = namespace_.find(path);
  if (it == namespace_.end()) throw HdfsError("hdfs: no such file " + path);
  std::string out;
  for (const Block& b : it->second) {
    bool found = false;
    for (std::size_t dn : b.replicas) {
      if (!datanodes_[dn].alive) continue;
      const auto bit = datanodes_[dn].blocks.find(b.id);
      if (bit != datanodes_[dn].blocks.end()) {
        out += bit->second;
        found = true;
        break;
      }
    }
    if (!found)
      throw HdfsError("hdfs: block lost (all replicas dead) in " + path);
  }
  return out;
}

bool Cluster::exists(const std::string& path) const {
  std::lock_guard lock(mutex_);
  return namespace_.count(path) > 0;
}

void Cluster::remove_locked(const std::string& path) {
  const auto it = namespace_.find(path);
  if (it == namespace_.end()) throw HdfsError("hdfs: no such file " + path);
  for (const Block& b : it->second)
    for (std::size_t dn : b.replicas) datanodes_[dn].blocks.erase(b.id);
  namespace_.erase(it);
}

void Cluster::remove(const std::string& path) {
  std::lock_guard lock(mutex_);
  remove_locked(path);
}

FileStatus Cluster::stat(const std::string& path) const {
  std::lock_guard lock(mutex_);
  const auto it = namespace_.find(path);
  if (it == namespace_.end()) throw HdfsError("hdfs: no such file " + path);
  FileStatus st;
  st.path = path;
  st.num_blocks = it->second.size();
  for (const Block& b : it->second) st.size += b.size;
  return st;
}

std::vector<FileStatus> Cluster::list(const std::string& prefix) const {
  std::lock_guard lock(mutex_);
  std::vector<FileStatus> out;
  for (auto it = namespace_.lower_bound(prefix);
       it != namespace_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    FileStatus st;
    st.path = it->first;
    st.num_blocks = it->second.size();
    for (const Block& b : it->second) st.size += b.size;
    out.push_back(std::move(st));
  }
  return out;
}

void Cluster::kill_datanode(std::size_t index) {
  std::lock_guard lock(mutex_);
  if (index >= datanodes_.size()) throw HdfsError("hdfs: no such datanode");
  datanodes_[index].alive = false;
  datanodes_[index].blocks.clear();
}

void Cluster::rereplicate() {
  std::lock_guard lock(mutex_);
  for (auto& [path, blocks] : namespace_) {
    for (Block& b : blocks) {
      // Live replicas that still hold the payload.
      std::vector<std::size_t> live;
      for (std::size_t dn : b.replicas)
        if (datanodes_[dn].alive && datanodes_[dn].blocks.count(b.id))
          live.push_back(dn);
      if (live.empty()) continue;  // lost; nothing to copy from
      const std::string& payload = datanodes_[live.front()].blocks.at(b.id);
      // Add copies on other live nodes until we reach the factor.
      for (std::size_t idx = 0;
           idx < datanodes_.size() && live.size() < replication_; ++idx) {
        if (!datanodes_[idx].alive) continue;
        if (std::find(live.begin(), live.end(), idx) != live.end()) continue;
        datanodes_[idx].blocks[b.id] = payload;
        live.push_back(idx);
      }
      b.replicas = live;
    }
  }
}

std::size_t Cluster::num_datanodes() const {
  std::lock_guard lock(mutex_);
  return datanodes_.size();
}

std::size_t Cluster::live_datanodes() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& dn : datanodes_) n += dn.alive;
  return n;
}

std::size_t Cluster::under_replicated_blocks() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [path, blocks] : namespace_) {
    for (const Block& b : blocks) {
      std::size_t live = 0;
      for (std::size_t dn : b.replicas)
        if (datanodes_[dn].alive && datanodes_[dn].blocks.count(b.id)) ++live;
      if (live < replication_) ++n;
    }
  }
  return n;
}

double Cluster::total_bytes() const {
  std::lock_guard lock(mutex_);
  double sum = 0.0;
  for (const auto& [path, blocks] : namespace_)
    for (const Block& b : blocks) sum += static_cast<double>(b.size);
  return sum;
}

JobStats run_mapreduce(Cluster& cluster, const std::vector<std::string>& inputs,
                       const MapFn& map_fn, const ReduceFn& reduce_fn,
                       const std::string& output_prefix,
                       std::size_t num_threads) {
  if (!map_fn || !reduce_fn) throw HdfsError("mapreduce: null function");
  JobStats stats;
  stats.map_tasks = inputs.size();

  // ---- map phase ----
  std::mutex shuffle_mutex;
  std::map<std::string, std::vector<std::string>> shuffle;
  std::exception_ptr first_error;
  {
    util::ThreadPool pool(num_threads);
    for (const auto& input : inputs) {
      pool.submit([&, input] {
        try {
          const std::string content = cluster.get(input);
          auto pairs = map_fn(input, content);
          std::lock_guard lock(shuffle_mutex);
          for (auto& kv : pairs) {
            shuffle[kv.key].push_back(std::move(kv.value));
            ++stats.intermediate_pairs;
          }
        } catch (...) {
          std::lock_guard lock(shuffle_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    pool.wait();
  }
  if (first_error) std::rethrow_exception(first_error);

  // Sort values per key so reducers see a deterministic order regardless of
  // map-task completion order.
  for (auto& [key, values] : shuffle) std::sort(values.begin(), values.end());

  // ---- reduce phase ----
  stats.reduce_tasks = shuffle.size();
  {
    util::ThreadPool pool(num_threads);
    std::mutex out_mutex;
    for (const auto& [key, values] : shuffle) {
      pool.submit([&, key = key, values = values] {
        try {
          const std::string result = reduce_fn(key, values);
          const std::string out_path = output_prefix + key;
          cluster.put(out_path, result);
          std::lock_guard lock(out_mutex);
          stats.outputs.push_back(out_path);
        } catch (...) {
          std::lock_guard lock(out_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    pool.wait();
  }
  if (first_error) std::rethrow_exception(first_error);
  std::sort(stats.outputs.begin(), stats.outputs.end());
  return stats;
}

}  // namespace lobster::hdfs
