// hdfs.hpp — a Hadoop-style storage cluster: block-based replicated object
// store plus a Map-Reduce-lite execution runtime.
//
// In the production Lobster deployment, Chirp fronts a backend Hadoop
// cluster used for bulk storage (paper §4.2), and one of the three merging
// strategies runs entirely inside Hadoop as a Map-Reduce job (paper §4.4):
// the Map phase groups small output files by name into target merged files,
// and each reducer concatenates its group and writes the merged file back
// into HDFS.  Both pieces are implemented here for real (threads + in-memory
// blocks), with determinism guaranteed by sorted shuffles.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace lobster::hdfs {

struct HdfsError : std::runtime_error {
  explicit HdfsError(const std::string& what) : std::runtime_error(what) {}
};

struct FileStatus {
  std::string path;
  std::uint64_t size = 0;
  std::size_t num_blocks = 0;
};

/// The storage cluster: a namenode (metadata) plus datanodes (block
/// payloads), with configurable block size and replication factor.
class Cluster {
 public:
  Cluster(std::size_t num_datanodes, std::size_t replication,
          std::size_t block_size);

  // ---- file operations (thread safe) --------------------------------------

  /// Create or replace a file.
  void put(const std::string& path, const std::string& content);
  /// Read a whole file; throws HdfsError when missing or when every replica
  /// of some block is on dead datanodes (data loss).
  std::string get(const std::string& path) const;
  bool exists(const std::string& path) const;
  void remove(const std::string& path);
  FileStatus stat(const std::string& path) const;
  std::vector<FileStatus> list(const std::string& prefix) const;

  // ---- cluster management --------------------------------------------------

  /// Take a datanode offline, dropping its block replicas.
  void kill_datanode(std::size_t index);
  /// Copy under-replicated blocks onto other live datanodes (what the real
  /// namenode does in the background).
  void rereplicate();
  [[nodiscard]] std::size_t num_datanodes() const;
  std::size_t live_datanodes() const;
  std::size_t replication() const { return replication_; }
  std::size_t block_size() const { return block_size_; }
  /// Count of blocks with fewer live replicas than the replication factor.
  std::size_t under_replicated_blocks() const;
  [[nodiscard]] double total_bytes() const;

 private:
  struct Block {
    std::uint64_t id;
    std::vector<std::size_t> replicas;  // datanode indices
    std::size_t size;
  };
  struct DataNode {
    bool alive = true;
    std::map<std::uint64_t, std::string> blocks;
  };

  std::vector<std::size_t> place_replicas_locked(std::uint64_t block_id) const
      LOBSTER_REQUIRES(mutex_);
  void remove_locked(const std::string& path) LOBSTER_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::size_t replication_ LOBSTER_NOT_GUARDED(immutable after construction);
  std::size_t block_size_ LOBSTER_NOT_GUARDED(immutable after construction);
  std::uint64_t next_block_ LOBSTER_GUARDED_BY(mutex_) = 1;
  std::map<std::string, std::vector<Block>> namespace_
      LOBSTER_GUARDED_BY(mutex_);
  std::vector<DataNode> datanodes_ LOBSTER_GUARDED_BY(mutex_);
};

// ---- Map-Reduce-lite -------------------------------------------------------

struct KeyValue {
  std::string key;
  std::string value;
};

/// Map: (input path, content) -> intermediate key/value pairs.
using MapFn =
    std::function<std::vector<KeyValue>(const std::string& path,
                                        const std::string& content)>;
/// Reduce: (key, all values for the key, sorted) -> output file content.
using ReduceFn = std::function<std::string(
    const std::string& key, const std::vector<std::string>& values)>;

struct JobStats {
  std::size_t map_tasks = 0;
  std::size_t reduce_tasks = 0;
  std::size_t intermediate_pairs = 0;
  std::vector<std::string> outputs;  // paths written, sorted
};

/// Run a Map-Reduce job over files already stored in the cluster; each
/// reducer's result is written to `output_prefix + key`.  Deterministic:
/// the shuffle sorts keys and values.  Map and reduce tasks execute on
/// `num_threads` real threads.
JobStats run_mapreduce(Cluster& cluster, const std::vector<std::string>& inputs,
                       const MapFn& map_fn, const ReduceFn& reduce_fn,
                       const std::string& output_prefix,
                       std::size_t num_threads = 4);

}  // namespace lobster::hdfs
