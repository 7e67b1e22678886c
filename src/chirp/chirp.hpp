// chirp.hpp — a Chirp-style user-level file server (paper §4.2, §4.4, §6).
//
// Lobster puts a Chirp server in front of the backend Hadoop storage so
// thousands of concurrent tasks can stage their output without overloading
// Work Queue's own data handling.  Two implementations:
//
//  * ChirpServer — a real, thread-safe in-memory file service with the
//    pieces Lobster relies on: hierarchical namespace, put/get/stat/list,
//    ticket-based access control (opportunistic users have no privileged
//    accounts), and a concurrent-connection limit.
//
//  * ChirpSim — the DES cost model: a connection-limited server whose NIC is
//    a shared BandwidthLink.  Limited concurrency + synchronized waves of
//    finishing tasks produce the periodic stage-out delays of Figure 11.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <vector>

#include "des/bandwidth.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "des/task.hpp"
#include "util/thread_annotations.hpp"
#include "util/trace.hpp"

namespace lobster::chirp {

struct ChirpError : std::runtime_error {
  explicit ChirpError(const std::string& what) : std::runtime_error(what) {}
};

/// Access rights attached to a ticket.
enum class Rights : unsigned {
  None = 0,
  Read = 1u << 0,
  Write = 1u << 1,
  List = 1u << 2,
  Admin = 1u << 3,
};
constexpr Rights operator|(Rights a, Rights b) {
  return static_cast<Rights>(static_cast<unsigned>(a) |
                             static_cast<unsigned>(b));
}
constexpr bool has_right(Rights granted, Rights needed) {
  return (static_cast<unsigned>(granted) & static_cast<unsigned>(needed)) ==
         static_cast<unsigned>(needed);
}

/// File metadata returned by stat().
struct FileInfo {
  std::string path;
  std::uint64_t size = 0;
};

/// Real Chirp server; files live in memory.
class ChirpServer {
 public:
  /// `max_connections` bounds concurrent sessions, as the production server
  /// does to "keep the underlying hardware from becoming completely
  /// unresponsive" (paper §6).
  explicit ChirpServer(std::ptrdiff_t max_connections = 64);

  /// Issue a ticket granting `rights` under the subtree `scope`.
  /// Returns the ticket string clients authenticate with.
  std::string issue_ticket(const std::string& scope, Rights rights);
  void revoke_ticket(const std::string& ticket);

  /// A client session; RAII holds one connection slot.
  class Session {
   public:
    ~Session();
    Session(Session&&) noexcept;
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    Session& operator=(Session&&) = delete;

    void put(const std::string& path, std::string content);
    std::string get(const std::string& path) const;
    /// Append to an existing file (creates it when absent) — merge tasks
    /// use this to concatenate outputs.
    void append(const std::string& path, const std::string& content);
    FileInfo stat(const std::string& path) const;
    std::vector<FileInfo> list(const std::string& prefix) const;
    void remove(const std::string& path);

   private:
    friend class ChirpServer;
    Session(ChirpServer* server, std::string scope, Rights rights);
    ChirpServer* server_;
    std::string scope_;
    Rights rights_;
  };

  /// Open a session with a ticket; blocks while the server is at its
  /// connection limit; throws ChirpError on an unknown ticket.
  Session connect(const std::string& ticket);

  [[nodiscard]] double bytes_in() const;
  [[nodiscard]] double bytes_out() const;
  [[nodiscard]] std::size_t num_files() const;

 private:
  friend class Session;
  void check_scope(const std::string& scope, const std::string& path) const;
  /// Contents of `path`; throws ChirpError when absent.
  const std::string& file(const std::string& path) const
      LOBSTER_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::counting_semaphore<1 << 20> connections_;
  std::map<std::string, std::string> files_ LOBSTER_GUARDED_BY(mutex_);
  struct Ticket {
    std::string scope;
    Rights rights;
  };
  std::map<std::string, Ticket> tickets_ LOBSTER_GUARDED_BY(mutex_);
  std::uint64_t next_ticket_ LOBSTER_GUARDED_BY(mutex_) = 1;
  double bytes_in_ LOBSTER_GUARDED_BY(mutex_) = 0.0;
  double bytes_out_ LOBSTER_GUARDED_BY(mutex_) = 0.0;
};

/// DES model of the Chirp server in front of Hadoop.
class ChirpSim {
 public:
  struct Params {
    /// Concurrent transfers admitted; the rest queue FIFO.
    std::int64_t max_connections = 16;
    /// Server NIC, shared by admitted transfers.
    double nic_rate = 1.25e9;  // 10 Gbit/s
    /// Per-request fixed cost (connect, auth, namespace ops).
    double request_latency = 0.2;
  };

  ChirpSim(des::Simulation& sim, const Params& params);

  /// Transfer `bytes` to (put) or from (get) the server; returns wall time.
  des::Task<double> put(double bytes);
  des::Task<double> get(double bytes);

  des::Resource& connections() { return connections_; }
  [[nodiscard]] double bytes_in() const { return bytes_in_; }
  [[nodiscard]] double bytes_out() const { return bytes_out_; }

 private:
  des::Task<double> transfer(double bytes, double& accounting,
                             util::Gauge* volume);

  des::Simulation& sim_;
  Params params_;
  des::Resource connections_;
  des::BandwidthLink nic_;
  double bytes_in_ = 0.0;
  double bytes_out_ = 0.0;
  // Unified counter plane (chirp.*).
  util::Counter* ctr_puts_;
  util::Counter* ctr_gets_;
  util::Gauge* ctr_bytes_in_;
  util::Gauge* ctr_bytes_out_;
};

}  // namespace lobster::chirp
