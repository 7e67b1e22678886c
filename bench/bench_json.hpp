// bench_json.hpp — machine-readable perf snapshots for the micro benches.
//
// Each micro bench measures one *headline* steady-state workload (setup
// excluded from the timed region) and writes `BENCH_<name>.json` into the
// working directory — the repo root when invoked from CI — so the perf
// trajectory is diffable across PRs and `tools/bench_gate` can fail the
// build on a regression.  Format (one object, stable keys):
//
//   {"bench": "micro_des", "events_per_s": 1.23e7,
//    "wall_s": 0.081, "peak_rss_bytes": 14680064}
//
// `events_per_s` is the headline throughput (events, tasklets, spans —
// whatever the bench's unit of work is); `wall_s` is the wall time of the
// timed region (micro_des and micro_engine keep the best of three
// repetitions; the other benches time one run); `peak_rss_bytes` is
// ru_maxrss at write time.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

namespace lobster::benchjson {

/// Peak resident set size of this process, in bytes (Linux ru_maxrss is
/// reported in KiB).
inline std::int64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;
}

struct Headline {
  double events = 0.0;  ///< units of work completed in the timed region
  double wall_s = 0.0;  ///< wall time of the timed region
  const char* unit = "events";  ///< what `events` counts (printed only)
  [[nodiscard]] double events_per_s() const {
    return wall_s > 0.0 ? events / wall_s : 0.0;
  }
};

/// Wall-clock stopwatch for the measured region only.  steady_clock is the
/// one wall source the determinism lint allows: it never feeds simulation
/// state, only the perf report.
class Stopwatch {
 public:
  void start() { t0_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double stop() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Write BENCH_<name>.json in the current directory.  Returns false (and
/// prints a warning) when the file cannot be written; benches treat that as
/// non-fatal so ad-hoc runs in read-only checkouts still print results.
inline bool write_snapshot(const std::string& name, const Headline& h) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\"bench\": \"%s\", \"events_per_s\": %.6g, \"wall_s\": "
               "%.6g, \"peak_rss_bytes\": %lld}\n",
               name.c_str(), h.events_per_s(), h.wall_s,
               static_cast<long long>(peak_rss_bytes()));
  std::fclose(f);
  // stderr, so a figure bench's stdout stays the figure alone.
  std::fprintf(stderr, "%s: %.3g %s/s (wall %.3gs) -> %s\n", name.c_str(),
               h.events_per_s(), h.unit, h.wall_s, path.c_str());
  return true;
}

/// True when `--headline-only` is among the arguments: run the headline
/// measurement, write the snapshot, and skip the google-benchmark suite
/// (what CI's perf-gate step wants).
inline bool headline_only(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--headline-only") return true;
  return false;
}

/// Strip `--headline-only` so benchmark::Initialize does not reject it.
inline void strip_headline_flag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i)
    if (std::string(argv[i]) != "--headline-only") argv[out++] = argv[i];
  *argc = out;
}

}  // namespace lobster::benchjson
