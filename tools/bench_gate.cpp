// bench_gate — the perf-regression gate over BENCH_*.json snapshots.
//
// Each micro/fig bench writes a headline snapshot (bench/bench_json.hpp):
//
//   {"bench": "micro_des", "events_per_s": 6.9e6, "wall_s": 0.14, ...}
//
// The repo commits the snapshots measured at merge time; CI re-runs the
// benches and feeds both files to this gate, which fails when the fresh
// headline throughput (`events_per_s`: the bench's unit of work per second
// — kernel events for micro_des/micro_net, tasklets for the Engine runs)
// falls more than the allowed fraction below the committed baseline.  The
// headline numbers are steady-state throughput with setup excluded, so a
// regression here is a real hot-path regression, not a build-farm hiccup
// in workload construction.
//
// Usage: bench_gate [--max-regress PCT] BASELINE FRESH [BASELINE FRESH]...
//
// PCT must be a finite number in [0, 100) (default 15).
// Exit codes: 0 within bounds, 1 regression, 2 usage/IO error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/parse.hpp"

namespace {

struct Snapshot {
  std::string bench;
  double events_per_s = 0.0;
};

/// Minimal parse of the flat snapshot JSON: the files are produced by
/// bench_json.hpp, so a key scan is sufficient (no nesting, no escapes in
/// the values we read).
bool parse_snapshot(const std::string& path, Snapshot* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  const auto number_after = [&](const std::string& key, double* value) {
    const std::size_t k = text.find("\"" + key + "\"");
    if (k == std::string::npos) return false;
    const std::size_t colon = text.find(':', k);
    if (colon == std::string::npos) return false;
    *value = std::strtod(text.c_str() + colon + 1, nullptr);
    return true;
  };
  const std::size_t k = text.find("\"bench\"");
  if (k != std::string::npos) {
    const std::size_t open = text.find('"', text.find(':', k));
    const std::size_t close =
        open == std::string::npos ? open : text.find('"', open + 1);
    if (close != std::string::npos)
      out->bench = text.substr(open + 1, close - open - 1);
  }
  return number_after("events_per_s", &out->events_per_s) &&
         out->events_per_s > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  double max_regress_pct = 15.0;
  std::vector<std::string> files;
  lobster::util::Args args(
      argc, argv, "[--max-regress PCT] BASELINE FRESH [BASELINE FRESH]...");
  while (args.next()) {
    if (args.is("--max-regress")) {
      // A NaN bound would pass every run; "abc", "50x" and negatives are
      // typos, not bounds.
      const auto pct = lobster::util::parse_double_strict(args.text());
      if (!pct || !std::isfinite(*pct) || *pct < 0.0 || *pct >= 100.0)
        args.usage("--max-regress needs a percentage in [0, 100)");
      max_regress_pct = *pct;
    } else if (args.positional()) {
      files.push_back(args.token());
    } else {
      args.usage();
    }
  }
  if (files.empty() || files.size() % 2 != 0)
    args.usage("need BASELINE FRESH file pairs (got " +
               std::to_string(files.size()) + " file(s))");

  bool regressed = false;
  for (std::size_t i = 0; i + 1 < files.size(); i += 2) {
    Snapshot base, fresh;
    if (!parse_snapshot(files[i], &base)) {
      std::fprintf(stderr, "bench_gate: cannot read baseline %s\n",
                   files[i].c_str());
      return 2;
    }
    if (!parse_snapshot(files[i + 1], &fresh)) {
      std::fprintf(stderr, "bench_gate: cannot read fresh %s\n",
                   files[i + 1].c_str());
      return 2;
    }
    const double delta_pct =
        100.0 * (fresh.events_per_s - base.events_per_s) / base.events_per_s;
    const bool bad = delta_pct < -max_regress_pct;
    regressed = regressed || bad;
    std::printf("%-28s %12.4g -> %12.4g per s  %+7.2f%%  %s\n",
                (base.bench.empty() ? files[i] : base.bench).c_str(),
                base.events_per_s, fresh.events_per_s, delta_pct,
                bad ? "REGRESSION" : "ok");
  }
  if (regressed) {
    std::fprintf(stderr,
                 "bench_gate: throughput fell more than %.1f%% below the "
                 "committed snapshot\n",
                 max_regress_pct);
    return 1;
  }
  return 0;
}
