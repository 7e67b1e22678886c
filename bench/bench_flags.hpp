// bench_flags.hpp — strict command-line values for the figure benches.
//
// Every numeric flag goes through util::parse_int_strict /
// parse_double_strict: a missing, malformed or out-of-range value prints
// the bench's usage line and exits 2.  A lax parse would read "--cores x"
// as 0 ("do not scale": the full 10 000-core run) and "--tasklets -5" as
// ~1.8e19 tasklets.
//
//   benchflags::Args args(argc, argv, "[--cores N] [--mode M]");
//   while (args.next()) {
//     if (args.flag() == "--cores") cores = args.integer(1);
//     else if (args.flag() == "--mode") mode = args.text();
//     else args.usage();
//   }
//
// The campaign benches take only --seeds/--jobs: campaign_flags().
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "lobsim/campaign.hpp"
#include "util/parse.hpp"

namespace lobster::benchflags {

/// Print `why` (when given) and the usage line, then exit 2.
[[noreturn]] inline void usage(const char* prog, const char* line,
                               const std::string& why = "") {
  if (!why.empty()) std::fprintf(stderr, "error: %s\n", why.c_str());
  std::fprintf(stderr, "usage: %s %s\n", prog, line);
  std::exit(2);
}

/// Walks argv one flag at a time; every accessor that reads a value
/// consumes it.
class Args {
 public:
  Args(int argc, char** argv, const char* usage_line)
      : argc_(argc), argv_(argv), line_(usage_line) {}

  /// Step to the next flag; false once argv is exhausted.
  bool next() { return ++i_ < argc_; }
  [[nodiscard]] std::string flag() const { return argv_[i_]; }
  [[noreturn]] void usage(const std::string& why = "") const {
    benchflags::usage(argv_[0], line_, why);
  }

  /// The current flag's value, verbatim.
  std::string text() {
    if (i_ + 1 >= argc_) usage(flag() + " needs a value");
    return argv_[++i_];
  }
  /// A whole-token integer >= `min`.
  long long integer(long long min) {
    const std::string name = flag();
    const std::string value = text();
    const auto v = util::parse_int_strict(value);
    if (!v || *v < min) bad(name, value);
    return *v;
  }
  /// A whole-token finite number > 0.
  double positive() {
    const std::string name = flag();
    const std::string value = text();
    const auto v = util::parse_double_strict(value);
    if (!v || !std::isfinite(*v) || *v <= 0.0) bad(name, value);
    return *v;
  }

 private:
  [[noreturn]] void bad(const std::string& name,
                        const std::string& value) const {
    usage("bad value for " + name + ": '" + value + "'");
  }

  int argc_;
  char** argv_;
  const char* line_;
  int i_ = 0;
};

/// lobsim::parse_campaign_flags, with a rejected flag or value ending in
/// the usage line instead of an uncaught exception.
inline lobsim::CampaignOptions campaign_flags(int argc, char** argv,
                                              std::uint64_t base_seed,
                                              std::size_t default_seeds = 1) {
  try {
    return lobsim::parse_campaign_flags(argc, argv, base_seed, default_seeds);
  } catch (const std::invalid_argument& e) {
    usage(argv[0], "[--seeds N] [--jobs M]", e.what());
  }
}

/// The flags fig10 and fig11 share.  cores/tasklets 0 = the scenario's own.
struct TimelineFlags {
  bool advisor_gate = false;
  std::size_t cores = 0;
  std::uint64_t tasklets = 0;
  std::string trace_prefix;
};

inline TimelineFlags parse_timeline_flags(int argc, char** argv) {
  TimelineFlags f;
  Args args(argc, argv,
            "[--advisor-gate] [--cores N] [--tasklets N] [--trace-prefix P]");
  while (args.next()) {
    const std::string flag = args.flag();
    if (flag == "--advisor-gate")
      f.advisor_gate = true;
    else if (flag == "--cores")
      f.cores = static_cast<std::size_t>(args.integer(1));
    else if (flag == "--tasklets")
      f.tasklets = static_cast<std::uint64_t>(args.integer(1));
    else if (flag == "--trace-prefix")
      f.trace_prefix = args.text();
    else
      args.usage();
  }
  return f;
}

}  // namespace lobster::benchflags
