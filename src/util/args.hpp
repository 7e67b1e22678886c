// args.hpp — the one command-line walker of the figure benches and tools.
//
// Each binary declares its flags and positionals in one loop.  Anything it
// does not declare (an unknown flag, a stray positional) and any missing or
// malformed value prints the binary's usage line and exits 2.  Numeric
// values go through util::parse_int_strict / parse_double_strict: a lax
// parse would read "--cores x" as 0 ("do not scale": the full 10 000-core
// run) and "--tasklets -5" as ~1.8e19 tasklets.
//
//   util::Args args(argc, argv, "<file> [--cores N] [--mode M]");
//   while (args.next()) {
//     if (args.is("--cores")) cores = args.integer(1);
//     else if (args.is("--mode")) mode = args.text();
//     else if (file.empty() && args.positional()) file = args.token();
//     else args.usage();
//   }
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/parse.hpp"

namespace lobster::util {

/// Walks argv one token at a time; every accessor that reads a value
/// consumes it, so a value is never re-read as a flag.
class Args {
 public:
  Args(int argc, char** argv, const char* usage_line)
      : argc_(argc), argv_(argv), line_(usage_line) {}

  /// Step to the next token; false once argv is exhausted.
  bool next() { return ++i_ < argc_; }
  [[nodiscard]] std::string token() const { return argv_[i_]; }
  [[nodiscard]] bool is(const char* flag) const { return token() == flag; }
  /// The current token is not a flag (a file name, say).
  [[nodiscard]] bool positional() const { return argv_[i_][0] != '-'; }

  /// Print `why` (by default: the current token was not declared) and the
  /// usage line, then exit 2.
  [[noreturn]] void usage(std::string why = "") const {
    if (why.empty() && i_ < argc_)
      why = "unexpected argument '" + token() + "'";
    if (!why.empty()) std::fprintf(stderr, "error: %s\n", why.c_str());
    std::fprintf(stderr, "usage: %s%s%s\n", argv_[0], *line_ ? " " : "",
                 line_);
    std::exit(2);
  }

  /// The current flag's value: the next token as it is, even when it
  /// starts with "--".
  std::string text() {
    if (i_ + 1 >= argc_) usage(token() + " needs a value");
    return argv_[++i_];
  }
  /// A whole-token integer >= `min`.
  long long integer(long long min) {
    const std::string name = token();
    const std::string value = text();
    const auto v = parse_int_strict(value);
    if (!v || *v < min) bad(name, value);
    return *v;
  }
  /// A whole-token finite number > 0.
  double positive() {
    const std::string name = token();
    const std::string value = text();
    const auto v = parse_double_strict(value);
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

}  // namespace lobster::util
