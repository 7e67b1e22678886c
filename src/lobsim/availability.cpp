#include "lobsim/availability.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "util/config.hpp"
#include "util/parse.hpp"

namespace lobster::lobsim {

namespace {
constexpr double kDaySeconds = 86400.0;

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("availability: " + what);
}
}  // namespace

const char* to_string(AvailabilityKind kind) {
  switch (kind) {
    case AvailabilityKind::Weibull: return "weibull";
    case AvailabilityKind::Trace: return "trace";
    case AvailabilityKind::Diurnal: return "diurnal";
    case AvailabilityKind::AdversarialBurst: return "adversarial-burst";
  }
  return "?";
}

// ---- AlwaysAvailable -------------------------------------------------------

double AlwaysAvailable::sample_survival_at(util::Rng&, double,
                                           std::uint64_t) const {
  return std::numeric_limits<double>::infinity();
}

double AlwaysAvailable::expected_lifetime(double) const {
  return std::numeric_limits<double>::infinity();
}

// ---- TraceAvailability -----------------------------------------------------

TraceAvailability::TraceAvailability(
    std::shared_ptr<const std::vector<double>> intervals)
    : intervals_(std::move(intervals)) {
  if (!intervals_ || intervals_->empty())
    bad_spec("trace replay needs a non-empty interval log");
  double sum = 0.0;
  for (double v : *intervals_) {
    if (!(v > 0.0)) bad_spec("trace intervals must be > 0");
    sum += v;
  }
  mean_ = sum / static_cast<double>(intervals_->size());
}

double TraceAvailability::sample_survival_at(util::Rng&, double,
                                             std::uint64_t phase) const {
  return (*intervals_)[phase % intervals_->size()];
}

double TraceAvailability::expected_lifetime(double) const { return mean_; }

// ---- WeibullAvailability ---------------------------------------------------

WeibullAvailability::WeibullAvailability(double shape, double scale_hours,
                                         double amplitude, double peak_hour)
    : shape_(shape),
      scale_seconds_(scale_hours * 3600.0),
      amplitude_(amplitude),
      peak_hour_(peak_hour),
      mean_factor_(std::tgamma(1.0 + 1.0 / shape)) {
  if (shape <= 0.0 || scale_hours <= 0.0)
    bad_spec("weibull shape and scale must be > 0");
  if (amplitude < 0.0 || amplitude >= 1.0)
    bad_spec("diurnal amplitude must be in [0, 1)");
  if (peak_hour < 0.0 || peak_hour >= 24.0)
    bad_spec("diurnal peak hour must be in [0, 24)");
}

double WeibullAvailability::scale_at(double now) const {
  // The stationary climate skips the cosine: expected_lifetime() is asked
  // at every task pull.
  if (amplitude_ == 0.0) return scale_seconds_;
  // cos(theta) = 1 at the peak hour: the scale bottoms out there.
  const double theta =
      2.0 * M_PI * (now / kDaySeconds - peak_hour_ / 24.0);
  return scale_seconds_ * (1.0 - amplitude_ * std::cos(theta));
}

double WeibullAvailability::sample_survival_at(util::Rng& rng, double now,
                                               std::uint64_t) const {
  return rng.weibull(shape_, scale_at(now));
}

double WeibullAvailability::expected_lifetime(double now) const {
  return scale_at(now) * mean_factor_;
}

// ---- AdversarialBurstAvailability ------------------------------------------

AdversarialBurstAvailability::AdversarialBurstAvailability(double shape,
                                                           double scale_hours,
                                                           double period_hours,
                                                           double fraction)
    : shape_(shape),
      scale_seconds_(scale_hours * 3600.0),
      period_(period_hours * 3600.0),
      fraction_(fraction),
      mean_factor_(std::tgamma(1.0 + 1.0 / shape)) {
  if (shape <= 0.0 || scale_hours <= 0.0)
    bad_spec("burst shape and scale must be > 0");
  if (period_hours <= 0.0) bad_spec("burst period must be > 0");
  if (fraction < 0.0 || fraction > 1.0)
    bad_spec("burst fraction must be in [0, 1]");
}

double AdversarialBurstAvailability::next_burst(double now) const {
  return (std::floor(now / period_) + 1.0) * period_;
}

double AdversarialBurstAvailability::sample_survival_at(
    util::Rng& rng, double now, std::uint64_t) const {
  // A burst victim dies exactly at the next burst instant — every victim of
  // the same burst dies together, which is the point of this model.  The
  // rest live under the calm base climate (and may outlast several bursts).
  if (rng.chance(fraction_)) return next_burst(now) - now;
  return rng.weibull(shape_, scale_seconds_);
}

double AdversarialBurstAvailability::expected_lifetime(double now) const {
  return fraction_ * (next_burst(now) - now) +
         (1.0 - fraction_) * scale_seconds_ * mean_factor_;
}

// ---- factory / parsing -----------------------------------------------------

std::unique_ptr<AvailabilityModel> make_availability_model(
    const AvailabilityConfig& config) {
  switch (config.kind) {
    case AvailabilityKind::Weibull:
      return std::make_unique<WeibullAvailability>(config.shape,
                                                   config.scale_hours);
    case AvailabilityKind::Trace: {
      auto intervals = config.trace;
      if (!intervals) {
        if (config.trace_path.empty())
          bad_spec("trace model needs a path or preloaded intervals");
        intervals = std::make_shared<const std::vector<double>>(
            load_trace_csv(config.trace_path));
      }
      return std::make_unique<TraceAvailability>(std::move(intervals));
    }
    case AvailabilityKind::Diurnal:
      return std::make_unique<WeibullAvailability>(
          config.shape, config.scale_hours, config.diurnal_amplitude,
          config.diurnal_peak_hour);
    case AvailabilityKind::AdversarialBurst:
      return std::make_unique<AdversarialBurstAvailability>(
          config.shape, config.scale_hours, config.burst_period_hours,
          config.burst_fraction);
  }
  bad_spec("unknown model kind");
}

namespace {
double parse_hours(const std::string& key, const std::string& value) {
  try {
    // Accept plain hours ("6") or duration suffixes ("90m", "1.5h").
    if (value.find_first_not_of("0123456789.+-eE") == std::string::npos) {
      const auto v = util::parse_double_strict(value);
      if (!v) bad_spec("bad value for '" + key + "': " + value);
      return *v;
    }
    return util::Config::parse_duration(value) / 3600.0;
  } catch (const std::exception&) {
    bad_spec("bad value for '" + key + "': " + value);
  }
}

double parse_number(const std::string& key, const std::string& value) {
  const auto v = util::parse_double_strict(value);
  if (!v) bad_spec("bad value for '" + key + "': " + value);
  return *v;
}
}  // namespace

AvailabilityConfig parse_availability_spec(const std::string& spec) {
  AvailabilityConfig cfg;
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  std::string rest =
      colon == std::string::npos ? "" : spec.substr(colon + 1);

  if (kind == "weibull") {
    cfg.kind = AvailabilityKind::Weibull;
  } else if (kind == "trace") {
    cfg.kind = AvailabilityKind::Trace;
    // `trace:/path/log.csv` shorthand: a bare value with no '=' is the path.
    if (!rest.empty() && rest.find('=') == std::string::npos) {
      cfg.trace_path = rest;
      return cfg;
    }
  } else if (kind == "diurnal") {
    cfg.kind = AvailabilityKind::Diurnal;
  } else if (kind == "adversarial-burst" || kind == "burst") {
    cfg.kind = AvailabilityKind::AdversarialBurst;
  } else {
    bad_spec("unknown model '" + kind +
             "' (expected weibull, trace, diurnal or adversarial-burst)");
  }

  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string item = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      bad_spec("expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "scale") {
      cfg.scale_hours = parse_hours(key, value);
    } else if (key == "shape") {
      cfg.shape = parse_number(key, value);
    } else if (key == "path" && cfg.kind == AvailabilityKind::Trace) {
      cfg.trace_path = value;
    } else if (key == "amplitude" && cfg.kind == AvailabilityKind::Diurnal) {
      cfg.diurnal_amplitude = parse_number(key, value);
    } else if (key == "peak" && cfg.kind == AvailabilityKind::Diurnal) {
      cfg.diurnal_peak_hour = parse_number(key, value);
    } else if (key == "period" &&
               cfg.kind == AvailabilityKind::AdversarialBurst) {
      cfg.burst_period_hours = parse_hours(key, value);
    } else if (key == "fraction" &&
               cfg.kind == AvailabilityKind::AdversarialBurst) {
      cfg.burst_fraction = parse_number(key, value);
    } else {
      bad_spec("unknown key '" + key + "' for model '" + kind + "'");
    }
  }
  return cfg;
}

std::vector<double> load_trace_csv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) bad_spec("cannot open trace '" + path + "'");
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::vector<double> out;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::size_t field_pos = 0;
    while (field_pos <= line.size()) {
      std::size_t comma = line.find(',', field_pos);
      if (comma == std::string::npos) comma = line.size();
      const std::string field = line.substr(field_pos, comma - field_pos);
      field_pos = comma + 1;
      const std::size_t begin = field.find_first_not_of(" \t\r");
      if (begin == std::string::npos) continue;  // blank field / line
      const std::size_t end = field.find_last_not_of(" \t\r");
      const std::string token = field.substr(begin, end - begin + 1);
      const auto parsed = util::parse_double_strict(token);
      if (!parsed)
        bad_spec("trace '" + path + "' line " + std::to_string(line_no) +
                 ": non-numeric field '" + token + "'");
      const double v = *parsed;
      if (!(v > 0.0))
        bad_spec("trace '" + path + "' line " + std::to_string(line_no) +
                 ": intervals must be > 0");
      out.push_back(v);
    }
  }
  if (out.empty()) bad_spec("trace '" + path + "' holds no intervals");
  return out;
}

}  // namespace lobster::lobsim
