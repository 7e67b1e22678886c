#include "util/units.hpp"

#include <cmath>
#include <cstdio>

namespace lobster::util {

std::string format_duration(double s) {
  char buf[64];
  if (s < 0) {
    const std::string magnitude = format_duration(-s);
    return "-" + magnitude;
  }
  if (s < 60.0) {
    std::snprintf(buf, sizeof buf, "%.1fs", s);
  } else if (s < 3600.0) {
    int m = static_cast<int>(s / 60.0);
    int sec = static_cast<int>(s) % 60;
    std::snprintf(buf, sizeof buf, "%dm%02ds", m, sec);
  } else if (s < 86400.0) {
    int h = static_cast<int>(s / 3600.0);
    int m = (static_cast<int>(s) % 3600) / 60;
    std::snprintf(buf, sizeof buf, "%dh%02dm", h, m);
  } else {
    int d = static_cast<int>(s / 86400.0);
    int h = (static_cast<int>(s) % 86400) / 3600;
    std::snprintf(buf, sizeof buf, "%dd%02dh", d, h);
  }
  return buf;
}

std::string format_bytes(double b) {
  char buf[64];
  const char* suffix[] = {"B", "kB", "MB", "GB", "TB", "PB"};
  int i = 0;
  double v = b;
  while (std::fabs(v) >= 1000.0 && i < 5) {
    v /= 1000.0;
    ++i;
  }
  if (i == 0)
    std::snprintf(buf, sizeof buf, "%.0f %s", v, suffix[i]);
  else
    std::snprintf(buf, sizeof buf, "%.2f %s", v, suffix[i]);
  return buf;
}

}  // namespace lobster::util
