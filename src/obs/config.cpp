#include "obs/config.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>

namespace msts::obs {

namespace detail {
std::atomic<std::uint8_t> g_switches{kUnparsed};
}  // namespace detail

namespace {

std::once_flag g_env_init;

// The export path changes rarely (startup / tests); a mutex-guarded leaked
// string keeps the hot switches lock-free while late-exiting threads can
// still read it safely.
std::mutex& trace_path_mutex() {
  static std::mutex mu;
  return mu;
}

std::string& trace_path_storage() {
  static std::string* path = new std::string;
  return *path;
}

void validate_trace_path(const Config& config, const char* origin) {
  if (config.trace_path.empty()) return;
  if (!config.trace) {
    throw std::invalid_argument(
        std::string(origin) +
        " names a trace export file but tracing is off: set MSTS_TRACE=1 "
        "(or Config::trace) alongside it");
  }
  // Probe in append mode: creates a missing file, never clobbers an
  // existing one, and fails up front on an unwritable location (missing
  // directory, directory path, permissions) instead of at the first flush.
  std::ofstream probe(config.trace_path, std::ios::app);
  if (!probe) {
    throw std::invalid_argument(std::string(origin) + "='" + config.trace_path +
                                "': cannot open for writing");
  }
}

std::uint8_t switches_of(const Config& config) {
  return static_cast<std::uint8_t>((config.metrics ? kMetricsOn : 0) |
                                   (config.trace ? kTraceOn : 0));
}

void install(const Config& config) {
  {
    std::lock_guard<std::mutex> lock(trace_path_mutex());
    trace_path_storage() = config.trace_path;
  }
  detail::g_switches.store(switches_of(config), std::memory_order_relaxed);
}

// A malformed environment throws out of call_once, which leaves the flag
// unset: the switch word keeps its unparsed mark and the next use throws
// again, so a bad variable can never be half-applied.
void ensure_env_init() {
  std::call_once(g_env_init, [] { install(Config::from_env()); });
}

[[noreturn]] void bad_env(const char* name, const char* value,
                          const std::string& expected) {
  throw std::invalid_argument(std::string("invalid ") + name + "='" + value +
                              "': expected " + expected);
}

}  // namespace

Config Config::from_env() {
  Config c;
  c.metrics = env_flag("MSTS_METRICS");
  c.trace = env_flag("MSTS_TRACE");
  if (const char* raw = std::getenv("MSTS_TRACE_PATH");
      raw != nullptr && raw[0] != '\0') {
    c.trace_path = raw;
  }
  validate_trace_path(c, "MSTS_TRACE_PATH");
  return c;
}

void configure(const Config& config) {
  // Make sure a later first call to metrics_enabled() cannot clobber an
  // explicit configuration with the environment defaults.
  ensure_env_init();
  validate_trace_path(config, "Config::trace_path");
  install(config);
}

Config current_config() {
  const std::uint8_t s = switches();
  Config c;
  c.metrics = (s & kMetricsOn) != 0;
  c.trace = (s & kTraceOn) != 0;
  std::lock_guard<std::mutex> lock(trace_path_mutex());
  c.trace_path = trace_path_storage();
  return c;
}

std::string trace_path() {
  ensure_env_init();
  std::lock_guard<std::mutex> lock(trace_path_mutex());
  return trace_path_storage();
}

std::uint8_t detail::parse_env_switches() {
  ensure_env_init();
  return g_switches.load(std::memory_order_relaxed);
}

bool env_flag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return false;
  std::string v;
  for (const char* p = raw; *p != '\0'; ++p) {
    v.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  bad_env(name, raw, "one of 0/1/true/false/on/off/yes/no");
}

std::optional<long> env_int(const char* name, long min, long max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE || v < min || v > max) {
    bad_env(name, raw,
            "an integer in [" + std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return v;
}

std::optional<double> env_double(const char* name, double min, double max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || errno == ERANGE || !std::isfinite(v) || v < min ||
      v > max) {
    bad_env(name, raw,
            "a number in [" + std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return v;
}

}  // namespace msts::obs
