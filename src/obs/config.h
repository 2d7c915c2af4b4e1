// Runtime configuration of the observability layer.
//
// Two independent switches control what msts::obs collects:
//  * metrics — counters, histograms and span timers (obs/registry.h);
//  * trace   — span records for the trace (obs/span.h).
// Both default to off and are near-zero-cost while off: every instrumented
// call site performs one relaxed atomic load of the word holding both
// switches and one branch (no clock read, no allocation, no lock).
//
// The switches come from the environment on first use (MSTS_METRICS and
// MSTS_TRACE) and can be overridden programmatically with configure() —
// tests and long-lived services flip collection on and off that way.
// Environment parsing is strict: a set-but-malformed variable throws
// std::invalid_argument naming the variable, instead of silently running
// with a misparsed configuration. The parse runs once, off the fast path:
// the switch word starts out marked unparsed, and only a load that sees the
// mark takes the slow path.
//
// MSTS_TRACE_PATH names the Chrome/Perfetto trace file span collection
// exports to (obs/span.h; the benches' report writer flushes there).
// Parsing is as strict as the switches: setting it without MSTS_TRACE on, or
// pointing it at a file that cannot be opened for writing, throws
// std::invalid_argument at startup — the same fail-fast semantics as a
// malformed MSTS_THREADS — instead of silently tracing to nowhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace msts::obs {

/// The observability switches.
struct Config {
  bool metrics = false;  ///< Counters / histograms / span timers collect.
  bool trace = false;    ///< Span records collect.
  /// Destination for the Chrome/Perfetto span export; empty = no export.
  /// Only meaningful with trace on (from_env / configure enforce this).
  std::string trace_path;

  /// Reads MSTS_METRICS, MSTS_TRACE and MSTS_TRACE_PATH (see env_flag for
  /// accepted switch values; the path must come with MSTS_TRACE on and be
  /// writable, else std::invalid_argument).
  static Config from_env();
};

/// Installs `config`, replacing whatever was active (including the
/// environment-derived defaults). Thread-safe.
void configure(const Config& config);

/// The currently active configuration.
Config current_config();

/// Bits of the switch word returned by switches().
inline constexpr std::uint8_t kMetricsOn = 1;
inline constexpr std::uint8_t kTraceOn = 2;

namespace detail {
/// Set in g_switches until the environment has been read.
inline constexpr std::uint8_t kUnparsed = 4;
extern std::atomic<std::uint8_t> g_switches;
/// Slow path: parses the environment once and returns the settled word.
std::uint8_t parse_env_switches();
}  // namespace detail

/// Both switches in one word (kMetricsOn | kTraceOn). One relaxed atomic
/// load once the environment has been read.
inline std::uint8_t switches() {
  const std::uint8_t s = detail::g_switches.load(std::memory_order_relaxed);
  return (s & detail::kUnparsed) != 0 ? detail::parse_env_switches() : s;
}

/// True when metric collection is on.
inline bool metrics_enabled() { return (switches() & kMetricsOn) != 0; }

/// True when trace collection is on.
inline bool trace_enabled() { return (switches() & kTraceOn) != 0; }

/// The configured trace-export path ("" when none). Not a hot-path call
/// (takes a lock); exporters read it once per flush.
std::string trace_path();

// ---------------------------------------------------------------------------
// Strict environment parsing (shared by the rest of the toolkit; notably
// stats::max_threads uses env_int for MSTS_THREADS).
// ---------------------------------------------------------------------------

/// Boolean environment variable: unset / "" / "0" / "false" / "off" / "no"
/// are false; "1" / "true" / "on" / "yes" are true (case-insensitive).
/// Anything else throws std::invalid_argument.
bool env_flag(const char* name);

/// Integer environment variable constrained to [min, max]. Returns nullopt
/// when unset or empty; throws std::invalid_argument (with the variable
/// name, the offending value and the accepted range in the message) on
/// non-numeric text, trailing junk, or out-of-range / overflowing values.
std::optional<long> env_int(const char* name, long min, long max);

/// Floating-point environment variable constrained to [min, max]. Same
/// strictness contract as env_int.
std::optional<double> env_double(const char* name, double min, double max);

}  // namespace msts::obs
