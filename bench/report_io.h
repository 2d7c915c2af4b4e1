// Shared reading and regression-gating rules for the schema-v1 BENCH_*.json
// reports emitted by BenchReport (bench_report.h), used by bench_validate
// (schema check), bench_compare (two-report diff) and bench_trend (time
// series over many snapshots).
//
// The direction rules live here so both tools gate identically:
//   * keys containing 'per_sec' or 'throughput' are throughput-like — only
//     decreases count as regressions;
//   * keys ending in '_ns' or '_s_per_iter', or containing 'latency' or
//     'wait', are latency-like — only increases count;
//   * everything else is treated as deterministic output, where drift in
//     either direction is suspicious.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace msts::benchtool {

/// The "schema_version" BenchReport writes and every reader requires.
inline constexpr int kSchemaVersion = 1;

/// Prefix of the informational keys: the run's SIMD backend and lane widths,
/// which BenchReport records in every report (see is_informational).
inline constexpr std::string_view kInformationalPrefix = "simd.";

/// The informational key `name`: informational_key("isa") is "simd.isa".
std::string informational_key(std::string_view name);

/// Reads and parses the JSON document at `path`, whose root must be an
/// object. On failure sets `*why` ("cannot open", "invalid JSON: ...") and
/// returns nullopt.
std::optional<obs::json::Value> read_json(const char* path, std::string* why);

/// read_json() plus the schema check: "schema_version" == kSchemaVersion.
std::optional<obs::json::Value> read_report_json(const char* path, std::string* why);

/// One parsed schema-v1 bench report.
struct Report {
  std::string path;   ///< Where it was loaded from (for messages).
  std::string bench;  ///< "bench" field; may be empty in synthetic fixtures.
  /// A null scalar (how the writer encodes NaN/Inf) loads as NaN.
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> phase_wall_s;
  double total_wall_s = 0.0;

  /// Label value by key; empty string when absent.
  std::string label(const std::string& key) const;

  /// The SIMD backend the run used (the "simd.isa" label); empty when absent.
  std::string isa() const { return label(informational_key("isa")); }
};

/// Loads `path` through read_report_json(). On failure prints
/// "<tool>: <path>: <why>" to stderr and returns nullopt.
std::optional<Report> load_report(const char* path, const char* tool);

/// Linear scan lookup (reports are small); nullptr when absent.
const double* find(const std::vector<std::pair<std::string, double>>& kv,
                   const std::string& key);

/// Relative change of `now` vs `base`, guarded against tiny baselines.
double rel_change(double base, double now);

/// How a scalar may drift before it counts as a regression.
enum class Direction {
  kBoth,           ///< Deterministic output: any drift is suspicious.
  kHigherIsWorse,  ///< Latency-like: only increases fail.
  kLowerIsWorse,   ///< Throughput-like: only decreases fail.
};

/// Classifies a scalar by naming convention (see the file comment).
Direction scalar_direction(const std::string& key);

/// True for identity/metadata scalars (kInformationalPrefix: lane widths,
/// ISA) that describe the run's configuration rather than its performance. Both
/// tools print them for context but never gate on them — a baseline from a
/// different backend should fail on its *timings*, not its lane count.
bool is_informational(const std::string& key);

/// Whether `change` (a rel_change value) violates `threshold` under `dir`.
bool is_regression(Direction dir, double change, double threshold);

}  // namespace msts::benchtool
