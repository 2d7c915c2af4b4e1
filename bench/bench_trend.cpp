// Perf-trajectory view over a *sequence* of schema-v1 BENCH_*.json
// snapshots from the same bench: where bench_compare diffs two reports,
// bench_trend ingests three or more (a directory of dated snapshots, or an
// explicit list in chronological order) and emits one time series per
// scalar, flagging every consecutive step that regresses under the shared
// direction rules (bench/report_io.h — latency-like keys flag on increase,
// throughput-like on decrease, deterministic outputs on drift either way).
// total_wall_s rides along as a higher-is-worse pseudo-scalar. A null
// scalar (the writer's encoding of NaN/Inf) flags the snapshot it is in.
//
// Usage:
//   bench_trend [--threshold R] SNAPSHOT_DIR
//   bench_trend [--threshold R] A.json B.json C.json...
// A directory argument globs its BENCH_*.json entries and orders them
// lexicographically, so timestamp- or sequence-numbered snapshot names
// (BENCH_service.2026-08-01.json, ...) trend in time order.
//
// Exit status: 0 = no flagged steps, 1 = at least one regression step,
// 2 = usage/IO error (including mixed benches or fewer than two snapshots).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "report_io.h"

namespace fs = std::filesystem;
using namespace msts::benchtool;

namespace {

const char* direction_tag(Direction dir) {
  switch (dir) {
    case Direction::kHigherIsWorse: return "higher-is-worse";
    case Direction::kLowerIsWorse: return "lower-is-worse";
    case Direction::kBoth: break;
  }
  return "deterministic";
}

/// Scalar keys in order of first appearance across all snapshots, so keys a
/// bench grew later still trend over their available suffix. Informational
/// metadata ("simd." widths) never trends — backend changes are expected
/// across snapshots and would drown real regressions in false flags.
std::vector<std::string> scalar_keys(const std::vector<Report>& reports) {
  std::vector<std::string> keys;
  for (const Report& r : reports) {
    for (const auto& [key, v] : r.scalars) {
      (void)v;
      if (is_informational(key)) continue;
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
  }
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.25;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_trend: --threshold needs a value\n");
        return 2;
      }
      char* end = nullptr;
      threshold = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(threshold > 0.0)) {
        std::fprintf(stderr, "bench_trend: bad --threshold '%s'\n", argv[i]);
        return 2;
      }
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: bench_trend [--threshold R] SNAPSHOT_DIR\n"
                 "       bench_trend [--threshold R] A.json B.json...\n");
    return 2;
  }

  std::vector<std::string> paths;
  std::error_code ec;
  if (args.size() == 1 && fs::is_directory(args[0], ec)) {
    for (const auto& entry : fs::directory_iterator(args[0], ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          name.size() >= 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
        paths.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "bench_trend: %s: %s\n", args[0].c_str(),
                   ec.message().c_str());
      return 2;
    }
    std::sort(paths.begin(), paths.end());
  } else {
    paths = args;
  }
  if (paths.size() < 2) {
    std::fprintf(stderr,
                 "bench_trend: need at least 2 snapshots, got %zu%s\n", paths.size(),
                 args.size() == 1 ? (" (in " + args[0] + ")").c_str() : "");
    return 2;
  }

  std::vector<Report> reports;
  for (const std::string& p : paths) {
    auto r = load_report(p.c_str(), "bench_trend");
    if (!r) return 2;
    reports.push_back(std::move(*r));
  }
  for (const Report& r : reports) {
    if (!r.bench.empty() && !reports.front().bench.empty() &&
        r.bench != reports.front().bench) {
      std::fprintf(stderr,
                   "bench_trend: snapshots come from different benches ('%s' in %s "
                   "vs '%s' in %s)\n",
                   reports.front().bench.c_str(), reports.front().path.c_str(),
                   r.bench.c_str(), r.path.c_str());
      return 2;
    }
  }

  std::printf("bench_trend: bench '%s', %zu snapshots, threshold %.0f%%\n",
              reports.front().bench.c_str(), reports.size(), 100.0 * threshold);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::string isa = reports[i].isa();
    std::printf("  #%zu  %s%s%s%s\n", i + 1, reports[i].path.c_str(),
                isa.empty() ? "" : "  [simd.isa ", isa.c_str(),
                isa.empty() ? "" : "]");
  }

  int flagged = 0;
  std::vector<std::string> keys = scalar_keys(reports);
  keys.push_back("total_wall_s");  // pseudo-scalar, handled below

  for (const std::string& key : keys) {
    const bool is_total = key == "total_wall_s";
    const Direction dir =
        is_total ? Direction::kHigherIsWorse : scalar_direction(key);

    // Gather the series ("—" for snapshots missing the key) and flag every
    // consecutive *present* pair that regresses.
    std::string series;
    std::string flags;
    const double* prev = nullptr;
    std::size_t prev_index = 0;
    bool any = false;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const double* v = is_total ? &reports[i].total_wall_s
                                 : find(reports[i].scalars, key);
      char cell[64];
      if (v == nullptr) {
        std::snprintf(cell, sizeof cell, "%s—", i == 0 ? "" : " ");
      } else if (!std::isfinite(*v)) {
        // A null scalar (non-finite in the bench) flags on its own and
        // leaves the series to compare around it.
        std::snprintf(cell, sizeof cell, "%snull", i == 0 ? "" : " ");
        char flag[48];
        std::snprintf(flag, sizeof flag, "  NULL #%zu", i + 1);
        flags += flag;
        ++flagged;
        any = true;
      } else {
        std::snprintf(cell, sizeof cell, "%s%.6g", i == 0 ? "" : " ", *v);
        any = true;
        if (prev != nullptr) {
          const double change = rel_change(*prev, *v);
          if (is_regression(dir, change, threshold)) {
            char flag[96];
            std::snprintf(flag, sizeof flag, "  REGRESSION #%zu->#%zu (%+.1f%%)",
                          prev_index + 1, i + 1, 100.0 * change);
            flags += flag;
            ++flagged;
          }
        }
        prev = v;
        prev_index = i;
      }
      series += cell;
    }
    if (!any) continue;
    std::printf("  %-28s [%s]: %s%s\n", key.c_str(), direction_tag(dir),
                series.c_str(), flags.c_str());
  }

  if (flagged > 0) {
    std::printf("bench_trend: %d regression step(s) flagged\n", flagged);
    return 1;
  }
  std::printf("bench_trend: no regression steps\n");
  return 0;
}
