// Regression diff for two schema-v1 BENCH_*.json reports.
//
// Compares a baseline report against a candidate from the same bench:
//   * scalars present in both must agree within --threshold relative change.
//     Most headline numbers are deterministic, so drift in either direction
//     is suspicious — but performance scalars are gated directionally by
//     name (see bench/report_io.h for the shared rules): latency-like keys
//     only fail when they *increase*, throughput-like keys only fail when
//     they *decrease*. Improvements never fail.
//   * per-phase and total wall times may only *increase* by the threshold
//     (speed-ups never fail);
//   * scalars that appear or disappear are reported as explicit notes but
//     do not fail, since benches legitimately grow new outputs.
//   * "simd."-prefixed scalars are run metadata (lane widths), not
//     performance; they are never gated.
//   * a null candidate scalar (the writer's encoding of NaN/Inf) always
//     fails: the bench computed a non-finite headline number.
// With --baseline-dir DIR the baseline is resolved from the candidate's
// reported SIMD backend: DIR/BENCH_<bench>.<isa>.json if present, else the
// unsuffixed DIR/BENCH_<bench>.json with a note. This keeps the Release
// bench gate meaningful across machines — an AVX-512 run is measured
// against an AVX-512 baseline, a forced-scalar run against a scalar one.
// Exit status: 0 = comparable, 1 = regression(s) found, 2 = usage/IO error.
// The bench_smoke CTest flow runs an identity self-compare on every emitted
// report; see README.md ("Comparing bench runs") for CI usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "report_io.h"

using namespace msts::benchtool;

namespace {

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

/// Resolves the per-ISA baseline for `cand` inside `dir`. Returns the empty
/// string (after printing to stderr) when neither the ISA-suffixed nor the
/// unsuffixed baseline exists.
std::string resolve_baseline(const std::string& dir, const Report& cand) {
  if (cand.bench.empty()) {
    std::fprintf(stderr,
                 "bench_compare: %s has no 'bench' name; cannot resolve a "
                 "baseline in %s\n",
                 cand.path.c_str(), dir.c_str());
    return {};
  }
  std::string prefix = dir;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  prefix += "BENCH_" + cand.bench;

  const std::string isa = cand.isa();
  if (!isa.empty()) {
    const std::string suffixed = prefix + "." + isa + ".json";
    if (file_exists(suffixed)) {
      std::printf("  note: baseline %s (matched simd.isa '%s')\n",
                  suffixed.c_str(), isa.c_str());
      return suffixed;
    }
  }
  const std::string plain = prefix + ".json";
  if (file_exists(plain)) {
    std::printf("  note: baseline %s (no per-ISA baseline for simd.isa '%s')\n",
                plain.c_str(), isa.empty() ? "<unlabelled>" : isa.c_str());
    return plain;
  }
  std::fprintf(stderr,
               "bench_compare: no baseline for bench '%s' in %s (looked for "
               "%s.%s.json and %s.json)\n",
               cand.bench.c_str(), dir.c_str(), prefix.c_str(),
               isa.empty() ? "<isa>" : isa.c_str(), prefix.c_str());
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.25;
  std::string baseline_dir;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: --threshold needs a value\n");
        return 2;
      }
      char* end = nullptr;
      threshold = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(threshold > 0.0)) {
        std::fprintf(stderr, "bench_compare: bad --threshold '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--baseline-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: --baseline-dir needs a directory\n");
        return 2;
      }
      baseline_dir = argv[++i];
    } else {
      files.push_back(argv[i]);
    }
  }
  const std::size_t want = baseline_dir.empty() ? 2u : 1u;
  if (files.size() != want) {
    std::fprintf(stderr,
                 "usage: bench_compare [--threshold R] BASELINE.json CANDIDATE.json\n"
                 "       bench_compare [--threshold R] --baseline-dir DIR CANDIDATE.json\n");
    return 2;
  }

  const auto cand = load_report(files.back(), "bench_compare");
  if (!cand) return 2;
  std::string base_path = files.size() == 2 ? files[0] : "";
  if (!baseline_dir.empty()) {
    base_path = resolve_baseline(baseline_dir, *cand);
    if (base_path.empty()) return 2;
  }
  const auto base = load_report(base_path.c_str(), "bench_compare");
  if (!base) return 2;
  if (!base->bench.empty() && !cand->bench.empty() && base->bench != cand->bench) {
    std::fprintf(stderr, "bench_compare: reports come from different benches ('%s' vs '%s')\n",
                 base->bench.c_str(), cand->bench.c_str());
    return 2;
  }

  int regressions = 0;
  int compared = 0;

  for (const auto& [key, v] : cand->scalars) {
    if (!std::isfinite(v)) {
      std::printf("  REGRESSION scalar '%s' is null (non-finite) in candidate\n",
                  key.c_str());
      ++regressions;
    }
  }
  for (const auto& [key, old_v] : base->scalars) {
    if (is_informational(key)) continue;
    const double* new_v = find(cand->scalars, key);
    if (new_v == nullptr) {
      std::printf("  note: scalar '%s' missing from candidate\n", key.c_str());
      continue;
    }
    if (!std::isfinite(*new_v)) continue;  // already failed above
    if (!std::isfinite(old_v)) {
      std::printf("  note: scalar '%s' is null in the baseline; not compared\n",
                  key.c_str());
      continue;
    }
    ++compared;
    const double change = rel_change(old_v, *new_v);
    const Direction dir = scalar_direction(key);
    if (is_regression(dir, change, threshold)) {
      std::printf("  REGRESSION scalar '%s': %.6g -> %.6g (%+.1f%%)\n", key.c_str(),
                  old_v, *new_v, 100.0 * change);
      ++regressions;
    } else if (dir != Direction::kBoth && std::abs(change) > threshold) {
      std::printf("  note: scalar '%s' improved: %.6g -> %.6g (%+.1f%%)\n",
                  key.c_str(), old_v, *new_v, 100.0 * change);
    }
  }
  for (const auto& [key, v] : cand->scalars) {
    if (is_informational(key) || !std::isfinite(v)) continue;
    if (find(base->scalars, key) == nullptr) {
      std::printf("  note: new scalar '%s' = %.6g (no baseline)\n", key.c_str(), v);
    }
  }

  for (const auto& [name, old_w] : base->phase_wall_s) {
    const double* new_w = find(cand->phase_wall_s, name);
    if (new_w == nullptr) {
      std::printf("  note: phase '%s' missing from candidate\n", name.c_str());
      continue;
    }
    ++compared;
    const double change = rel_change(old_w, *new_w);
    if (change > threshold) {
      std::printf("  REGRESSION phase '%s': %.4fs -> %.4fs (%+.1f%% slower)\n",
                  name.c_str(), old_w, *new_w, 100.0 * change);
      ++regressions;
    }
  }
  {
    ++compared;
    const double change = rel_change(base->total_wall_s, cand->total_wall_s);
    if (change > threshold) {
      std::printf("  REGRESSION total wall: %.4fs -> %.4fs (%+.1f%% slower)\n",
                  base->total_wall_s, cand->total_wall_s, 100.0 * change);
      ++regressions;
    }
  }

  if (regressions > 0) {
    std::printf("bench_compare: %s vs %s: %d regression(s) in %d comparison(s)\n",
                base->path.c_str(), cand->path.c_str(), regressions, compared);
    return 1;
  }
  std::printf("bench_compare: %s vs %s OK (%d comparison(s), threshold %.0f%%)\n",
              base->path.c_str(), cand->path.c_str(), compared, 100.0 * threshold);
  return 0;
}
