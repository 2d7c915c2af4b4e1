// Golden-model differential checking.
//
// Every hot kernel in the toolkit exists as a fast/reference pair: a planned
// or recurrence-based implementation on the hot path and a slow, obviously
// correct golden model (naive DFT, libm trig per sample, the allocating
// transient, the serial Monte-Carlo reduction, the analytic integral). This
// harness cross-checks such pairs under deterministic randomized
// configurations: a seeded generator (xoshiro streams, never wall-clock)
// draws a valid case, both kernels run it from bit-identical RNG state, and
// the outputs are compared element-wise against an abs/ulp tolerance.
// Divergence statistics flow through obs::Registry counters; the first
// failing case is captured as a minimal JSON reproducer (seed + case index +
// config dump via the obs JSON writer), so a red check pinpoints the exact
// configuration to replay.
//
// The concrete kernel pairs the toolkit ships are wired in
// check/kernel_checks.h and exercised by tests/test_differential.cpp
// (`ctest -L differential`).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "stats/parallel.h"
#include "stats/rng.h"

namespace msts::check {

/// Per-element divergence allowance between a fast kernel and its golden
/// model. An element passes when EITHER bound holds: the absolute bound
/// covers near-zero outputs (where ulp distance explodes on harmless
/// cancellation noise), the ulp bound covers large outputs scale-free.
struct Tolerance {
  double max_abs = 0.0;
  double max_ulp = 0.0;

  /// Both bounds zero: the pair must agree bit for bit (+0 == -0; NaN
  /// matches NaN).
  static Tolerance bit_identical() { return Tolerance{0.0, 0.0}; }
  static Tolerance abs_only(double max_abs) { return Tolerance{max_abs, 0.0}; }
  static Tolerance abs_or_ulp(double max_abs, double max_ulp) {
    return Tolerance{max_abs, max_ulp};
  }
};

/// Distance between two doubles in units in the last place, i.e. how many
/// representable doubles sit between them (0 when a == b, including +0/-0
/// and equal infinities; 0 when both are NaN; +inf when exactly one is NaN
/// or exactly one is infinite).
double ulp_distance(double a, double b);

/// How the run draws its cases. Seeds are fixed constants — a differential
/// run is a deterministic function of (seed, cases), so a failure report is
/// replayable forever.
struct RunOptions {
  std::uint64_t seed = 0x5EEDC0DE5EEDC0DEull;
  int cases = 24;
};

/// Worst element-wise divergence observed.
struct Divergence {
  double max_abs = 0.0;        ///< Largest |fast - reference|.
  double max_ulp = 0.0;        ///< Largest ulp distance.
  std::size_t worst_index = 0; ///< Element index of max_abs.
  double fast_value = 0.0;     ///< Fast output at worst_index.
  double reference_value = 0.0;///< Reference output at worst_index.
};

/// Result of one differential run.
struct Report {
  std::string name;
  int cases = 0;
  int failures = 0;
  std::uint64_t compared = 0;   ///< Total elements compared across cases.
  int worst_case = -1;          ///< Case index of the worst divergence.
  Divergence worst;             ///< Worst divergence across all cases.
  std::string reproducer;       ///< JSON for the first failing case; empty if green.

  bool passed() const { return failures == 0; }
};

namespace detail {

/// Outcome of comparing one case's outputs.
struct CaseOutcome {
  bool passed = true;
  bool size_mismatch = false;
  std::size_t fast_size = 0;
  std::size_t reference_size = 0;
  Divergence div;
};

/// Element-wise comparison under `tol`.
CaseOutcome compare(std::span<const double> fast, std::span<const double> reference,
                    const Tolerance& tol);

/// Folds one case outcome into the running report.
void account(Report& report, const CaseOutcome& outcome, int case_index);

/// Writes the failure header fields of a reproducer (everything except the
/// kernel-specific "config" object).
void reproducer_header(obs::json::Writer& w, std::string_view name,
                       const RunOptions& opts, int case_index,
                       const CaseOutcome& outcome);

/// Publishes the finished report on the obs registry
/// (check.<name>.{cases,failures,compared} counters and
/// check.<name>.{max_abs,max_ulp} histograms).
void publish(const Report& report);

}  // namespace detail

/// Runs `cases` randomized differential checks of a fast/reference kernel
/// pair.
///
/// Per case i: an independent xoshiro stream (the base seed advanced i
/// long-jumps, see stats::make_streams) feeds `generate` to draw a valid
/// Case; `fast` and `reference` then each receive a copy of the SAME derived
/// RNG, so any stochastic inputs (noise, Monte-Carlo trials) are
/// bit-identical on both sides and every divergence is attributable to the
/// kernels themselves. `describe` serialises the case into the failure
/// reproducer. Closures may keep state across cases (the workspace check
/// reuses one GraphWorkspace on purpose — steady-state reuse is part of the
/// contract under test).
template <typename Case>
Report differential(
    std::string_view name,
    const std::function<Case(stats::Rng&)>& generate,
    const std::function<std::vector<double>(const Case&, stats::Rng&)>& fast,
    const std::function<std::vector<double>(const Case&, stats::Rng&)>& reference,
    const std::function<void(const Case&, obs::json::Writer&)>& describe,
    const Tolerance& tol, const RunOptions& opts = {}) {
  Report report;
  report.name = std::string(name);
  const std::vector<stats::Rng> streams =
      stats::make_streams(stats::Rng(opts.seed), static_cast<std::size_t>(opts.cases));
  for (int i = 0; i < opts.cases; ++i) {
    stats::Rng case_rng = streams[static_cast<std::size_t>(i)];
    const Case c = generate(case_rng);
    stats::Rng fast_rng = case_rng.split();
    stats::Rng reference_rng = fast_rng;  // identical draws on both sides
    const std::vector<double> got = fast(c, fast_rng);
    const std::vector<double> want = reference(c, reference_rng);
    const detail::CaseOutcome outcome = detail::compare(got, want, tol);
    detail::account(report, outcome, i);
    if (!outcome.passed && report.reproducer.empty()) {
      obs::json::Writer w;
      w.begin_object();
      detail::reproducer_header(w, name, opts, i, outcome);
      w.key("config").begin_object();
      describe(c, w);
      w.end_object();
      w.end_object();
      report.reproducer = w.str();
    }
  }
  detail::publish(report);
  return report;
}

}  // namespace msts::check
