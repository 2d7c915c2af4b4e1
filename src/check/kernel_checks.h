// The toolkit's fast/reference kernel pairs, wired into the differential
// harness.
//
// Each function runs one pair under randomized configurations (see
// check/generators.h) and returns the harness report. The golden side is
// always the slowest, most obviously correct formulation available:
//
//   fast kernel                     | golden model
//   --------------------------------+------------------------------------
//   planned real FFT (fft_plan)     | naive O(N^2) DFT, libm trig per (n,k)
//   blockwise Goertzel single bin   | direct correlation, libm trig per n
//   recurrence oscillator (tonegen) | long-double libm cos per sample
//   PathGraph::run into a reused    | allocating PathGraph::run
//     GraphWorkspace                |
//   evaluate_test_mc on 4 threads   | evaluate_test_mc on 1 thread
//   closed-form evaluate_test at    | evaluate_test_mc (large trial count)
//     guard-banded thresholds       |
//   closed-form evaluate_test, all  | midpoint quadrature on 200001 points
//     three error models            |   (check/yield_quadrature.h)
//   blocked Rng::fill_normal        | n back-to-back Rng::normal() calls
//   lane walk (path::run_lanes)     | PathGraph::run, one device at a time
//
// The Monte-Carlo pair is the independent oracle for the loss integrals:
// at sharp-error guard-banded thresholds, where the acceptance probability
// is (nearly) a step, any misplaced step moves mass across the threshold
// and the analytic side leaves the sampling band. The quadrature pair pins
// the closed form far tighter (5e-8) at thresholds on and off the spec.
// The fill pair compares bit patterns, the generator's state after the fill
// included, at lengths around the fill's internal block. The lanes pair
// does the same for 1..kLanes random devices per batch: codes, FIR output
// and each lane's stream after the run, with streams entering with and
// without a cached deviate and lanes whose LO draws no walk.
#pragma once

#include <vector>

#include "check/differential.h"

namespace msts::check {

Report check_fft_plan_vs_naive_dft(const RunOptions& opts = {});
Report check_goertzel_vs_direct_correlation(const RunOptions& opts = {});
Report check_oscillator_vs_libm_trig(const RunOptions& opts = {});
Report check_path_workspace_vs_allocating_run(const RunOptions& opts = {});
Report check_parallel_mc_vs_serial(const RunOptions& opts = {});
Report check_guard_band_analytic_vs_mc(const RunOptions& opts = {});
Report check_closed_form_vs_quadrature(const RunOptions& opts = {});
Report check_fill_normal_vs_normal(const RunOptions& opts = {});
Report check_path_lanes_vs_one_device(const RunOptions& opts = {});

// SIMD backend vs forced-scalar pairs (base/simd.h). The reference side runs
// the SAME public API under simd::ScopedIsa(kScalar) — the scalar backend is
// the pre-SIMD arithmetic verbatim — so these pin the vector backends to the
// legacy numerics on whatever ISA the host dispatches to. When the run is
// already forced scalar they degenerate to an identity check and stay green.
//   * window application is elementwise multiply: bit-identical at any width;
//   * the FFT carries documented few-ulp drift from FMA contraction and
//     reassociated butterflies;
//   * the LPF cascade (one loop for both walks, base/simd_lanes_body.h)
//     fuses its feed-forward taps on the vector backends and keeps the
//     recurrence in reference order: ~1e-14 absolute at most on
//     unit-scale audio, over orders 2-16 and records from one sample;
//   * add_cosine resyncs both backends to the same double-double carrier
//     every kCosineResyncPeriod samples, bounding the gap near one ulp;
//   * fault simulation is exact logic: detection verdicts and the good
//     waveform must be bit-identical between 64-way and 64*fault_words-way;
//   * ADC conversion and the integer FIR are exact: codes and filter
//     outputs must be bit-identical, over random offset, gain error and
//     4-20 bits, strides 1 and kLanes, decimations 1-16, inputs beyond both
//     rails and exact half-LSB ties; a non-finite point throws on both.
//   * the polar scale kernels (scale_pairs, polar_factor) evaluate one
//     definition of the log (base/polar_log.h) on every backend: every
//     compiled backend's deviates from both must equal
//     base::polar_factor's scalar form bit for bit, on 0 to 17 pairs at
//     strides 1 and kLanes, s from the polar loop with near-1 members and
//     the domain's ends mixed in.
Report check_simd_window_vs_scalar(const RunOptions& opts = {});
Report check_simd_rfft_vs_scalar(const RunOptions& opts = {});
Report check_simd_biquad_vs_scalar(const RunOptions& opts = {});
Report check_simd_add_cosine_vs_scalar(const RunOptions& opts = {});
Report check_simd_fault_sim_wide_vs_64(const RunOptions& opts = {});
Report check_simd_adc_fir_vs_scalar(const RunOptions& opts = {});
Report check_simd_polar_scale_vs_scalar(const RunOptions& opts = {});

/// Runs every pair above with the same options.
std::vector<Report> run_all_kernel_checks(const RunOptions& opts = {});

}  // namespace msts::check
