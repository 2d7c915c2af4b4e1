// Precomputed FFT execution plans and the process-wide plan cache.
//
// Every spectral observation in the toolkit runs through a handful of record
// lengths (4096-point translated-test records, short fault-signature records,
// Welch segments), so the transform setup work — twiddle factors, bit-reversal
// permutation, window samples and their calibration sums — is computed once
// per size and shared. Plans are immutable after construction and handed out
// as shared_ptr<const ...>, so any number of threads may execute the same plan
// concurrently; the cache is one first-wins memo per plan kind (base/memo.h,
// DESIGN.md "Planned kernels").
//
// Accuracy note: each twiddle is evaluated with exact library trig at its own
// angle, unlike the incremental w *= wlen recurrence the unplanned FFT used,
// whose rounding error grew along each butterfly run.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dsp/window.h"

namespace msts::dsp {

/// Execution plan for a complex radix-2 FFT of one fixed power-of-two size.
class FftPlan {
 public:
  /// Builds the bit-reversal swap list and per-stage twiddle tables.
  /// Precondition: n is a power of two >= 1.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward DFT: X[k] = sum_n x[n] exp(-j 2 pi n k / N).
  /// `x` must hold size() elements. Safe to call from any number of threads
  /// concurrently (the plan is read-only during execution).
  void forward(std::complex<double>* x) const;

  /// In-place inverse DFT including the 1/N normalisation.
  void inverse(std::complex<double>* x) const;

 private:
  std::size_t n_;
  // Bit-reversal permutation as explicit swap pairs (i < j only), so the
  // permutation pass is a straight run over two index arrays.
  std::vector<std::uint32_t> swap_lo_;
  std::vector<std::uint32_t> swap_hi_;
  // Twiddles for stages len = 4, 8, ..., n, concatenated: stage `len`
  // contributes exp(-j 2 pi k / len) for k = 0..len/2-1. The len = 2 stage
  // needs no twiddles and is executed as a dedicated add/sub pass.
  std::vector<std::complex<double>> twiddles_;
};

/// Execution plan for a real-input FFT: N real samples in, N/2+1 bins out,
/// computed as one N/2-point complex FFT plus an O(N) split stage.
class RfftPlan {
 public:
  /// Precondition: n is a power of two >= 1.
  explicit RfftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t num_bins() const { return n_ / 2 + 1; }

  /// Forward transform of `x` (size() reals) into `out` (num_bins() bins).
  /// Thread-safe; uses a per-thread scratch buffer internally.
  void forward(const double* x, std::complex<double>* out) const;

 private:
  std::size_t n_;
  std::shared_ptr<const FftPlan> half_;            // n/2-point complex plan
  std::vector<std::complex<double>> split_tw_;     // exp(-j 2 pi k / n), k=0..n/2
};

/// A window realised at one length, with the calibration sums Spectrum needs.
struct WindowPlan {
  std::vector<double> samples;  ///< w[0..n-1].
  double coherent_gain = 1.0;   ///< mean(w).
  double enbw_bins = 1.0;       ///< n * sum(w^2) / sum(w)^2.
};

/// Shared plans from the process-wide cache. Thread-safe; hit/miss totals are
/// published on the obs counters dsp.plan_cache.{fft,rfft,window}.{hit,miss}.
std::shared_ptr<const FftPlan> get_fft_plan(std::size_t n);
std::shared_ptr<const RfftPlan> get_rfft_plan(std::size_t n);
std::shared_ptr<const WindowPlan> get_window_plan(std::size_t n, WindowType type);

}  // namespace msts::dsp
