// Analog-to-digital converter model.
//
// The interface module between the analog front end and the digital filter.
// Non-idealities from Table 1: offset error, INL, DNL (plus gain error and
// the intrinsic quantisation), all toleranced. digitize() also performs the
// rate change from the analog simulation rate to the digital clock. The
// conversion runs as the per-ISA kernel simd::Kernels::adc_convert, a few
// codes per vector; every step of it is exact (rounding half away from zero
// is written out as truncate-and-step), so the codes are the same on every
// backend.
#pragma once

#include <cstdint>
#include <vector>

#include "analog/signal.h"
#include "stats/rng.h"
#include "stats/uncertain.h"

namespace msts::analog {

/// Datasheet-style ADC description.
struct AdcParams {
  int bits = 12;
  double vref = 1.0;  ///< Full scale is [-vref, +vref).
  stats::Uncertain offset_error_v = stats::Uncertain::from_tolerance(0.0, 2e-3);
  stats::Uncertain gain_error = stats::Uncertain::from_tolerance(0.0, 0.01);
  stats::Uncertain inl_peak_lsb = stats::Uncertain::from_tolerance(0.5, 0.3);
  stats::Uncertain dnl_sigma_lsb = stats::Uncertain::from_tolerance(0.2, 0.1);
};

/// One manufactured converter. The DNL pattern is a fixed per-instance
/// signature drawn at construction, as on real silicon.
class Adc {
 public:
  explicit Adc(const AdcParams& params);
  /// Draws offset, gain error, INL peak and DNL sigma (AdcParams declaration
  /// order), then the DNL pattern seed with one next_u64().
  static Adc sampled(const AdcParams& params, stats::Rng& rng);

  /// Samples every `decimation`-th input point and converts it to a signed
  /// output code in [-2^(bits-1), 2^(bits-1) - 1]; inputs beyond full scale
  /// read the nearer rail. Throws std::invalid_argument when a converted
  /// point is not finite (a NaN or infinite sample, or a NaN parameter).
  std::vector<std::int64_t> digitize(const Signal& in, std::size_t decimation) const;

  /// digitize() into a caller-owned buffer (resized; capacity reused).
  void digitize_into(const Signal& in, std::size_t decimation,
                     std::vector<std::int64_t>& out) const;

  /// digitize_into() of a strided record whose sample i is x[i * stride],
  /// i < n: the lane walk (path/lanes.h) reads one lane of an interleaved
  /// record this way.
  void digitize_strided(const double* x, std::size_t n, std::size_t stride,
                        std::size_t decimation, std::vector<std::int64_t>& out) const;

  /// Converter LSB size in volts.
  double lsb() const;
  /// Digital rate after decimating an input at rate fs.
  double output_rate(double fs, std::size_t decimation) const;

  int bits() const { return bits_; }
  double vref() const { return vref_; }
  double actual_offset_error_v() const { return offset_error_v_; }
  double actual_gain_error() const { return gain_error_; }
  double actual_inl_peak_lsb() const { return inl_peak_lsb_; }

  /// Static INL (in LSB) of the transfer curve at a normalised input
  /// position u in [-1, 1] — smooth bow plus the DNL random walk. Positions
  /// outside the range read the end codes; NaN throws.
  double inl_at(double u) const;

 private:
  Adc(int bits, double vref, double offset_error_v, double gain_error,
      double inl_peak_lsb, double dnl_sigma_lsb, std::uint64_t pattern_seed);

  int bits_;
  double vref_;
  double offset_error_v_;
  double gain_error_;
  double inl_peak_lsb_;
  std::vector<double> inl_table_;  ///< Per-code INL (LSB), includes DNL walk.
};

}  // namespace msts::analog
