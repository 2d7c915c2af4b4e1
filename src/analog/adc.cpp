#include "analog/adc.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "base/memo.h"
#include "base/require.h"
#include "base/simd.h"
#include "base/units.h"
#include "stats/monte_carlo.h"

namespace msts::analog {

namespace {

// sin(pi * u) at every code of a `bits`-bit converter, u = 2c/(codes-1) - 1:
// the shape of the INL bow, the same for every converter of a resolution.
// Computed once per resolution and shared across threads.
std::shared_ptr<const std::vector<double>> inl_bow(int bits) {
  static Memo<int, std::vector<double>> memo;
  if (auto hit = memo.lookup(bits)) return hit;
  const std::size_t codes = std::size_t{1} << bits;
  auto bow = std::make_shared<std::vector<double>>(codes);
  for (std::size_t c = 0; c < codes; ++c) {
    const double u = 2.0 * static_cast<double>(c) / static_cast<double>(codes - 1) - 1.0;
    (*bow)[c] = std::sin(kPi * u);
  }
  return memo.insert(bits, std::move(bow));
}

}  // namespace

Adc::Adc(int bits, double vref, double offset_error_v, double gain_error,
         double inl_peak_lsb, double dnl_sigma_lsb, std::uint64_t pattern_seed)
    : bits_(bits),
      vref_(vref),
      offset_error_v_(offset_error_v),
      gain_error_(gain_error),
      inl_peak_lsb_(inl_peak_lsb) {
  MSTS_REQUIRE(bits >= 4 && bits <= 20, "ADC resolution must be 4..20 bits");
  MSTS_REQUIRE(vref > 0.0, "reference voltage must be positive");

  // Fixed per-instance INL signature: a smooth S-shaped bow of amplitude
  // inl_peak_lsb plus a zero-mean DNL random walk. The walk's deviates land
  // in the table first (one block draw); the walk then overwrites each with
  // its code's INL.
  const std::size_t codes = std::size_t{1} << bits;
  inl_table_.resize(codes);
  stats::Rng pattern_rng(pattern_seed);
  pattern_rng.fill_normal(inl_table_);
  const std::shared_ptr<const std::vector<double>> bow = inl_bow(bits);
  double walk = 0.0;
  for (std::size_t c = 0; c < codes; ++c) {
    walk += dnl_sigma_lsb * inl_table_[c] / std::sqrt(static_cast<double>(codes));
    inl_table_[c] = inl_peak_lsb * (*bow)[c] + walk;
  }
  // Re-centre the walk so offset/gain error stay the explicit parameters.
  double mean = 0.0;
  for (double v : inl_table_) mean += v;
  mean /= static_cast<double>(codes);
  for (double& v : inl_table_) v -= mean;
}

Adc::Adc(const AdcParams& p)
    : Adc(p.bits, p.vref, p.offset_error_v.nominal, p.gain_error.nominal,
          p.inl_peak_lsb.nominal, p.dnl_sigma_lsb.nominal, /*pattern_seed=*/12345) {}

Adc Adc::sampled(const AdcParams& p, stats::Rng& rng) {
  const double offset_error_v = stats::sample(p.offset_error_v, rng);
  const double gain_error = stats::sample(p.gain_error, rng);
  const double inl_peak_lsb = stats::sample(p.inl_peak_lsb, rng);
  const double dnl_sigma_lsb = std::abs(stats::sample(p.dnl_sigma_lsb, rng));
  const std::uint64_t pattern_seed = rng.next_u64();
  return Adc(p.bits, p.vref, offset_error_v, gain_error, inl_peak_lsb, dnl_sigma_lsb,
             pattern_seed);
}

double Adc::lsb() const { return 2.0 * vref_ / static_cast<double>(1ll << bits_); }

double Adc::output_rate(double fs, std::size_t decimation) const {
  MSTS_REQUIRE(decimation >= 1, "decimation must be >= 1");
  return fs / static_cast<double>(decimation);
}

double Adc::inl_at(double u) const {
  MSTS_REQUIRE(!std::isnan(u), "INL position must not be NaN");
  const double clamped = std::clamp(u, -1.0, 1.0);
  const auto codes = static_cast<double>(inl_table_.size() - 1);
  const auto idx = static_cast<std::size_t>((clamped + 1.0) / 2.0 * codes);
  return inl_table_[std::min(idx, inl_table_.size() - 1)];
}

void Adc::digitize_into(const Signal& in, std::size_t decimation,
                        std::vector<std::int64_t>& out) const {
  MSTS_REQUIRE(in.fs > 0.0, "input signal has no sample rate");
  digitize_strided(in.samples.data(), in.size(), 1, decimation, out);
}

void Adc::digitize_strided(const double* x, std::size_t n, std::size_t stride,
                           std::size_t decimation,
                           std::vector<std::int64_t>& out) const {
  MSTS_REQUIRE(decimation >= 1, "decimation must be >= 1");
  simd::AdcTransfer t;
  t.offset_v = offset_error_v_;
  t.gain = 1.0 + gain_error_;
  t.vref = vref_;
  t.lsb = lsb();
  t.code_min = static_cast<double>(-(1ll << (bits_ - 1)));
  t.code_max = static_cast<double>((1ll << (bits_ - 1)) - 1);
  t.inl = inl_table_.data();
  t.inl_codes = inl_table_.size();
  const std::size_t count = n == 0 ? 0 : (n - 1) / decimation + 1;
  out.resize(count);
  const std::size_t done =
      simd::kernels().adc_convert(t, x, stride * decimation, count, out.data());
  if (done < count) out.resize(done);
  MSTS_REQUIRE(done == count, "ADC input is not finite (sample with offset and gain error)");
}

std::vector<std::int64_t> Adc::digitize(const Signal& in, std::size_t decimation) const {
  std::vector<std::int64_t> out;
  digitize_into(in, decimation, out);
  return out;
}

}  // namespace msts::analog
