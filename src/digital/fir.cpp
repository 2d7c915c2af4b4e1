#include "digital/fir.h"

#include "base/require.h"
#include "base/simd.h"

namespace msts::digital {

FirCircuit build_fir(std::span<const std::int32_t> coeffs, int input_width,
                     int coeff_frac_bits) {
  MSTS_REQUIRE(coeffs.size() >= 1, "FIR needs at least one tap");
  MSTS_REQUIRE(input_width >= 2 && input_width <= 24, "input width must be 2..24");

  FirCircuit fir;
  fir.coeffs.assign(coeffs.begin(), coeffs.end());
  fir.input_width = input_width;
  fir.coeff_frac_bits = coeff_frac_bits;

  NetlistBuilder b(fir.netlist);
  fir.input = b.input_bus("x", static_cast<std::size_t>(input_width));

  // Delay line: tap k sees x[n-k].
  std::vector<Bus> taps;
  taps.reserve(coeffs.size());
  taps.push_back(fir.input);
  for (std::size_t k = 1; k < coeffs.size(); ++k) {
    taps.push_back(b.register_bus(taps.back(), "z" + std::to_string(k)));
  }

  // Per-tap constant multipliers.
  std::vector<Bus> products;
  products.reserve(coeffs.size());
  for (std::size_t k = 0; k < coeffs.size(); ++k) {
    products.push_back(
        b.multiply_const(taps[k], coeffs[k], "tap" + std::to_string(k)));
  }

  // Balanced adder tree keeps bus widths to input + coeff + log2(taps).
  int level = 0;
  while (products.size() > 1) {
    std::vector<Bus> next;
    next.reserve((products.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < products.size(); i += 2) {
      next.push_back(b.add(products[i], products[i + 1],
                           "sum" + std::to_string(level) + "_" + std::to_string(i / 2)));
    }
    if (products.size() % 2 == 1) next.push_back(products.back());
    products = std::move(next);
    ++level;
  }

  fir.output = products.front();
  for (std::size_t i = 0; i < fir.output.width(); ++i) {
    fir.netlist.mark_output(fir.output.bits[i], "y[" + std::to_string(i) + "]");
  }
  return fir;
}

FirModel::FirModel(std::span<const std::int32_t> coeffs, int input_width)
    : coeffs_(coeffs.begin(), coeffs.end()),
      delay_(coeffs.empty() ? 0 : coeffs.size() - 1, 0),
      input_width_(input_width) {
  MSTS_REQUIRE(!coeffs_.empty(), "FIR needs at least one tap");
  MSTS_REQUIRE(input_width >= 2 && input_width <= 24, "input width must be 2..24");
}

std::int64_t FirModel::step(std::int64_t x) {
  MSTS_REQUIRE(x == clamp_to_width(x, input_width_), "input exceeds bus width");
  const std::size_t m = delay_.size();
  std::int64_t acc = coeffs_[0] * x;
  // delay_[(pos_ + k) % m] holds x[n-1-k]; walk it without dividing.
  std::size_t idx = pos_;
  for (std::size_t k = 1; k < coeffs_.size(); ++k) {
    acc += coeffs_[k] * delay_[idx];
    ++idx;
    if (idx == m) idx = 0;
  }
  // Overwrite the oldest sample with x: it becomes x[n-1] next cycle.
  if (m != 0) {
    pos_ = (pos_ == 0) ? m - 1 : pos_ - 1;
    delay_[pos_] = x;
  }
  return acc;
}

void FirModel::reset() {
  std::fill(delay_.begin(), delay_.end(), 0);
  pos_ = 0;
}

std::vector<std::int64_t> FirModel::run(std::span<const std::int64_t> x) {
  reset();
  std::vector<std::int64_t> y;
  fir_block_into(coeffs_, input_width_, x, y);
  return y;
}

void fir_block_into(std::span<const std::int32_t> coeffs, int input_width,
                    std::span<const std::int64_t> x, std::vector<std::int64_t>& y) {
  MSTS_REQUIRE(!coeffs.empty(), "FIR needs at least one tap");
  // As FirModel: 24-bit inputs at most, so every input fits the kernel's
  // 32-bit multiply.
  MSTS_REQUIRE(input_width >= 2 && input_width <= 24, "input width must be 2..24");
  for (std::int64_t v : x) {
    MSTS_REQUIRE(v == clamp_to_width(v, input_width), "input exceeds bus width");
  }
  const std::size_t n = x.size();
  const std::size_t taps = coeffs.size();
  y.resize(n);
  // Warm-up region: history shorter than the tap count (implicit zeros).
  const std::size_t head = std::min(n, taps - 1);
  for (std::size_t i = 0; i < head; ++i) {
    std::int64_t acc = 0;
    for (std::size_t k = 0; k <= i; ++k) acc += coeffs[k] * x[i - k];
    y[i] = acc;
  }
  // Steady state: full-length sums against the record itself, a block of
  // outputs at a time through the per-ISA kernel. Exact int64 arithmetic —
  // identical on every backend.
  simd::kernels().fir_block(coeffs.data(), taps, x.data() + head, y.data() + head, n - head);
}

std::int64_t clamp_to_width(std::int64_t v, int width) {
  const std::int64_t hi = (1ll << (width - 1)) - 1;
  const std::int64_t lo = -(1ll << (width - 1));
  if (v > hi) return hi;
  if (v < lo) return lo;
  return v;
}

}  // namespace msts::digital
