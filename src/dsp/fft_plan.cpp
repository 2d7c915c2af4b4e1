#include "dsp/fft_plan.h"

#include <cmath>
#include <functional>
#include <utility>

#include "base/memo.h"
#include "base/require.h"
#include "base/simd.h"
#include "base/units.h"
#include "dsp/fft.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace msts::dsp {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  MSTS_REQUIRE(is_power_of_two(n), "FFT size must be a power of two");

  // Bit-reversal permutation, recorded as the swap pairs an in-place pass
  // performs (each unordered pair once, fixed points dropped).
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swap_lo_.push_back(static_cast<std::uint32_t>(i));
      swap_hi_.push_back(static_cast<std::uint32_t>(j));
    }
  }

  if (n >= 4) {
    twiddles_.reserve(n - 2);
    for (std::size_t len = 4; len <= n; len <<= 1) {
      const double step = -kTwoPi / static_cast<double>(len);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const double a = step * static_cast<double>(k);
        twiddles_.emplace_back(std::cos(a), std::sin(a));
      }
    }
  }
}

void FftPlan::forward(std::complex<double>* x) const {
  const std::size_t n = n_;
  if (n < 2) return;

  const std::uint32_t* lo = swap_lo_.data();
  const std::uint32_t* hi = swap_hi_.data();
  for (std::size_t s = 0; s < swap_lo_.size(); ++s) {
    std::swap(x[lo[s]], x[hi[s]]);
  }

  // All butterfly stages run through the per-ISA kernel table. len = 2 is
  // the twiddle-free add/sub sweep; the remaining stages read their twiddles
  // from the precomputed per-stage table (fft_pass matches the pre-SIMD raw
  // component butterfly formulation; the scalar backend is bit-identical to
  // it, vector backends carry the documented few-ulp drift).
  const simd::Kernels& kern = simd::kernels();
  double* d = reinterpret_cast<double*>(x);
  kern.fft_pass(d, nullptr, n, 2);
  const std::complex<double>* tw = twiddles_.data();
  for (std::size_t len = 4; len <= n; len <<= 1) {
    kern.fft_pass(d, reinterpret_cast<const double*>(tw), n, len);
    tw += len / 2;
  }
}

void FftPlan::inverse(std::complex<double>* x) const {
  // ifft(x) = conj(fft(conj(x))) / N reuses the forward twiddles.
  for (std::size_t i = 0; i < n_; ++i) x[i] = std::conj(x[i]);
  forward(x);
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    x[i] = std::complex<double>(x[i].real() * scale, -x[i].imag() * scale);
  }
}

RfftPlan::RfftPlan(std::size_t n) : n_(n) {
  MSTS_REQUIRE(is_power_of_two(n), "FFT size must be a power of two");
  if (n >= 4) half_ = get_fft_plan(n / 2);
  if (n >= 2) {
    split_tw_.reserve(n / 2 + 1);
    const double step = -kTwoPi / static_cast<double>(n);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      const double a = step * static_cast<double>(k);
      split_tw_.emplace_back(std::cos(a), std::sin(a));
    }
  }
}

void RfftPlan::forward(const double* x, std::complex<double>* out) const {
  const std::size_t n = n_;
  if (n == 1) {
    out[0] = std::complex<double>(x[0], 0.0);
    return;
  }
  const std::size_t m = n / 2;

  // Pack even samples into the real lane and odd samples into the imaginary
  // lane, transform at half size, then disentangle the two interleaved real
  // spectra and recombine them with one extra twiddle rotation per bin.
  thread_local std::vector<std::complex<double>> z;
  z.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    z[i] = std::complex<double>(x[2 * i], x[2 * i + 1]);
  }
  if (half_ != nullptr) half_->forward(z.data());

  out[0] = std::complex<double>(z[0].real() + z[0].imag(), 0.0);
  out[m] = std::complex<double>(z[0].real() - z[0].imag(), 0.0);
  // Bins 1..m-1 recombine through the per-ISA kernel (even/odd split plus
  // one twiddle rotation per bin, vectorized over runs of adjacent bins).
  simd::kernels().rfft_combine(
      reinterpret_cast<const double*>(z.data()),
      reinterpret_cast<const double*>(split_tw_.data()),
      reinterpret_cast<double*>(out), m);
}

namespace {

struct WindowKeyHash {
  std::size_t operator()(const std::pair<std::size_t, int>& key) const {
    return std::hash<std::size_t>{}(key.first * 31 + static_cast<std::size_t>(key.second));
  }
};

// Never destroyed: plans may be looked up from threads that outlive static
// destruction order (same rationale as obs::Registry).
struct PlanMemos {
  Memo<std::size_t, FftPlan> fft;
  Memo<std::size_t, RfftPlan> rfft;
  Memo<std::pair<std::size_t, int>, WindowPlan, WindowKeyHash> window;
};

PlanMemos& caches() {
  static PlanMemos* c = new PlanMemos;
  return *c;
}

// The memoized plan for `key`, counted as `<counter>.hit` or `.miss` and
// noted on the caller's span. A miss builds outside the memo's lock (see
// base/memo.h); concurrent misses on one size adopt the first plan built.
template <class Plan, class Key, class Hash, class Build>
std::shared_ptr<const Plan> memoized(Memo<Key, Plan, Hash>& memo, const Key& key,
                                     const char* hit_counter, const char* miss_counter,
                                     obs::Span& span, Build build) {
  if (auto plan = memo.lookup(key)) {
    obs::counter_add(hit_counter);
    span.note("hit", std::int64_t{1});
    return plan;
  }
  obs::counter_add(miss_counter);
  span.note("hit", std::int64_t{0});
  return memo.insert(key, build());
}

std::shared_ptr<const WindowPlan> build_window_plan(std::size_t n, WindowType type) {
  auto plan = std::make_shared<WindowPlan>();
  plan->samples = make_window(n, type);
  double s1 = 0.0;
  double s2 = 0.0;
  for (double v : plan->samples) {
    s1 += v;
    s2 += v * v;
  }
  plan->coherent_gain = s1 / static_cast<double>(n);
  plan->enbw_bins = static_cast<double>(n) * s2 / (s1 * s1);
  return plan;
}

}  // namespace

std::shared_ptr<const FftPlan> get_fft_plan(std::size_t n) {
  MSTS_REQUIRE(is_power_of_two(n), "FFT size must be a power of two");
  obs::Span span("dsp.plan_cache.fft");
  span.note("n", static_cast<std::int64_t>(n));
  return memoized(caches().fft, n, "dsp.plan_cache.fft.hit", "dsp.plan_cache.fft.miss",
                  span, [n] { return std::make_shared<const FftPlan>(n); });
}

std::shared_ptr<const RfftPlan> get_rfft_plan(std::size_t n) {
  MSTS_REQUIRE(is_power_of_two(n), "FFT size must be a power of two");
  obs::Span span("dsp.plan_cache.rfft");
  span.note("n", static_cast<std::int64_t>(n));
  return memoized(caches().rfft, n, "dsp.plan_cache.rfft.hit", "dsp.plan_cache.rfft.miss",
                  span, [n] { return std::make_shared<const RfftPlan>(n); });
}

std::shared_ptr<const WindowPlan> get_window_plan(std::size_t n, WindowType type) {
  MSTS_REQUIRE(n >= 1, "window length must be >= 1");
  obs::Span span("dsp.plan_cache.window");
  span.note("n", static_cast<std::int64_t>(n));
  return memoized(caches().window, std::make_pair(n, static_cast<int>(type)),
                  "dsp.plan_cache.window.hit", "dsp.plan_cache.window.miss", span,
                  [n, type] { return build_window_plan(n, type); });
}

}  // namespace msts::dsp
