// Generic kernel bodies for one SIMD backend. Included (not compiled
// standalone) by the per-ISA translation units with
//
//   #define MSTS_SIMD_BACKEND_NS backend_avx2   // namespace to define
//   #define MSTS_SIMD_BACKEND_ISA Isa::kAvx2    // table identity
//   #define MSTS_SIMD_WIDTH 4                   // doubles per vector
//   #include "base/simd_kernels_body.h"
//
// and per-TU compile flags (-mavx2 -mfma, -mavx512f ..., nothing for NEON /
// scalar), so one arithmetic formulation compiles into each instruction set.
// The vectors are GCC/Clang vector extensions — portable across x86-64 and
// aarch64, and synthesized from narrower ops when the TU's flags don't cover
// the width — with __builtin_shufflevector (GCC >= 12, any Clang) for the
// complex-number lane permutations.
//
// MSTS_SIMD_WIDTH == 1 selects the pure scalar bodies instead, which
// reproduce the pre-SIMD kernels bit for bit: the scalar backend is both the
// any-machine fallback and the golden reference the differential suite
// compares every vector backend against (see check/kernel_checks.h).
//
// Rounding contract per kernel:
//  * apply_window, fir_block, fault_eval — element-wise products, integer
//    and logic ops: bit-identical across all backends;
//  * fft_pass, rfft_combine — same expression shapes as scalar, but the
//    per-TU flags may contract mul+add to FMA: few-ulp drift, bounded by the
//    differential tolerances;
//  * add_cosine — lane count grows with the width (2 vectors of
//    MSTS_SIMD_WIDTH), but every lane is reseeded from the shared
//    double-double carrier (base/dd.h) each kCosineResyncPeriod of its own
//    steps, so the 1e-12 / 1M-sample drift contract holds at any width.

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>

#include "base/dd.h"
#include "base/simd.h"

#ifndef MSTS_SIMD_BACKEND_NS
#error "simd_kernels_body.h must be included by a backend TU"
#endif

namespace msts::simd {
namespace MSTS_SIMD_BACKEND_NS {

// The lane kernels, the one-record LPF and the ADC conversion, defined by
// this backend's simd_lanes_<isa>.cpp (built without FP contraction; see
// base/simd_lanes_body.h).
void lo_lanes(LoLanes& lo, double* x, std::size_t n);
void lpf_record(const LpfCascade& f, const double* in, double* out, std::size_t n);
void lpf_lanes(const LpfCascade* lanes, double* x, std::size_t n);
void amp_lanes(const AmpLanes& amp, const double* in, bool shared, const double* noise,
               double* out, std::size_t n);
void mixer_lanes(const MixerLanes& mixer, const double* in, bool shared, const double* noise,
                 const double* lo, double* out, std::size_t n);
void draw_pairs(std::uint64_t (*state)[4], const std::size_t* pairs, std::size_t lanes,
                double* const* uv, double* const* s, std::size_t stride);
void scale_pairs(const double* s, double* uv, std::size_t pairs, std::size_t stride);
double polar_factor(double s);
std::size_t adc_convert(const AdcTransfer& adc, const double* x, std::size_t step,
                        std::size_t count, std::int64_t* out);

namespace {

using base::Dd;
using base::dd_add;
using base::reduce_two_pi;

// ---------------------------------------------------------------------------
// Shared scalar formulations (used verbatim by the scalar backend, and as
// the remainder-tail code of the vector backends).
// ---------------------------------------------------------------------------

// One complex butterfly b' = tw * b; a' = a + b'; b-slot = a - b', written on
// raw components exactly as fft_plan.cpp's pre-SIMD loop.
inline void butterfly_scalar(double* a, double* b, double wr, double wi) {
  const double br = b[0];
  const double bi = b[1];
  const double vr = br * wr - bi * wi;
  const double vi = br * wi + bi * wr;
  const double ur = a[0];
  const double ui = a[1];
  a[0] = ur + vr;
  a[1] = ui + vi;
  b[0] = ur - vr;
  b[1] = ui - vi;
}

// Twiddle-free k = 0 butterfly: a plain add/sub, exactly the pre-SIMD
// complex u + v / u - v (a multiply by (1, 0) could flip a -0 sign).
inline void butterfly_unit(double* a, double* b) {
  const double ur = a[0];
  const double ui = a[1];
  const double vr = b[0];
  const double vi = b[1];
  a[0] = ur + vr;
  a[1] = ui + vi;
  b[0] = ur - vr;
  b[1] = ui - vi;
}

// Real-split recombination for one bin, the exact std::complex formulation
// the pre-SIMD RfftPlan::forward used.
inline void rfft_combine_scalar(const double* z, const double* tw, double* out,
                                std::size_t m, std::size_t k) {
  const auto* zc = reinterpret_cast<const std::complex<double>*>(z);
  const auto* twc = reinterpret_cast<const std::complex<double>*>(tw);
  auto* outc = reinterpret_cast<std::complex<double>*>(out);
  const std::complex<double> a = zc[k];
  const std::complex<double> b = std::conj(zc[m - k]);
  const std::complex<double> even = 0.5 * (a + b);
  const std::complex<double> odd = std::complex<double>(0.0, -0.5) * (a - b);
  outc[k] = even + twc[k] * odd;
}

inline std::uint64_t eval_logic_word(std::uint32_t type, std::uint64_t a,
                                     std::uint64_t b) {
  // Mirrors digital::eval_gate for the 1-/2-input logic types; sources are
  // written by the caller and never appear as SimOps.
  switch (type) {
    case 3: return a;             // kBuf
    case 4: return ~a;            // kNot
    case 5: return a & b;         // kAnd
    case 6: return a | b;         // kOr
    case 7: return ~(a & b);      // kNand
    case 8: return ~(a | b);      // kNor
    case 9: return a ^ b;         // kXor
    case 10: return ~(a ^ b);     // kXnor
    default: return a;
  }
}

#if MSTS_SIMD_WIDTH == 1

// ---------------------------------------------------------------------------
// Pure scalar backend: the pre-SIMD kernels, bit for bit.
// ---------------------------------------------------------------------------

void apply_window(const double* x, const double* w, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * w[i];
}

void fft_pass(double* d, const double* tw, std::size_t n, std::size_t len) {
  if (len == 2) {
    for (std::size_t i = 0; i + 2 <= n; i += 2) {
      const double ur = d[2 * i], ui = d[2 * i + 1];
      const double vr = d[2 * i + 2], vi = d[2 * i + 3];
      d[2 * i] = ur + vr;
      d[2 * i + 1] = ui + vi;
      d[2 * i + 2] = ur - vr;
      d[2 * i + 3] = ui - vi;
    }
    return;
  }
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    butterfly_unit(d + 2 * i, d + 2 * (i + half));
    for (std::size_t k = 1; k < half; ++k) {
      butterfly_scalar(d + 2 * (i + k), d + 2 * (i + k + half), tw[2 * k],
                       tw[2 * k + 1]);
    }
  }
}

void rfft_combine(const double* z, const double* tw, double* out, std::size_t m) {
  for (std::size_t k = 1; k < m; ++k) rfft_combine_scalar(z, tw, out, m, k);
}

void add_cosine(double* dst, std::size_t n, double omega, double phase,
                double amp) {
  // The pre-SIMD four-phasor arrangement (see dsp/oscillator.h): four
  // rotation chains advancing by 4*omega per step, each reseeded from the
  // double-double carrier every kCosineResyncPeriod of its own steps.
  constexpr std::size_t kLanes = 4;
  if (n < kLanes) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] += amp * std::cos(omega * static_cast<double>(i) + phase);
    }
    return;
  }

  const double rr = std::cos(4.0 * omega);
  const double ri = std::sin(4.0 * omega);
  const Dd step = reduce_two_pi(
      {omega * static_cast<double>(kLanes * kCosineResyncPeriod), 0.0});
  Dd carrier{0.0, 0.0};
  bool seeded = false;

  std::size_t i = 0;
  double pr[kLanes];
  double pi[kLanes];
  std::size_t since_sync = kCosineResyncPeriod;  // force initial seed
  while (i + kLanes <= n) {
    if (since_sync >= kCosineResyncPeriod) {
      if (seeded) carrier = dd_add(carrier, step);
      seeded = true;
      const double base = carrier.hi + (carrier.lo + phase);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double ph = base + omega * static_cast<double>(l);
        pr[l] = amp * std::cos(ph);
        pi[l] = amp * std::sin(ph);
      }
      since_sync = 0;
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      dst[i + l] += pr[l];
      const double r = pr[l];
      pr[l] = r * rr - pi[l] * ri;
      pi[l] = r * ri + pi[l] * rr;
    }
    i += kLanes;
    ++since_sync;
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    dst[i] += pr[l];
  }
}

void fir_block(const std::int32_t* coeffs, std::size_t taps, const std::int64_t* x,
               std::int64_t* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t acc = 0;
    for (std::size_t k = 0; k < taps; ++k) acc += coeffs[k] * (x + i)[-static_cast<std::ptrdiff_t>(k)];
    y[i] = acc;
  }
}

void fault_eval(const SimOp* ops, std::size_t nops, std::uint64_t* values,
                const std::uint64_t* and_masks, const std::uint64_t* or_masks,
                std::size_t words) {
  // The scalar backend is the arbitrary-width fallback: it evaluates any
  // word count (digital::ParallelSimulator routes mismatched widths here).
  for (std::size_t o = 0; o < nops; ++o) {
    const SimOp& op = ops[o];
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t v =
          eval_logic_word(op.type, values[op.a + w], values[op.b + w]);
      values[op.out + w] = (v & and_masks[op.out + w]) | or_masks[op.out + w];
    }
  }
}

#else  // MSTS_SIMD_WIDTH > 1: vector backend

// ---------------------------------------------------------------------------
// Vector types and lane permutations.
// ---------------------------------------------------------------------------

constexpr int W = MSTS_SIMD_WIDTH;  // doubles per vector
constexpr int C = W / 2;            // interleaved complex values per vector

typedef double vd __attribute__((vector_size(sizeof(double) * W)));
typedef std::int64_t vi64 __attribute__((vector_size(8 * W)));
typedef std::uint64_t vu64 __attribute__((vector_size(8 * W)));

inline vd loadu(const double* p) {
  vd v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void storeu(double* p, vd v) { std::memcpy(p, &v, sizeof(v)); }
inline vu64 loadu64(const std::uint64_t* p) {
  vu64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void storeu64(std::uint64_t* p, vu64 v) { std::memcpy(p, &v, sizeof(v)); }
inline vi64 loadi64(const std::int64_t* p) {
  vi64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline vd splat(double x) { return ((vd){}) + x; }

#if MSTS_SIMD_WIDTH == 2
#define MSTS_SWAP_RI(v) __builtin_shufflevector(v, v, 1, 0)
#define MSTS_DUP_RE(v) __builtin_shufflevector(v, v, 0, 0)
#define MSTS_DUP_IM(v) __builtin_shufflevector(v, v, 1, 1)
#define MSTS_REV_C(v) (v)
#define MSTS_SWAP_C2(v) (v)  // unused at W == 2 (fft_pass len==2 is scalar)
static const vd kConjSign = {-1.0, 1.0};     // re gets -im*wi, im gets +re*wi
static const vd kImNeg = {1.0, -1.0};        // complex conjugate
static const vd kOddHalf = {0.5, -0.5};      // odd = (0.5 d.im, -0.5 d.re)
static const vd kBflySign = {1.0, 1.0};      // unused at W == 2
#elif MSTS_SIMD_WIDTH == 4
#define MSTS_SWAP_RI(v) __builtin_shufflevector(v, v, 1, 0, 3, 2)
#define MSTS_DUP_RE(v) __builtin_shufflevector(v, v, 0, 0, 2, 2)
#define MSTS_DUP_IM(v) __builtin_shufflevector(v, v, 1, 1, 3, 3)
#define MSTS_REV_C(v) __builtin_shufflevector(v, v, 2, 3, 0, 1)
#define MSTS_SWAP_C2(v) __builtin_shufflevector(v, v, 2, 3, 0, 1)
static const vd kConjSign = {-1.0, 1.0, -1.0, 1.0};
static const vd kImNeg = {1.0, -1.0, 1.0, -1.0};
static const vd kOddHalf = {0.5, -0.5, 0.5, -0.5};
static const vd kBflySign = {1.0, 1.0, -1.0, -1.0};
#elif MSTS_SIMD_WIDTH == 8
#define MSTS_SWAP_RI(v) __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6)
#define MSTS_DUP_RE(v) __builtin_shufflevector(v, v, 0, 0, 2, 2, 4, 4, 6, 6)
#define MSTS_DUP_IM(v) __builtin_shufflevector(v, v, 1, 1, 3, 3, 5, 5, 7, 7)
#define MSTS_REV_C(v) __builtin_shufflevector(v, v, 6, 7, 4, 5, 2, 3, 0, 1)
#define MSTS_SWAP_C2(v) __builtin_shufflevector(v, v, 2, 3, 0, 1, 6, 7, 4, 5)
static const vd kConjSign = {-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0};
static const vd kImNeg = {1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0};
static const vd kOddHalf = {0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5};
static const vd kBflySign = {1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0};
#else
#error "unsupported MSTS_SIMD_WIDTH"
#endif

// Interleaved complex multiply: pairs (re, im) of a times pairs of t.
//   re' = a.re * t.re - a.im * t.im
//   im' = a.re * t.im + a.im * t.re
inline vd cmul(vd a, vd t) {
  return a * MSTS_DUP_RE(t) + MSTS_SWAP_RI(a) * MSTS_DUP_IM(t) * kConjSign;
}

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

void apply_window(const double* x, const double* w, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) storeu(out + i, loadu(x + i) * loadu(w + i));
  for (; i < n; ++i) out[i] = x[i] * w[i];
}

void fft_pass(double* d, const double* tw, std::size_t n, std::size_t len) {
  if (len == 2) {
    // [u, v] pairs in place: result [u + v, u - v]. With two or more
    // butterflies per vector this is swap-halves + signed add; at W == 2
    // (one complex per vector) fall back to the scalar sweep.
    std::size_t i = 0;
    if constexpr (W >= 4) {
      for (; (i + W / 2) * 2 <= 2 * n; i += W / 2) {
        const vd a = loadu(d + 2 * i);
        storeu(d + 2 * i, MSTS_SWAP_C2(a) + a * kBflySign);
      }
    }
    for (; i + 2 <= n; i += 2) {
      const double ur = d[2 * i], ui = d[2 * i + 1];
      const double vr = d[2 * i + 2], vi = d[2 * i + 3];
      d[2 * i] = ur + vr;
      d[2 * i + 1] = ui + vi;
      d[2 * i + 2] = ur - vr;
      d[2 * i + 3] = ui - vi;
    }
    return;
  }
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* a_base = d + 2 * i;
    double* b_base = d + 2 * (i + half);
    butterfly_unit(a_base, b_base);
    std::size_t k = 1;
    for (; k + C <= half; k += C) {
      const vd t = loadu(tw + 2 * k);
      const vd a = loadu(a_base + 2 * k);
      const vd b = loadu(b_base + 2 * k);
      const vd v = cmul(b, t);
      storeu(a_base + 2 * k, a + v);
      storeu(b_base + 2 * k, a - v);
    }
    for (; k < half; ++k) {
      butterfly_scalar(a_base + 2 * k, b_base + 2 * k, tw[2 * k], tw[2 * k + 1]);
    }
  }
}

void rfft_combine(const double* z, const double* tw, double* out, std::size_t m) {
  std::size_t k = 1;
  // The mirror operand z[m - k] runs backwards: load the C-complex window
  // ending at m - k and reverse its complex order, then conjugate.
  for (; k + C <= m; k += C) {
    const vd a = loadu(z + 2 * k);
    const vd braw = loadu(z + 2 * (m - k - (C - 1)));
    const vd b = MSTS_REV_C(braw) * kImNeg;
    const vd even = (a + b) * splat(0.5);
    const vd dif = a - b;
    const vd odd = MSTS_SWAP_RI(dif) * kOddHalf;  // (0.5 d.im, -0.5 d.re)
    storeu(out + 2 * k, even + cmul(odd, loadu(tw + 2 * k)));
  }
  for (; k < m; ++k) rfft_combine_scalar(z, tw, out, m, k);
}

void add_cosine(double* dst, std::size_t n, double omega, double phase,
                double amp) {
  // 2 * W independent phasor lanes (two vectors, so the rotation multiplies
  // pipeline instead of serialising on one chain's FMA latency). Same
  // carrier contract as the scalar 4-lane form: lane l is reseeded from the
  // double-double carrier every kCosineResyncPeriod of its own steps.
  constexpr std::size_t L = 2 * static_cast<std::size_t>(W);
  if (n < L) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] += amp * std::cos(omega * static_cast<double>(i) + phase);
    }
    return;
  }

  const vd vrr = splat(std::cos(static_cast<double>(L) * omega));
  const vd vri = splat(std::sin(static_cast<double>(L) * omega));
  // L * kCosineResyncPeriod is a power of two: the step product is exact.
  const Dd step = reduce_two_pi(
      {omega * static_cast<double>(L * kCosineResyncPeriod), 0.0});
  Dd carrier{0.0, 0.0};
  bool seeded = false;

  vd pr0 = {}, pi0 = {}, pr1 = {}, pi1 = {};
  double lane[L];
  std::size_t since_sync = kCosineResyncPeriod;  // force initial seed
  std::size_t i = 0;
  while (i + L <= n) {
    if (since_sync >= kCosineResyncPeriod) {
      if (seeded) carrier = dd_add(carrier, step);
      seeded = true;
      const double base = carrier.hi + (carrier.lo + phase);
      double li[L];
      for (std::size_t l = 0; l < L; ++l) {
        const double ph = base + omega * static_cast<double>(l);
        lane[l] = amp * std::cos(ph);
        li[l] = amp * std::sin(ph);
      }
      pr0 = loadu(lane);
      pr1 = loadu(lane + W);
      pi0 = loadu(li);
      pi1 = loadu(li + W);
      since_sync = 0;
    }
    storeu(dst + i, loadu(dst + i) + pr0);
    storeu(dst + i + W, loadu(dst + i + W) + pr1);
    const vd t0 = pr0 * vrr - pi0 * vri;
    pi0 = pr0 * vri + pi0 * vrr;
    pr0 = t0;
    const vd t1 = pr1 * vrr - pi1 * vri;
    pi1 = pr1 * vri + pi1 * vrr;
    pr1 = t1;
    i += L;
    ++since_sync;
  }
  // At loop exit the lanes hold the values for samples i .. i+L-1.
  storeu(lane, pr0);
  storeu(lane + W, pr1);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    dst[i] += lane[l];
  }
}

// x * c per lane, for x that fits int32. AVX2 has no packed 64-bit
// multiply, so it takes vpmuldq's signed 32 x 32 -> 64 product of the low
// halves, which is exact for such x.
inline vi64 mul_by_int32(vi64 x, std::int32_t c) {
#if defined(__AVX2__) && !defined(__AVX512DQ__)
  if constexpr (W == 4) {
    return (vi64)_mm256_mul_epi32((__m256i)x, _mm256_set1_epi64x(c));
  }
#endif
  return x * static_cast<std::int64_t>(c);
}

void fir_block(const std::int32_t* coeffs, std::size_t taps, const std::int64_t* x,
               std::int64_t* y, std::size_t n) {
  // W outputs at a time, the taps innermost. Exact int64 arithmetic: any
  // summation order gives the scalar backend's sums.
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    vi64 acc = {};
    for (std::size_t k = 0; k < taps; ++k) {
      acc += mul_by_int32(loadi64((x + i) - static_cast<std::ptrdiff_t>(k)), coeffs[k]);
    }
    std::memcpy(y + i, &acc, sizeof(acc));
  }
  for (; i < n; ++i) {
    std::int64_t acc = 0;
    for (std::size_t k = 0; k < taps; ++k) acc += coeffs[k] * (x + i)[-static_cast<std::ptrdiff_t>(k)];
    y[i] = acc;
  }
}

void fault_eval(const SimOp* ops, std::size_t nops, std::uint64_t* values,
                const std::uint64_t* and_masks, const std::uint64_t* or_masks,
                std::size_t words) {
  if (words != static_cast<std::size_t>(W)) {
    // Width mismatch (caller normally prevents this): scalar sweep.
    for (std::size_t o = 0; o < nops; ++o) {
      const SimOp& op = ops[o];
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t v =
            eval_logic_word(op.type, values[op.a + w], values[op.b + w]);
        values[op.out + w] = (v & and_masks[op.out + w]) | or_masks[op.out + w];
      }
    }
    return;
  }
  const vu64 ones = ~vu64{};
  for (std::size_t o = 0; o < nops; ++o) {
    const SimOp& op = ops[o];
    const vu64 a = loadu64(values + op.a);
    const vu64 b = loadu64(values + op.b);
    vu64 v;
    switch (op.type) {
      case 3: v = a; break;                 // kBuf
      case 4: v = a ^ ones; break;          // kNot
      case 5: v = a & b; break;             // kAnd
      case 6: v = a | b; break;             // kOr
      case 7: v = (a & b) ^ ones; break;    // kNand
      case 8: v = (a | b) ^ ones; break;    // kNor
      case 9: v = a ^ b; break;             // kXor
      case 10: v = (a ^ b) ^ ones; break;   // kXnor
      default: v = a; break;
    }
    v = (v & loadu64(and_masks + op.out)) | loadu64(or_masks + op.out);
    storeu64(values + op.out, v);
  }
}

#endif  // MSTS_SIMD_WIDTH

}  // namespace

extern const Kernels kKernels;
const Kernels kKernels = {
    /*isa=*/MSTS_SIMD_BACKEND_ISA,
    /*f64_width=*/MSTS_SIMD_WIDTH,
    /*fault_words=*/MSTS_SIMD_WIDTH,
    apply_window,
    fft_pass,
    rfft_combine,
    add_cosine,
    lpf_record,
    fir_block,
    adc_convert,
    fault_eval,
    lo_lanes,
    amp_lanes,
    mixer_lanes,
    lpf_lanes,
    draw_pairs,
    scale_pairs,
    polar_factor,
};

}  // namespace MSTS_SIMD_BACKEND_NS
}  // namespace msts::simd
