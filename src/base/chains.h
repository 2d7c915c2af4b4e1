// The per-sample expressions of the transient stages, defined once.
//
// Two walks evaluate them: the one-device walk (dsp::PhasorOscillator for
// the LO, analog::Amplifier and analog::Mixer for the memoryless stages)
// and the lane kernels (base/simd_lanes_body.h), which run kLanes devices
// side by side with one vector lane each. Both call the functions below,
// templated on the value type (double, or a vector of lane values), so
// every lane computes the same expression tree as the one-device code.
// The filter goes further: both walks run one cascade loop (lpf_run in
// base/simd_lanes_body.h), instantiated on one record and on kLanes, and
// it is the only caller of the biquad forms at the end of this file.
//
// Expression trees are only half the contract: a compiler that contracts
// a * b + c into one FMA changes the rounding. The one-device chains are
// compiled without FMA contraction, and so are the lane kernels. The one
// fused form either walk uses, the LPF's feed-forward half on the vector
// backends, is written out with fused_mul_add, so it rounds the same under
// any contraction setting. The polar scale's log (base/polar_log.h) is
// written the same way: every fused form is an explicit fused_mul_add.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "base/dd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace msts::base {

/// a * b + c rounded once, per element. Vector forms use the ISA's FMA
/// instruction where the translation unit enables one.
template <class V>
inline V fused_mul_add(V a, V b, V c) {
  if constexpr (sizeof(V) == sizeof(double)) {
    return __builtin_fma(a, b, c);
  } else {
#if defined(__AVX512F__)
    if constexpr (sizeof(V) == 64) {
      return (V)_mm512_fmadd_pd((__m512d)a, (__m512d)b, (__m512d)c);
    }
#endif
#if defined(__FMA__)
    if constexpr (sizeof(V) == 32) {
      return (V)_mm256_fmadd_pd((__m256d)a, (__m256d)b, (__m256d)c);
    }
#endif
#if defined(__aarch64__)
    if constexpr (sizeof(V) == 16) {
      return (V)vfmaq_f64((float64x2_t)c, (float64x2_t)a, (float64x2_t)b);
    }
#endif
    V r = c;
    for (std::size_t l = 0; l < sizeof(V) / sizeof(double); ++l) {
      r[l] = __builtin_fma(a[l], b[l], c[l]);
    }
    return r;
  }
}

// ---------------------------------------------------------------------------
// Noise generator (stats::Rng): xoshiro256++ and the polar method's
// candidate draw. U is std::uint64_t or a vector of lane states, V double
// or the matching vector of doubles. The scale of an accepted pair, and
// its log, are in base/polar_log.h.
// ---------------------------------------------------------------------------

template <class U>
inline U rotl64(U x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// xoshiro256++ (Blackman & Vigna): the next output; advances the state.
template <class U>
inline U xoshiro_next(U& s0, U& s1, U& s2, U& s3) {
  const U result = rotl64(s0 + s3, 23) + s0;
  const U t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl64(s3, 45);
  return result;
}

/// Uniform double in [0, 1) from the top 53 bits of a draw (exact).
template <class V, class U>
inline V unit_from_bits(U bits) {
  if constexpr (sizeof(V) == sizeof(double)) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  } else {
#if defined(__AVX512DQ__) || defined(__aarch64__)
    // bits >> 11 < 2^53 converts exactly, signed or not.
    typedef std::int64_t I __attribute__((vector_size(sizeof(U))));
    return __builtin_convertvector((I)(bits >> 11), V) * 0x1.0p-53;
#else
    // No packed int64 -> double conversion (it would be one scalar convert
    // per lane): each 32-bit half becomes the mantissa of a double with a
    // fixed exponent, 2^52 + lo and 2^84 + hi * 2^32, and subtracting the
    // exponent's value leaves the half exactly. The sum is the 53-bit
    // integer itself, so it is exact too.
    const U x = bits >> 11;
    const V lo = (V)((x & 0xffffffffull) | 0x4330000000000000ull) - 0x1.0p52;
    const V hi = (V)((x >> 32) | 0x4530000000000000ull) - 0x1.0p84;
    return (hi + lo) * 0x1.0p-53;
#endif
  }
}

/// x as rounded, opaque to FMA contraction: a product passed through it
/// is never fused into the sum that uses it.
template <class V>
inline V no_fuse(V x) {
#if __has_builtin(__builtin_assoc_barrier)
  return __builtin_assoc_barrier(x);
#else
  return x;  // older compilers: left to the unit's contraction setting
#endif
}

/// One polar-method candidate from two uniforms on [0, 1): the pair
/// (u, v) on [-1, 1)^2 and s = u^2 + v^2, which the method accepts when
/// 0 < s < 1. stats::Rng is inline and compiles into every translation
/// unit that draws, under that unit's contraction setting, so s is
/// written to round the same under any: each square on its own (the
/// products 2 * unit are exact, so fusing them changes nothing).
template <class V>
inline V polar_candidate(V unit_u, V unit_v, V& u, V& v) {
  u = 2.0 * unit_u - 1.0;
  v = 2.0 * unit_v - 1.0;
  return no_fuse(u * u) + no_fuse(v * v);
}

// ---------------------------------------------------------------------------
// Rotating phasor (dsp::PhasorOscillator, the LO's jittered carrier).
// ---------------------------------------------------------------------------

/// Samples between exact-trig re-seeds of a rotating phasor; see
/// dsp/oscillator.h for the drift budget it buys.
inline constexpr std::size_t kPhasorResyncPeriod = 512;

/// Largest |angle| unit_phasor resolves with its Taylor pair; larger steps
/// take libm cos/sin.
inline constexpr double kTaylorPhasorLimit = 1e-3;

/// A phasor oscillator's whole state as plain doubles, so a lane kernel can
/// load kLanes of them into vectors and store them back.
struct PhasorState {
  double phase = 0.0;        ///< Static start phase.
  double extra = 0.0;        ///< Accumulated jitter (advance_phase offsets).
  Dd carrier;                ///< omega * n mod 2 pi at the last resync.
  Dd step;                   ///< omega * kPhasorResyncPeriod mod 2 pi.
  std::size_t since_sync = 0;
  double pr = 1.0, pi = 0.0;  ///< Current phasor.
  double rr = 1.0, ri = 0.0;  ///< Rotation per sample, exp(j omega).
};

/// The state of an oscillator at sample 0: phasor exp(j phase), rotation
/// exp(j omega), carrier at zero.
inline PhasorState phasor_start(double omega, double phase) {
  PhasorState s;
  s.phase = phase;
  s.pr = std::cos(phase);
  s.pi = std::sin(phase);
  s.rr = std::cos(omega);
  s.ri = std::sin(omega);
  // kPhasorResyncPeriod is a power of two, so omega * kPhasorResyncPeriod
  // is exact; the one-time reduction leaves step accurate to the
  // double-double level.
  s.step = reduce_two_pi({omega * static_cast<double>(kPhasorResyncPeriod), 0.0});
  return s;
}

/// Advances the carrier one resync period and re-seeds the phasor from
/// exact trig at its true phase (carrier + start phase + jitter).
inline void phasor_resync(PhasorState& s) {
  s.carrier = dd_add(s.carrier, s.step);
  const double ph = s.carrier.hi + (s.carrier.lo + s.phase + s.extra);
  s.pr = std::cos(ph);
  s.pi = std::sin(ph);
  s.since_sync = 0;
}

/// exp(j a) as a degree-5 Taylor pair, exact to double precision for
/// |a| < kTaylorPhasorLimit: the cos truncation error is below
/// a^6/720 ~ 1.4e-21 and the sin error below a^7/5040 ~ 2e-25.
template <class V>
inline void taylor_phasor(V a, V& c, V& s) {
  const V a2 = a * a;
  c = 1.0 - a2 * (0.5 - a2 * (1.0 / 24.0));
  s = a * (1.0 - a2 * ((1.0 / 6.0) - a2 * (1.0 / 120.0)));
}

/// One jittered carrier step: returns Re(phasor * r) for the jitter
/// rotation r = (c, s), then advances the phasor by r * rot. The combined
/// rotation is computed off the phasor's dependency chain.
template <class V>
inline V jitter_rotate(V& pr, V& pi, V rr, V ri, V c, V s) {
  const V cr = c * rr - s * ri;
  const V ci = c * ri + s * rr;
  const V value = pr * c - pi * s;
  const V npr = pr * cr - pi * ci;
  pi = pr * ci + pi * cr;
  pr = npr;
  return value;
}

// ---------------------------------------------------------------------------
// Memoryless stages (analog::Amplifier, analog::Mixer). V is double or a
// vector of lane values. Like polar_candidate, each product that meets a
// sum goes through no_fuse, so a call rounds the same in a unit that
// contracts (the inline one-device wrappers compile into every unit that
// includes them). GCC 12's vectorizer drops the barrier, so a vectorized
// loop over them still needs -ffp-contract=off, as both walks' units have.
// ---------------------------------------------------------------------------

/// std::clamp(x, lo, hi) as libstdc++ evaluates it, min(max(x, lo), hi),
/// per element: a NaN passes through, and so does a zero's sign.
template <class V>
inline V clamp_like_std(V x, V lo, V hi) {
  const V m = x < lo ? lo : x;
  return hi < m ? hi : m;
}

/// Memoryless nonlinearity shared by the amplifier and mixer models:
/// y = a1*(x + c2 x^2 + c3 x^3), then hard-limited at +/-vsat.
template <class V>
inline V apply_nonlinearity(V x, V a1, V c2, V c3, V vsat) {
  const V y = a1 * (x + no_fuse(c2 * x * x) + no_fuse(c3 * x * x * x));
  return clamp_like_std(y, -vsat, vsat);
}

/// One amplifier output sample from input x and its noise deviate.
template <class V>
inline V amp_apply(V x, V deviate, V noise_sigma, V a1, V c2, V c3, V vsat, V dc_offset_v) {
  const V xn = x + no_fuse(noise_sigma * deviate);
  return apply_nonlinearity(xn, a1, c2, c3, vsat) + dc_offset_v;
}

/// One mixer output sample from the RF sample, its noise deviate and the LO
/// sample: RF-port nonlinearity (no second order), multiplication, then LO
/// feedthrough.
template <class V>
inline V mixer_apply(V rf, V deviate, V lo, V noise_sigma, V a1, V c3, V vsat, V leak) {
  const V x = rf + no_fuse(noise_sigma * deviate);
  const V distorted = apply_nonlinearity(x, a1, V{}, c3, vsat);
  return no_fuse(distorted * lo) + no_fuse(leak * lo);
}

// ---------------------------------------------------------------------------
// Biquad section (analog::LowPassFilter, through lpf_run).
// ---------------------------------------------------------------------------

/// Direct-form-I section output, the scalar backend's form.
template <class V>
inline V biquad_direct(V x, V x1, V x2, V y1, V y2, V b0, V b1, V b2, V a1, V a2) {
  return b0 * x + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2;
}

/// Feed-forward half b0*x + b1*x1 + b2*x2 of the vector backends, fused as
/// b2*x2 + (b0*x + b1*x1). The first two outputs of a record use the
/// two-term forms below (zero history is not added in).
template <class V>
inline V biquad_ff_step(V x, V x1, V x2, V b0, V b1, V b2) {
  return fused_mul_add(b2, x2, fused_mul_add(b0, x, b1 * x1));
}
template <class V>
inline V biquad_ff_first(V x, V b0) {
  return b0 * x;
}
template <class V>
inline V biquad_ff_second(V x, V x1, V b0, V b1) {
  return fused_mul_add(b0, x, b1 * x1);
}

/// Recurrence half: feed-forward value minus the feedback terms.
template <class V>
inline V biquad_recur(V ff, V y1, V y2, V a1, V a2) {
  return ff - a1 * y1 - a2 * y2;
}

}  // namespace msts::base
