// Lane kernels for one SIMD backend: kLanes devices side by side, one
// vector lane each, on records interleaved sample by sample
// (x[i * kLanes + l]). Included by the per-ISA translation units
//
//   #define MSTS_SIMD_BACKEND_NS backend_avx2
//   #define MSTS_SIMD_WIDTH 4
//   #include "base/simd_lanes_body.h"
//
// which build with their backend's ISA flags plus -ffp-contract=off. The
// one-device chains these kernels reproduce (dsp::PhasorOscillator) are
// compiled with -ffp-contract=off too (src/analog, src/dsp), and
// stats::Rng's polar candidate is written to round the same under any
// setting (base/chains.h), so no product fuses in either walk; the one
// fused form, the LPF's feed-forward on the vector backends, is written out
// in base/chains.h. Every lane therefore rounds exactly as the one-device
// walk does on the same backend. The memoryless stages (amp_lanes,
// mixer_lanes) evaluate base/chains.h's amp_apply and mixer_apply, which
// analog::Amplifier and analog::Mixer call too.
//
// Two kernels live here for both walks rather than for the lanes alone.
// The LPF cascade is one loop, lpf_run, instantiated on kLanes interleaved
// records (lpf_lanes) and on one contiguous record (lpf_record, which
// analog::LowPassFilter calls). The ADC conversion (adc_convert) runs
// MSTS_SIMD_WIDTH codes at a time for every caller; its arithmetic is
// exact, so it matches the scalar backend on every backend.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "base/chains.h"
#include "base/polar_log.h"
#include "base/simd.h"

#ifndef MSTS_SIMD_BACKEND_NS
#error "simd_lanes_body.h must be included by a backend TU"
#endif

namespace msts::simd {
namespace MSTS_SIMD_BACKEND_NS {
namespace {

constexpr std::size_t K = kLanes;
typedef double v4 __attribute__((vector_size(sizeof(double) * K)));
typedef std::int64_t m4 __attribute__((vector_size(sizeof(std::int64_t) * K)));

inline v4 load4(const double* p) {
  v4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void store4(double* p, v4 v) { std::memcpy(p, &v, sizeof(v)); }
inline v4 splat4(double x) { return v4{x, x, x, x}; }

// The value `get` reads from each cascade of f, one vector lane per cascade
// (V double: the one cascade's).
template <class V, class Get>
V per_cascade(const LpfCascade* f, Get get) {
  if constexpr (sizeof(V) == sizeof(double)) {
    return get(f[0]);
  } else {
    V v;
    for (std::size_t l = 0; l < K; ++l) v[l] = get(f[l]);
    return v;
  }
}

// One section's coefficients, one vector lane per cascade.
template <class V>
struct Section {
  V b0, b1, b2, a1, a2;
};

// The cascade over a whole record from zero state, S sections (S == 0:
// the section count is read at run time). V is double for one contiguous
// record, v4 for kLanes records interleaved sample by sample. Each sample
// is read before it is written, so in may equal out.
template <class V, std::size_t S>
void lpf_run(const LpfCascade* f, const double* in, double* out, std::size_t n) {
  constexpr std::size_t kMax = LpfCascade::kMaxSections;
  constexpr std::size_t L = sizeof(V) / sizeof(double);
  const std::size_t sections = S != 0 ? S : f[0].count;
  Section<V> q[S != 0 ? S : kMax];
  V x1[S != 0 ? S : kMax], x2[S != 0 ? S : kMax];
  V y1[S != 0 ? S : kMax], y2[S != 0 ? S : kMax];
  for (std::size_t s = 0; s < sections; ++s) {
    const auto coeff = [&](double Biquad::*c) {
      return per_cascade<V>(f, [&](const LpfCascade& g) { return g.sections[s].*c; });
    };
    q[s] = {coeff(&Biquad::b0), coeff(&Biquad::b1), coeff(&Biquad::b2),
            coeff(&Biquad::a1), coeff(&Biquad::a2)};
    x1[s] = x2[s] = y1[s] = y2[s] = V{};
  }
  const V gain = per_cascade<V>(f, [](const LpfCascade& g) { return g.gain; });
  // Start 0 and 1 are a record's first two samples, 2 every later one.
  auto sample = [&](std::size_t i, auto start) {
    V v;
    std::memcpy(&v, in + i * L, sizeof(v));
    for (std::size_t s = 0; s < sections; ++s) {
#if MSTS_SIMD_WIDTH == 1
      (void)start;
      const V y = base::biquad_direct(v, x1[s], x2[s], y1[s], y2[s], q[s].b0, q[s].b1,
                                      q[s].b2, q[s].a1, q[s].a2);
#else
      // The samples before the record are absent, not zeros: the first two
      // feed-forward outputs are the two-term forms.
      V ff;
      if constexpr (decltype(start)::value == 0) {
        ff = base::biquad_ff_first(v, q[s].b0);
      } else if constexpr (decltype(start)::value == 1) {
        ff = base::biquad_ff_second(v, x1[s], q[s].b0, q[s].b1);
      } else {
        ff = base::biquad_ff_step(v, x1[s], x2[s], q[s].b0, q[s].b1, q[s].b2);
      }
      const V y = base::biquad_recur(ff, y1[s], y2[s], q[s].a1, q[s].a2);
#endif
      x2[s] = x1[s];
      x1[s] = v;
      y2[s] = y1[s];
      y1[s] = y;
      v = y;
    }
    const V y = v * gain;
    std::memcpy(out + i * L, &y, sizeof(y));
  };
  if (n > 0) sample(0, std::integral_constant<int, 0>{});
  if (n > 1) sample(1, std::integral_constant<int, 1>{});
  for (std::size_t i = 2; i < n; ++i) sample(i, std::integral_constant<int, 2>{});
}

// lpf_run with the common section counts fixed at compile time.
template <class V>
void lpf_sections(const LpfCascade* f, const double* in, double* out, std::size_t n) {
  switch (f[0].count) {
    case 1: lpf_run<V, 1>(f, in, out, n); return;
    case 2: lpf_run<V, 2>(f, in, out, n); return;
    case 3: lpf_run<V, 3>(f, in, out, n); return;
    case 4: lpf_run<V, 4>(f, in, out, n); return;
    default: lpf_run<V, 0>(f, in, out, n); return;
  }
}

// Lane l's bit of a kernel's `active` field as a vector mask.
inline m4 lane_mask(unsigned active) {
  m4 m;
  for (std::size_t l = 0; l < K; ++l) m[l] = ((active >> l) & 1u) != 0 ? -1 : 0;
  return m;
}

// A memoryless stage over n interleaved samples: out = f(x, deviate, i)
// on the active lanes, where x is the shared stimulus sample or the lane's
// own.
template <class F>
void memoryless_lanes(unsigned active, const double* in, bool shared, const double* noise,
                      double* out, std::size_t n, F f) {
  const m4 on = lane_mask(active);
  const auto run = [&](auto shared_input) {
    for (std::size_t i = 0; i < n; ++i) {
      const v4 x = shared_input ? splat4(in[i]) : load4(in + i * K);
      const v4 y = f(x, load4(noise + i * K), i);
      store4(out + i * K, on != 0 ? y : load4(out + i * K));
    }
  };
  if (shared) {
    run(std::true_type{});
  } else {
    run(std::false_type{});
  }
}

// One ADC code (simd.h, adc_convert); false when (x + offset) * gain is
// not finite. Rounding half away from zero is written out: truncate, then
// step away from zero when the dropped fraction is at least one half. The
// fraction is exact (|f| <= 2^19 after the clamp), so this equals llround.
inline bool adc_code(const AdcTransfer& a, double x, std::int64_t& code) {
  const double v = (x + a.offset_v) * a.gain;
  if (!std::isfinite(v)) return false;
  const double u = base::clamp_like_std(v / a.vref, -1.0, 1.0);
  const auto top = static_cast<double>(a.inl_codes - 1);
  const auto idx = static_cast<std::size_t>((u + 1.0) / 2.0 * top);
  const double inl = a.inl[idx < a.inl_codes - 1 ? idx : a.inl_codes - 1];
  const double f = base::clamp_like_std(v / a.lsb + inl, a.code_min, a.code_max);
  const auto t = static_cast<std::int64_t>(f);
  const double frac = f - static_cast<double>(t);
  code = t + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
  return true;
}

}  // namespace

void amp_lanes(const AmpLanes& a, const double* in, bool shared, const double* noise,
               double* out, std::size_t n) {
  const v4 a1 = load4(a.a1), c2 = load4(a.c2), c3 = load4(a.c3), vsat = load4(a.vsat);
  const v4 sigma = load4(a.noise_sigma), dc = load4(a.dc_offset_v);
  memoryless_lanes(a.active, in, shared, noise, out, n, [&](v4 x, v4 dev, std::size_t) {
    return base::amp_apply(x, dev, sigma, a1, c2, c3, vsat, dc);
  });
}

void mixer_lanes(const MixerLanes& mx, const double* in, bool shared, const double* noise,
                 const double* lo, double* out, std::size_t n) {
  const v4 a1 = load4(mx.a1), c3 = load4(mx.c3), vsat = load4(mx.vsat);
  const v4 leak = load4(mx.leak), sigma = load4(mx.noise_sigma);
  memoryless_lanes(mx.active, in, shared, noise, out, n, [&](v4 x, v4 dev, std::size_t i) {
    return base::mixer_apply(x, dev, load4(lo + i * K), sigma, a1, c3, vsat, leak);
  });
}

std::size_t adc_convert(const AdcTransfer& a, const double* x, std::size_t step,
                        std::size_t count, std::int64_t* out) {
  std::size_t j = 0;
#if MSTS_SIMD_WIDTH > 1
  // W codes at a time, each operation as adc_code performs it. The INL
  // position and the clamped code fit int32 (at most 2^20 codes), which
  // every backend converts to and from double in vector registers.
  constexpr std::size_t W = MSTS_SIMD_WIDTH;
  typedef double vw __attribute__((vector_size(8 * W)));
  typedef std::int64_t mw __attribute__((vector_size(8 * W)));
  typedef std::int32_t iw __attribute__((vector_size(4 * W)));
  const vw offset = vw{} + a.offset_v, gain = vw{} + a.gain, vref = vw{} + a.vref;
  const vw lsb = vw{} + a.lsb, code_min = vw{} + a.code_min, code_max = vw{} + a.code_max;
  const vw one = vw{} + 1.0, half = vw{} + 0.5;
  const vw top = vw{} + static_cast<double>(a.inl_codes - 1);
  const iw last = iw{} + static_cast<std::int32_t>(a.inl_codes - 1);
  for (; j + W <= count; j += W) {
    vw xv;
    for (std::size_t w = 0; w < W; ++w) xv[w] = x[(j + w) * step];
    const vw v = (xv + offset) * gain;
    // v - v is 0 exactly when v is finite; otherwise adc_code below finds
    // the sample.
    const mw finite = (v - v) == 0.0;
    bool all = true;
    for (std::size_t w = 0; w < W; ++w) all = all && finite[w] != 0;
    if (!all) break;
    const vw u = base::clamp_like_std(v / vref, -one, one);
    iw idx = __builtin_convertvector((u + one) / 2.0 * top, iw);
    idx = idx < last ? idx : last;
    vw inl;
    for (std::size_t w = 0; w < W; ++w) inl[w] = a.inl[idx[w]];
    const vw f = base::clamp_like_std(v / lsb + inl, code_min, code_max);
    const iw t = __builtin_convertvector(f, iw);
    const vw frac = f - __builtin_convertvector(t, vw);
    // A true comparison is -1.
    const mw code = __builtin_convertvector(t, mw) - (mw)(frac >= half) + (mw)(frac <= -half);
    std::memcpy(out + j, &code, sizeof(code));
  }
#endif
  for (; j < count; ++j) {
    if (!adc_code(a, x[j * step], out[j])) return j;
  }
  return count;
}

void lo_lanes(LoLanes& lo, double* x, std::size_t n) {
  v4 pr, pi, rr, ri, extra, pn, amp;
  m4 active;
  for (std::size_t l = 0; l < K; ++l) {
    const base::PhasorState& s = lo.osc[l];
    const bool on = (lo.active >> l) & 1u;
    pr[l] = s.pr;
    pi[l] = s.pi;
    rr[l] = s.rr;
    ri[l] = s.ri;
    extra[l] = s.extra;
    // An idle lane steps with zero jitter; its samples are never stored.
    pn[l] = on ? lo.phase_noise[l] : 0.0;
    amp[l] = lo.amplitude[l];
    active[l] = on ? -1 : 0;
  }
  const v4 limit = splat4(base::kTaylorPhasorLimit);
  std::size_t since = lo.osc[0].since_sync;
  for (std::size_t i = 0; i < n; ++i) {
    if (since >= base::kPhasorResyncPeriod) {
      for (std::size_t l = 0; l < K; ++l) {
        if (active[l] == 0) continue;
        base::PhasorState& s = lo.osc[l];
        s.extra = extra[l];
        base::phasor_resync(s);
        pr[l] = s.pr;
        pi[l] = s.pi;
      }
      since = 0;
    }
    const v4 in = load4(x + i * K);
    const v4 d = pn * in;
    extra += d;
    v4 c, s;
    base::taylor_phasor(d, c, s);
    // |d| < limit, false for NaN as in unit_phasor: other lanes take libm.
    const m4 big = active & ~((d < limit) & (d > -limit));
    if ((big[0] | big[1] | big[2] | big[3]) != 0) {
      for (std::size_t l = 0; l < K; ++l) {
        if (big[l] != 0) {
          c[l] = std::cos(d[l]);
          s[l] = std::sin(d[l]);
        }
      }
    }
    const v4 value = base::jitter_rotate(pr, pi, rr, ri, c, s);
    store4(x + i * K, active != 0 ? amp * value : in);
    ++since;
  }
  for (std::size_t l = 0; l < K; ++l) {
    base::PhasorState& s = lo.osc[l];
    s.pr = pr[l];
    s.pi = pi[l];
    s.extra = extra[l];
    s.since_sync = since;
  }
}

void draw_pairs(std::uint64_t (*state)[4], const std::size_t* pairs, std::size_t lanes,
                double* const* uv, double* const* s, std::size_t stride) {
  // Every lane steps each round; a lane that has accepted its pairs keeps
  // its old state and writes nothing. The scalar backend runs this loop
  // too, on whatever vectors its baseline target has.
  typedef std::uint64_t u4 __attribute__((vector_size(8 * K)));
  u4 s0 = {}, s1 = {}, s2 = {}, s3 = {};
  m4 need = {};
  std::size_t k[K] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    s0[l] = state[l][0];
    s1[l] = state[l][1];
    s2[l] = state[l][2];
    s3[l] = state[l][3];
    need[l] = static_cast<std::int64_t>(pairs[l]);
  }
  // One candidate per lane: stores it (a rejected one goes to the slot the
  // next candidate overwrites) and returns the acceptance mask.
  const auto round = [&](m4 active) {
    const v4 unit_u = base::unit_from_bits<v4>(base::xoshiro_next(s0, s1, s2, s3));
    const v4 unit_v = base::unit_from_bits<v4>(base::xoshiro_next(s0, s1, s2, s3));
    v4 u, v;
    const v4 q = base::polar_candidate(unit_u, unit_v, u, v);
    const m4 accepted = ((q < 1.0) & (q != 0.0)) & active;
    if (uv != nullptr) {
      for (std::size_t l = 0; l < lanes; ++l) {
        if (active[l] == 0) continue;
        uv[l][2 * k[l] * stride] = u[l];
        uv[l][(2 * k[l] + 1) * stride] = v[l];
        s[l][k[l]] = q[l];
        k[l] -= static_cast<std::size_t>(accepted[l]);  // true is -1
      }
    }
    need += accepted;
  };
  // Mask-free stretches: a round accepts at most one pair per lane, so
  // while the requested lane with the fewest pairs to go needs r more,
  // the next r rounds are active on every requested lane. They run without
  // the keep mask and the state blend, so the state chain does not wait on
  // the acceptance test. (An idle lane l >= lanes steps its zero state,
  // which stays zero and never accepts.)
  const m4 all = ~m4{};
  for (;;) {
    std::int64_t r = lanes > 0 ? need[0] : 0;
    for (std::size_t l = 1; l < lanes; ++l) r = need[l] < r ? need[l] : r;
    if (r <= 0) break;
    for (; r > 0; --r) round(all);
  }
  // The tail: lanes that are done keep their state.
  for (;;) {
    const m4 active = need > 0;
    if ((active[0] | active[1] | active[2] | active[3]) == 0) break;
    const u4 o0 = s0, o1 = s1, o2 = s2, o3 = s3;
    round(active);
    const u4 keep = (u4)active;
    s0 = (s0 & keep) | (o0 & ~keep);
    s1 = (s1 & keep) | (o1 & ~keep);
    s2 = (s2 & keep) | (o2 & ~keep);
    s3 = (s3 & keep) | (o3 & ~keep);
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    state[l][0] = s0[l];
    state[l][1] = s1[l];
    state[l][2] = s2[l];
    state[l][3] = s3[l];
  }
}

void scale_pairs(const double* s, double* uv, std::size_t pairs, std::size_t stride) {
  std::size_t k = 0;
#if MSTS_SIMD_WIDTH > 1
  constexpr std::size_t W = MSTS_SIMD_WIDTH;
  typedef double vw __attribute__((vector_size(8 * W)));
  for (; k + W <= pairs; k += W) {
    vw sv;
    std::memcpy(&sv, s + k, sizeof(sv));
    const vw m = base::polar_factor(sv);
    for (std::size_t w = 0; w < W; ++w) {
      uv[2 * (k + w) * stride] *= m[w];
      uv[(2 * (k + w) + 1) * stride] *= m[w];
    }
  }
#endif
  for (; k < pairs; ++k) {
    const double m = base::polar_factor(s[k]);
    uv[2 * k * stride] *= m;
    uv[(2 * k + 1) * stride] *= m;
  }
}

double polar_factor(double s) { return base::polar_factor(s); }

void lpf_lanes(const LpfCascade* lanes, double* x, std::size_t n) {
  lpf_sections<v4>(lanes, x, x, n);
}

void lpf_record(const LpfCascade& f, const double* in, double* out, std::size_t n) {
  lpf_sections<double>(&f, in, out, n);
}

}  // namespace MSTS_SIMD_BACKEND_NS
}  // namespace msts::simd
