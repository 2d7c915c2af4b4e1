// The natural log of the polar method's s, one definition for every
// backend.
//
// stats::Rng maps an accepted polar pair (u, v), s = u^2 + v^2, to the
// deviates u * m and v * m with m = polar_factor(s) = sqrt(-2 log(s) / s).
// Every deviate goes through one of two kernels: a block of pairs through
// simd::Kernels::scale_pairs, which evaluates the function below W lanes
// at a time on the vector backends and one at a time on the scalar backend
// and in its tail, and Rng::normal()'s one pair through
// simd::Kernels::polar_factor, the scalar form by value. Both forms are one template over V (double,
// or a GCC vector of doubles) and perform the same IEEE operations in the
// same order, so the deviates are the same bits on every backend, and on
// every host with IEEE doubles and correctly rounded fma, division and
// square root.
//
// The algorithm and its constants are glibc 2.36's __ieee754_log_fma
// (sysdeps/ieee754/dbl-64/e_log.c and e_log_data.c, built with FMA), the
// function std::log resolves to on x86-64 hosts with FMA; glibc took it from
// Arm's optimized-routines (math/log.c and math/log_data.c, Copyright (c)
// 2018 Arm Limited, MIT license). Its operations are written out here in the
// order that build evaluates them, its fused multiply-adds included, so the
// result equals that std::log bit for bit (EXPERIMENTS.md, "One log for
// every normal deviate"). Outside the explicit fused_mul_add calls no
// product feeds a sum, so the forms round the same whether or not the unit
// contracts.
//
// Precondition: x is a positive normal double. There is no path for zero,
// negative, subnormal, infinite or NaN inputs: the polar method's s is
// always a normal double in [2^-104, 1), because u and v lie on a 2^-52
// grid and 0 < s < 1.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "base/chains.h"

namespace msts::base {

/// Constants of the log: ln 2 split in two, the polynomial of the table
/// path (A, after the leading 1) and of the near-1 path (B), and the
/// 128-entry table of 1/c and log(c) for the centres c of the subintervals
/// of [0.6875, 1.375).
struct LogData {
  double ln2hi, ln2lo;
  double a[5];
  double b[11];
  struct {
    double invc, logc;
  } tab[128];
};

inline constexpr LogData kLogData = {
    0x1.62e42fefa38p-1,
    0x1.ef35793c7673p-45,
    {-0x1.0000000000001p-1, 0x1.555555551305bp-2, -0x1.fffffffeb459p-3,
     0x1.999b324f10111p-3, -0x1.55575e506c89fp-3},
    {-0x1p-1, 0x1.5555555555577p-2, -0x1.ffffffffffdcbp-3,
     0x1.999999995dd0cp-3, -0x1.55555556745a7p-3, 0x1.24924a344de3p-3,
     -0x1.fffffa4423d65p-4, 0x1.c7184282ad6cap-4, -0x1.999eb43b068ffp-4,
     0x1.78182f7afd085p-4, -0x1.5521375d145cdp-4},
    {
        {0x1.734f0c3e0de9fp+0, -0x1.7cc7f79e69p-2},
        {0x1.713786a2ce91fp+0, -0x1.76feec20dp-2},
        {0x1.6f26008fab5ap+0, -0x1.713e31351ep-2},
        {0x1.6d1a61f138c7dp+0, -0x1.6b85b382878p-2},
        {0x1.6b1490bc5b4d1p+0, -0x1.65d55908078p-2},
        {0x1.69147332f0cbap+0, -0x1.602d07618p-2},
        {0x1.6719f18224223p+0, -0x1.5a8ca86909p-2},
        {0x1.6524f99a51ed9p+0, -0x1.54f4356035p-2},
        {0x1.63356aa8f24c4p+0, -0x1.4f637c36b4p-2},
        {0x1.614b36b9ddc14p+0, -0x1.49da7fda85p-2},
        {0x1.5f66452c65c4cp+0, -0x1.445923989a8p-2},
        {0x1.5d867b5912c4fp+0, -0x1.3edf439b0b8p-2},
        {0x1.5babccb5b90dep+0, -0x1.396ce448f7p-2},
        {0x1.59d61f2d91a78p+0, -0x1.3401e17bdap-2},
        {0x1.5805612465687p+0, -0x1.2e9e2ef468p-2},
        {0x1.56397cee76bd3p+0, -0x1.2941b3830ep-2},
        {0x1.54725e2a77f93p+0, -0x1.23ec58cda88p-2},
        {0x1.52aff42064583p+0, -0x1.1e9e129279p-2},
        {0x1.50f22dbb2bddfp+0, -0x1.1956d2b48f8p-2},
        {0x1.4f38f4734ded7p+0, -0x1.141679ab9f8p-2},
        {0x1.4d843cfde284p+0, -0x1.0edd094ef98p-2},
        {0x1.4bd3ec078a3c8p+0, -0x1.09aa518db1p-2},
        {0x1.4a27fc3e0258ap+0, -0x1.047e65263b8p-2},
        {0x1.4880524d48434p+0, -0x1.feb224586fp-3},
        {0x1.46dce1b192d0bp+0, -0x1.f474a7517bp-3},
        {0x1.453d9d3391854p+0, -0x1.ea4443d103p-3},
        {0x1.43a2744b4845ap+0, -0x1.e020d44e9bp-3},
        {0x1.420b54115f8fbp+0, -0x1.d60a22977fp-3},
        {0x1.40782da3ef4b1p+0, -0x1.cc00104959p-3},
        {0x1.3ee8f5d57fe8fp+0, -0x1.c202956891p-3},
        {0x1.3d5d9a00b4ce9p+0, -0x1.b81178d811p-3},
        {0x1.3bd60c010c12bp+0, -0x1.ae2c9ccd3dp-3},
        {0x1.3a5242b75dab8p+0, -0x1.a45402e129p-3},
        {0x1.38d22cd9fd002p+0, -0x1.9a877681dfp-3},
        {0x1.3755bc5847a1cp+0, -0x1.90c6d69483p-3},
        {0x1.35dce49ad36e2p+0, -0x1.87120a645cp-3},
        {0x1.34679984dd44p+0, -0x1.7d68fb4143p-3},
        {0x1.32f5cceffcb24p+0, -0x1.73cb83c627p-3},
        {0x1.3187775a10d49p+0, -0x1.6a39a9b376p-3},
        {0x1.301c8373e399p+0, -0x1.60b3154b7ap-3},
        {0x1.2eb4ebb95f841p+0, -0x1.5737d76243p-3},
        {0x1.2d50a0219a9d1p+0, -0x1.4dc7b8fc23p-3},
        {0x1.2bef9a8b7fd2ap+0, -0x1.4462c51d2p-3},
        {0x1.2a91c7a0c1babp+0, -0x1.3b08abc83p-3},
        {0x1.293726014b53p+0, -0x1.31b996b49p-3},
        {0x1.27dfa5757a1f5p+0, -0x1.2875490a44p-3},
        {0x1.268b39b1d3bbfp+0, -0x1.1f3b9f879ap-3},
        {0x1.2539d838ff5bdp+0, -0x1.160c8252cap-3},
        {0x1.23eb7aac9083bp+0, -0x1.0ce7f57f72p-3},
        {0x1.22a012ba940b6p+0, -0x1.03cdc49feap-3},
        {0x1.2157996cc4132p+0, -0x1.f57bdbc4b8p-4},
        {0x1.201201dd2fc9bp+0, -0x1.e370896404p-4},
        {0x1.1ecf4494d480bp+0, -0x1.d17983ef94p-4},
        {0x1.1d8f5528f6569p+0, -0x1.bf9674ed8ap-4},
        {0x1.1c52311577e7cp+0, -0x1.adc79202f6p-4},
        {0x1.1b17c74cb26e9p+0, -0x1.9c0c3e7288p-4},
        {0x1.19e010c2c1ab6p+0, -0x1.8a646b372cp-4},
        {0x1.18ab07bb670bdp+0, -0x1.78d01b3acp-4},
        {0x1.1778a25efbcb6p+0, -0x1.674f14538p-4},
        {0x1.1648d354c31dap+0, -0x1.55e0e6d878p-4},
        {0x1.151b990275fddp+0, -0x1.4485cdea1ep-4},
        {0x1.13f0ea432d24cp+0, -0x1.333d94d6aap-4},
        {0x1.12c8b7210f9dap+0, -0x1.22079f8c56p-4},
        {0x1.11a3028ecb531p+0, -0x1.10e4698622p-4},
        {0x1.107fbda8434afp+0, -0x1.ffa6c6ad2p-5},
        {0x1.0f5ee0f4e6bb3p+0, -0x1.dda8d4a774p-5},
        {0x1.0e4065d2a9fcep+0, -0x1.bbcece485p-5},
        {0x1.0d244632ca521p+0, -0x1.9a1894012cp-5},
        {0x1.0c0a77ce2981ap+0, -0x1.788583302cp-5},
        {0x1.0af2f83c636d1p+0, -0x1.5715e67d68p-5},
        {0x1.09ddb98a01339p+0, -0x1.35c8a49658p-5},
        {0x1.08cabaf52e7dfp+0, -0x1.149e364154p-5},
        {0x1.07b9f2f4e28fbp+0, -0x1.e72c082eb8p-6},
        {0x1.06ab58c358f19p+0, -0x1.a55f152528p-6},
        {0x1.059eea5ecf92cp+0, -0x1.63d62cf818p-6},
        {0x1.04949cdd12c9p+0, -0x1.228fb8caap-6},
        {0x1.038c6c6f0ada9p+0, -0x1.c317b20f9p-7},
        {0x1.02865137932a9p+0, -0x1.419355daap-7},
        {0x1.0182427ea7348p+0, -0x1.81203c2ecp-8},
        {0x1.008040614b195p+0, -0x1.004097924p-9},
        {0x1.fe01ff726fa1ap-1, 0x1.feff3849p-9},
        {0x1.fa11cc261ea74p-1, 0x1.7dc41353dp-7},
        {0x1.f6310b081992ep-1, 0x1.3cea3c4c28p-6},
        {0x1.f25f63ceeadcdp-1, 0x1.b9fc11489p-6},
        {0x1.ee9c8039113e7p-1, 0x1.1b0d8ce11p-5},
        {0x1.eae8078cbb1abp-1, 0x1.58a5bd001cp-5},
        {0x1.e741aa29d0c9bp-1, 0x1.95c8340d88p-5},
        {0x1.e3a91830a99b5p-1, 0x1.d276aef578p-5},
        {0x1.e01e009609a56p-1, 0x1.07598e598cp-4},
        {0x1.dca01e577bb98p-1, 0x1.253f5e30d2p-4},
        {0x1.d92f20b7c9103p-1, 0x1.42edd8b38p-4},
        {0x1.d5cac66fb5ccep-1, 0x1.606598757cp-4},
        {0x1.d272caa5ede9dp-1, 0x1.7da76356ap-4},
        {0x1.cf26e3e6b2ccdp-1, 0x1.9ab434e1c6p-4},
        {0x1.cbe6da2a77902p-1, 0x1.b78c7bb0d6p-4},
        {0x1.c8b266d37086dp-1, 0x1.d431332e72p-4},
        {0x1.c5894bd5d5804p-1, 0x1.f0a3171de6p-4},
        {0x1.c26b533bb9f8cp-1, 0x1.067152b914p-3},
        {0x1.bf583eeece73fp-1, 0x1.147858292bp-3},
        {0x1.bc4fd75db96c1p-1, 0x1.2266ecdca3p-3},
        {0x1.b951e0c864a28p-1, 0x1.303d7a6c55p-3},
        {0x1.b65e2c5ef3e2cp-1, 0x1.3dfc33c331p-3},
        {0x1.b374867c9888bp-1, 0x1.4ba366b7a8p-3},
        {0x1.b094b211d304ap-1, 0x1.5933928d1fp-3},
        {0x1.adbe885f2ef7ep-1, 0x1.66acd2418fp-3},
        {0x1.aaf1d31603da2p-1, 0x1.740f8ec669p-3},
        {0x1.a82e63fd358a7p-1, 0x1.815c0f51afp-3},
        {0x1.a5740ef09738bp-1, 0x1.8e92954f68p-3},
        {0x1.a2c2a90ab4b27p-1, 0x1.9bb3602f84p-3},
        {0x1.a01a01393f2d1p-1, 0x1.a8bed1c2cp-3},
        {0x1.9d79f24db3c1bp-1, 0x1.b5b515c01dp-3},
        {0x1.9ae2505c7b19p-1, 0x1.c2967ccbccp-3},
        {0x1.9852ef297ce2fp-1, 0x1.cf635d5486p-3},
        {0x1.95cbaeea44b75p-1, 0x1.dc1bd3446cp-3},
        {0x1.934c69de74838p-1, 0x1.e8c01b8cfep-3},
        {0x1.90d4f2f6752e6p-1, 0x1.f5509c0179p-3},
        {0x1.8e6528effd79dp-1, 0x1.00e6c121fb8p-2},
        {0x1.8bfce9fcc007cp-1, 0x1.071b80e93dp-2},
        {0x1.899c0dabec30ep-1, 0x1.0d46b9e867p-2},
        {0x1.87427aa2317fbp-1, 0x1.13687334bdp-2},
        {0x1.84f00acb39a08p-1, 0x1.1980d672348p-2},
        {0x1.82a49e8653e55p-1, 0x1.1f8ffe0cc8p-2},
        {0x1.8060195f4026p-1, 0x1.2595fd76368p-2},
        {0x1.7e22563e0a329p-1, 0x1.2b9300914a8p-2},
        {0x1.7beb377dcb5adp-1, 0x1.3187210436p-2},
        {0x1.79baa679725c2p-1, 0x1.377266dec18p-2},
        {0x1.77907f2170657p-1, 0x1.3d54ffbaf3p-2},
        {0x1.756cadbd6130cp-1, 0x1.432eee32fep-2},
    },
};

/// Bit patterns bounding the near-1 window [1 - 2^-4, 1 + 0x1.09p-4), which
/// the log evaluates by its own polynomial instead of the table.
inline constexpr std::uint64_t kLogNearOneLo = 0x3FEE000000000000ull;
inline constexpr std::uint64_t kLogNearOneHi = 0x3FF1090000000000ull;

/// log(x) in the near-1 window: r = x - 1, log1p(r) with r split into a
/// 26-bit head and its tail so that r - r^2 / 2 is nearly exact.
template <class V>
inline V log_near_one(V x) {
  const auto b = [](int j) { return V{} + kLogData.b[j]; };
  const V r = x - 1.0;
  const V r2 = r * r;
  const V r3 = r * r2;
  // The polynomial's three groups of three terms, innermost first.
  const V p7 = fused_mul_add(r3, b(10), fused_mul_add(r2, b(9), fused_mul_add(r, b(8), b(7))));
  const V p4 = fused_mul_add(p7, r3, fused_mul_add(r2, b(6), fused_mul_add(r, b(5), b(4))));
  const V p1 = fused_mul_add(p4, r3, fused_mul_add(r2, b(3), fused_mul_add(r, b(2), b(1))));
  const V rhi = fused_mul_add(V{} - 0x1.0p27, r, fused_mul_add(r, V{} + 0x1.0p27, r));
  const V rlo = r - rhi;
  const V h2 = rhi * rhi;
  const V hi = fused_mul_add(h2, b(0), r);
  const V lo = fused_mul_add(b(0) * rlo, r + rhi, fused_mul_add(h2, b(0), r - hi));
  return hi + fused_mul_add(p1, r3, lo);
}

/// log(x) off the near-1 window: x = 2^k z with z in [0.6875, 1.375), and
/// log(x) = k ln 2 + log(c) + log1p(z / c - 1) for the table's c nearest z.
/// kd is k as a double; invc and logc are the table entry's fields.
template <class V>
inline V log_table(V z, V kd, V invc, V logc) {
  const auto a = [](int j) { return V{} + kLogData.a[j]; };
  const V w = fused_mul_add(kd, V{} + kLogData.ln2hi, logc);
  const V r = fused_mul_add(z, invc, V{} - 1.0);
  const V hi = r + w;
  const V lo = fused_mul_add(kd, V{} + kLogData.ln2lo, (w - hi) + r);
  const V r2 = r * r;
  const V r3 = r * r2;
  const V p = fused_mul_add(fused_mul_add(r, a(4), a(3)), r2, fused_mul_add(r, a(2), a(1)));
  return fused_mul_add(r3, p, fused_mul_add(r2, a(0), lo)) + hi;
}

/// log(x) per element, for positive normal x (see the precondition above).
/// A vector computes both paths in every lane and keeps the near-1 one
/// where x lies in the window.
template <class V>
inline V polar_log(V x) {
  if constexpr (sizeof(V) == sizeof(double)) {
    const auto ix = std::bit_cast<std::uint64_t>(x);
    if (ix - kLogNearOneLo < kLogNearOneHi - kLogNearOneLo) return log_near_one(x);
    const std::uint64_t tmp = ix - 0x3FE6000000000000ull;
    const std::size_t i = (tmp >> 45) & 127;
    const std::int64_t k = static_cast<std::int64_t>(tmp) >> 52;
    const double z = std::bit_cast<double>(ix - (tmp & 0xFFF0000000000000ull));
    return log_table(z, static_cast<double>(k), kLogData.tab[i].invc, kLogData.tab[i].logc);
  } else {
    typedef std::uint64_t U __attribute__((vector_size(sizeof(V))));
    typedef std::int64_t I __attribute__((vector_size(sizeof(V))));
    constexpr std::size_t W = sizeof(V) / sizeof(double);
    const U ix = std::bit_cast<U>(x);
    const U tmp = ix - 0x3FE6000000000000ull;
    const I i = (I)((tmp >> 45) & 127u);
    const I k = (I)tmp >> 52;
    const V z = std::bit_cast<V>(ix - (tmp & 0xFFF0000000000000ull));
#if defined(__AVX512DQ__) || defined(__aarch64__)
    const V kd = __builtin_convertvector(k, V);
#else
    // |k| < 2^11: as the low bits of 2^52 + 2^51 it converts exactly.
    const V kd = std::bit_cast<V>(k + std::int64_t{0x4338000000000000}) - 0x1.8p52;
#endif
    V invc, logc;
    const double* invc0 = &kLogData.tab[0].invc;
    const double* logc0 = &kLogData.tab[0].logc;
#if defined(__AVX512F__)
    if constexpr (W == 8) {
      // Entries are two doubles apart.
      const __m512i at = (__m512i)(i + i);
      invc = (V)_mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, at, invc0, 8);
      logc = (V)_mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, at, logc0, 8);
    } else
#endif
#if defined(__AVX2__)
    if constexpr (W == 4) {
      const __m256i at = (__m256i)(i + i);
      invc = (V)_mm256_i64gather_pd(invc0, at, 8);
      logc = (V)_mm256_i64gather_pd(logc0, at, 8);
    } else
#endif
    {
      std::int64_t at[W];
      std::memcpy(at, &i, sizeof(at));
      for (std::size_t l = 0; l < W; ++l) {
        invc[l] = invc0[2 * at[l]];
        logc[l] = logc0[2 * at[l]];
      }
    }
    const I near = (ix - kLogNearOneLo) < (kLogNearOneHi - kLogNearOneLo);
    return near != 0 ? log_near_one(x) : log_table(z, kd, invc, logc);
  }
}

/// The polar method's scale sqrt(-2 log(s) / s) of an accepted s, per
/// element.
template <class V>
inline V polar_factor(V s) {
  const V q = -2.0 * polar_log(s) / s;
  if constexpr (sizeof(V) == sizeof(double)) {
#if defined(__SSE2__)
    // sqrtsd without the errno branch std::sqrt keeps for negative input,
    // whose libm call would give a one-pair kernel call a stack frame.
    return _mm_cvtsd_f64(_mm_sqrt_pd(_mm_set_sd(q)));
#else
    return std::sqrt(q);
#endif
  } else {
#if defined(__AVX512F__)
    if constexpr (sizeof(V) == 64) return (V)_mm512_maskz_sqrt_pd(0xFF, (__m512d)q);
#endif
#if defined(__AVX__)
    if constexpr (sizeof(V) == 32) return (V)_mm256_sqrt_pd((__m256d)q);
#endif
#if defined(__aarch64__)
    if constexpr (sizeof(V) == 16) return (V)vsqrtq_f64((float64x2_t)q);
#endif
    V m = q;
    for (std::size_t l = 0; l < sizeof(V) / sizeof(double); ++l) m[l] = std::sqrt(q[l]);
    return m;
  }
}

}  // namespace msts::base
