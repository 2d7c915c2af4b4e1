// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the toolkit (noise injection, Monte-Carlo
// parameter sampling, phase noise) flows through this generator so that every
// experiment is exactly reproducible from its seed on any platform. We
// implement xoshiro256++ plus our own uniform/normal converters rather than
// relying on <random> distributions, whose output is implementation-defined.
//
// The raw generator and the uniform/normal converters are defined inline.
// Noisy transient stages draw a whole record of deviates with fill_normal(),
// which returns exactly what per-sample normal() calls would. The lane walk
// (path/lanes.h) draws kLanes streams side by side with fill_normal_lanes()
// straight into its interleaved records, and positions a later stage's
// stream cursor with skip_normal_lanes(); both leave every stream exactly
// where its own normal() calls would.
//
// Every deviate is scaled by a kernel, simd::Kernels::scale_pairs for a
// block of pairs and polar_factor for normal()'s one pair, which evaluates
// the polar method's log with the repository's own replica of glibc's
// (base/polar_log.h) rather than the host's libm. The deviates are
// therefore the same bits on every SIMD backend and on every host with IEEE
// doubles and correctly rounded fma, division and square root.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "base/chains.h"
#include "base/simd.h"

namespace msts::stats {

/// xoshiro256++ PRNG (Blackman & Vigna). Small, fast, 2^256-1 period.
class Rng {
 public:
  /// Seeds the state via splitmix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() { return base::xoshiro_next(s_[0], s_[1], s_[2], s_[3]); }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> [0, 1).
    return base::unit_from_bits<double>(next_u64());
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal deviate (Marsaglia polar method; caches the second
  /// deviate of each pair). Polar rejection costs ~1.27 uniform pairs per
  /// deviate pair but needs only one log/sqrt and no trig, roughly halving
  /// the per-deviate cost of Box-Muller. The pair's scale comes from the
  /// active backend's polar_factor kernel. fill_normal() is its block form.
  double normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u, v, s;
    do {
      s = polar_draw(u, v);
    } while (!polar_accepts(s));
    const double m = simd::kernels().polar_factor(s);
    cached_normal_ = v * m;
    has_cached_normal_ = true;
    return u * m;
  }

  /// Fills `out` with exactly the deviates out.size() back-to-back normal()
  /// calls would return, and leaves the generator, cached deviate included,
  /// in the state those calls would. The polar method runs blockwise: a
  /// branch-free draw-and-accept loop fills up to kFillBlock deviates' worth
  /// of accepted candidate pairs, then the scale kernel maps them to
  /// deviates W pairs at a time, off the generator's serial dependency
  /// chain; the rejections cost no mispredicted branches. An odd deviate
  /// left over after the whole pairs comes from normal(), which caches its
  /// pair partner.
  void fill_normal(std::span<double> out);

  /// Deviates per fill_normal() block.
  static constexpr std::size_t kFillBlock = 512;

  /// fill_normal of n deviates from *rngs[l] for every l, simd::kLanes
  /// generators at a time with their draw-and-accept loops side by side
  /// (Kernels::draw_pairs): deviate j lands at outs[l][j * stride], and
  /// each output and generator end exactly as the generator's own
  /// fill_normal would leave them. With stride kLanes and outs[l] = x + l
  /// the deviates land interleaved, as the lane walk's records are.
  static void fill_normal_lanes(std::span<Rng* const> rngs, std::span<double* const> outs,
                                std::size_t n, std::size_t stride = 1);

  /// Leaves every generator of `rngs`, cached deviate included, where n
  /// back-to-back normal() calls would, without producing the deviates:
  /// whole pairs run only the draw-and-accept loop (side by side, as
  /// above), so no log or sqrt is evaluated unless an odd count leaves a
  /// pair partner to cache. The lane walk starts a later stage's stream
  /// cursor with it before the earlier stage has drawn.
  static void skip_normal_lanes(std::span<Rng* const> rngs, std::size_t n);

  /// Same position in the same sequence, and the same cached deviate (bit
  /// for bit) when one is cached. A consumed cache's stale value is not
  /// part of the state.
  bool operator==(const Rng& other) const {
    return s_[0] == other.s_[0] && s_[1] == other.s_[1] && s_[2] == other.s_[2] &&
           s_[3] == other.s_[3] && has_cached_normal_ == other.has_cached_normal_ &&
           (!has_cached_normal_ || std::bit_cast<std::uint64_t>(cached_normal_) ==
                                       std::bit_cast<std::uint64_t>(other.cached_normal_));
  }

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double sigma) { return mean + sigma * normal(); }

  /// Uniform integer in [0, bound) without modulo bias.
  std::uint64_t uniform_int(std::uint64_t bound);

  /// Advances the state by 2^128 steps (canonical xoshiro256++ jump
  /// polynomial): equivalent to 2^128 calls of next_u64(). Used to carve the
  /// period into non-overlapping sub-sequences. Drops any cached normal.
  void jump();

  /// Advances the state by 2^192 steps (canonical long-jump polynomial).
  /// Each long_jump() starts a new stream with 2^192 draws of headroom —
  /// the basis of the deterministic parallel trial streams (see parallel.h).
  void long_jump();

  /// Derives an independent generator: the child owns the current position
  /// of the sequence and this generator jumps 2^128 steps past it, so parent
  /// and child never overlap (for < 2^128 draws each). Unlike reseeding from
  /// a single 64-bit draw, distinct splits can never collide or correlate.
  Rng split();

 private:
  // The polar method in three steps, shared by normal() and fill_normal()
  // so both evaluate the same expressions. polar_draw() draws one candidate
  // (u, v) uniform on the square [-1, 1)^2 and returns s = u^2 + v^2;
  // polar_accepts(s) keeps it when it lies inside the unit disc and off the
  // origin; an accepted pair maps to the deviates u*m and v*m with
  // m = sqrt(-2 log(s) / s) (base/polar_log.h, through Kernels::polar_factor
  // or Kernels::scale_pairs).
  double polar_draw(double& u, double& v) {
    // Named locals sequence the draws: u's uniform first.
    const double unit_u = uniform();
    const double unit_v = uniform();
    return base::polar_candidate(unit_u, unit_v, u, v);
  }
  static bool polar_accepts(double s) { return s < 1.0 && s != 0.0; }

  void apply_jump_poly(const std::uint64_t (&poly)[4]);

  // The lane forms above: outs == nullptr skips.
  static void normal_lanes(std::span<Rng* const> rngs, double* const* outs, std::size_t n,
                           std::size_t stride);

  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace msts::stats
