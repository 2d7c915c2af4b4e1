// Portable SIMD kernel layer.
//
// A small fixed-function kernel table compiled once per instruction set
// (pure scalar always; AVX2, AVX-512 on x86-64; NEON on aarch64) and selected
// at runtime: CPUID picks the widest backend the machine supports, and the
// MSTS_SIMD environment variable (or simd::force_isa in tests) overrides the
// choice. The kernels sit *underneath* the existing DSP / digital APIs —
// callers (dsp/fft_plan.cpp, dsp/window.cpp, dsp/oscillator.cpp,
// analog/lpf.cpp, analog/adc.cpp, digital/sim.cpp, digital/fir.cpp,
// stats/rng.{h,cpp}, path/lanes.cpp) fetch the table once per call and stream
// through function pointers, so the public interfaces and their contracts
// are unchanged.
//
// Correctness contract (enforced by the differential suite, see
// check/kernel_checks.h and DESIGN.md "SIMD layer"):
//  * logic kernels (fault_eval) and pure element-wise multiplies
//    (apply_window) are bit-identical across every backend;
//  * the integer FIR (fir_block) and the ADC conversion (adc_convert) are
//    exact, so bit-identical across every backend too;
//  * the polar scale (scale_pairs, polar_factor) evaluates one definition
//    of the log, base/polar_log.h, with explicit fused multiply-adds and
//    correctly rounded division and sqrt, so it is bit-identical across
//    every backend (the simd_polar_scale_vs_scalar pair) and equals
//    glibc's std::log-based scale;
//  * floating-point reassociating kernels (fft_pass, rfft_combine) carry
//    documented drift tolerances vs the forced scalar backend, and so does
//    the LPF cascade (lpf_record, lpf_lanes), whose vector backends fuse
//    the feed-forward half (the simd_biquad_vs_scalar pair);
//  * add_cosine keeps the kResyncPeriod double-double carrier contract at
//    every lane width, so the 1e-12 / 1M-sample oscillator drift bound holds
//    on all backends;
//  * the lane kernels (lo_lanes, lpf_lanes, amp_lanes, mixer_lanes,
//    draw_pairs) are bit-identical, lane by lane, to the one-device code on
//    the same backend (the path_lanes_vs_one_device pair); lpf_lanes and
//    lpf_record are one loop, instantiated for kLanes records and for one.
//
// The scalar backend reproduces the pre-SIMD arithmetic bit for bit, so
// MSTS_SIMD=scalar is both the portability fallback and the golden reference.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "base/chains.h"

namespace msts::simd {

/// Steps between double-double carrier resyncs of the recurrence-oscillator
/// lanes (the add_cosine kernel). dsp::kResyncPeriod aliases this so every
/// backend and the public oscillator API share one drift contract.
inline constexpr std::size_t kCosineResyncPeriod = base::kPhasorResyncPeriod;

/// Devices a lane kernel runs side by side. Lane records are interleaved
/// sample by sample: x[i * kLanes + l] is sample i of lane l.
inline constexpr std::size_t kLanes = 4;

/// State of kLanes jittered LOs for Kernels::lo_lanes. Lane l runs only
/// when bit l of `active` is set; the kernel leaves other lanes' samples
/// as it found them.
struct LoLanes {
  base::PhasorState osc[kLanes];  ///< All lanes share since_sync.
  double phase_noise[kLanes] = {};  ///< Walk step sigma (radians).
  double amplitude[kLanes] = {};
  unsigned active = 0;
};

/// Per-lane constants of Kernels::amp_lanes (analog::Amplifier::Coeffs).
/// Lanes whose bit in `active` is clear keep their output samples.
struct AmpLanes {
  double a1[kLanes] = {}, c2[kLanes] = {}, c3[kLanes] = {}, vsat[kLanes] = {};
  double noise_sigma[kLanes] = {}, dc_offset_v[kLanes] = {};
  unsigned active = 0;
};

/// Per-lane constants of Kernels::mixer_lanes (analog::Mixer::Coeffs), with
/// the same `active` rule.
struct MixerLanes {
  double a1[kLanes] = {}, c3[kLanes] = {}, vsat[kLanes] = {}, leak[kLanes] = {};
  double noise_sigma[kLanes] = {};
  unsigned active = 0;
};

/// One converter's transfer for Kernels::adc_convert (analog::Adc).
struct AdcTransfer {
  double offset_v = 0.0;   ///< Added to the input first.
  double gain = 1.0;       ///< 1 + gain error, applied after the offset.
  double vref = 1.0;
  double lsb = 1.0;
  double code_min = 0.0, code_max = 0.0;  ///< The rails, as doubles.
  const double* inl = nullptr;            ///< Per-code INL (LSB).
  std::size_t inl_codes = 0;              ///< Entries of inl (2^bits).
};

/// One second-order IIR section, normalised a0 = 1. The default passes
/// its input through.
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// A biquad cascade and its linear pass-band gain, as
/// analog::design_butterworth designs it: what Kernels::lpf_record runs on
/// one record and Kernels::lpf_lanes on each lane.
struct LpfCascade {
  static constexpr std::size_t kMaxSections = 8;
  Biquad sections[kMaxSections];
  std::size_t count = 0;
  double gain = 1.0;
};

/// Backends the dispatcher can select. kScalar is always compiled; the
/// others exist when the build enabled them (MSTS_SIMD CMake option) AND the
/// running CPU supports them.
enum class Isa : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};

/// Lower-case stable name ("scalar", "avx2", "avx512", "neon") — the value
/// recorded in BENCH_*.json (`labels.simd.isa`) and used to key per-ISA bench
/// baselines (bench/baselines/BENCH_<bench>.<isa>.json).
const char* isa_name(Isa isa);

/// Parses an MSTS_SIMD-style name ("scalar", "avx2", "avx512", "neon",
/// "auto" / "native" / "" = widest available). Unknown names throw
/// std::invalid_argument (the strict-env contract of obs::env_flag).
Isa parse_isa(const char* value);

/// The per-ISA kernel table. All pointers are always non-null.
struct Kernels {
  Isa isa;
  /// Doubles per SIMD vector (1 scalar, 4 AVX2, 8 AVX-512, 2 NEON).
  int f64_width;
  /// 64-bit machine words per fault-simulation vector (64 * fault_words
  /// machines per gate evaluation): 1 scalar, 4 AVX2 (256-way), 8 AVX-512
  /// (512-way), 2 NEON (128-way).
  int fault_words;

  /// out[i] = x[i] * w[i]. Element-wise product only: bit-identical to the
  /// scalar loop on every backend.
  void (*apply_window)(const double* x, const double* w, double* out,
                       std::size_t n);

  /// One radix-2 DIT stage of length `len` (>= 4) over the full record of
  /// `n` interleaved complex doubles, twiddles `tw` interleaved re,im for
  /// k = 0..len/2-1. Matches fft_plan.cpp's butterfly formulation.
  void (*fft_pass)(double* d, const double* tw, std::size_t n, std::size_t len);

  /// Real-split recombination for bins k = 1..m-1: out[k] = even + tw[k]*odd
  /// with even/odd derived from z[k] and conj(z[m-k]); z, tw and out are
  /// interleaved complex doubles of m, m+1 and m+1 complex entries.
  void (*rfft_combine)(const double* z, const double* tw, double* out,
                       std::size_t m);

  /// dst[i] += amp * cos(omega * i + phase), independent resynced phasors
  /// (4 on the scalar backend, else 2 * f64_width; see dsp/oscillator.h for
  /// the drift contract).
  void (*add_cosine)(double* dst, std::size_t n, double omega, double phase,
                     double amp);

  /// The biquad cascade f and its pass-band gain over one record of n
  /// samples from zero state (in may equal out): analog::LowPassFilter's
  /// filtering, the clock spur aside. Every section runs per sample in one
  /// sweep, as base::biquad_direct on the scalar backend and as the fused
  /// feed-forward (base::biquad_ff_*) then base::biquad_recur on the vector
  /// backends.
  void (*lpf_record)(const LpfCascade& f, const double* in, double* out,
                     std::size_t n);

  /// Integer FIR over a block: y[i] = sum_k coeffs[k] * x[i - k] for
  /// i < n, with x[1 - taps .. n) readable and every input within int32
  /// (digital::fir_block_into takes at most 24-bit inputs). Exact int64
  /// arithmetic, so bit-identical on every backend.
  void (*fir_block)(const std::int32_t* coeffs, std::size_t taps,
                    const std::int64_t* x, std::int64_t* y, std::size_t n);

  /// ADC conversion of x[j * step] for j < count into out[j], exactly as
  /// analog::Adc's transfer: scale (x + offset) * gain, add the INL of the
  /// position v / vref, clamp to the rails and round half away from zero.
  /// Stops at the first sample whose scaled value is not finite and returns
  /// its index (count when every sample converted). Exact, so bit-identical
  /// on every backend.
  std::size_t (*adc_convert)(const AdcTransfer& adc, const double* x, std::size_t step,
                             std::size_t count, std::int64_t* out);

  /// Whole-netlist word-parallel gate sweep for digital::ParallelSimulator:
  /// per op, values[out..out+words) = eval(type, a, b) masked by
  /// (v & and_masks) | or_masks. Offsets in SimOp are pre-multiplied by
  /// `words`, which must equal this backend's fault_words (the scalar
  /// backend accepts any width and is the arbitrary-width fallback).
  void (*fault_eval)(const struct SimOp* ops, std::size_t nops,
                     std::uint64_t* values, const std::uint64_t* and_masks,
                     const std::uint64_t* or_masks, std::size_t words);

  /// Jittered LO chain of kLanes oscillators over n interleaved samples, in
  /// place: each active lane's walk deviates go in, its carrier samples
  /// amplitude * Re(phasor) come out, exactly as dsp::PhasorOscillator's
  /// jitter_cos_next produces them for that lane. Resumable: `lo` carries
  /// the state from one block to the next.
  void (*lo_lanes)(LoLanes& lo, double* x, std::size_t n);

  /// Amplifier stage of kLanes devices over n samples: each active lane's
  /// out[i * kLanes + l] is base::amp_apply of its input sample, its
  /// deviate noise[i * kLanes + l] and its constants. The input is the
  /// shared stimulus in[i] when `shared`, else the interleaved record in
  /// (which may be out).
  void (*amp_lanes)(const AmpLanes& amp, const double* in, bool shared,
                    const double* noise, double* out, std::size_t n);

  /// Mixer stage of kLanes devices, as amp_lanes, with base::mixer_apply
  /// and each lane's LO samples lo[i * kLanes + l].
  void (*mixer_lanes)(const MixerLanes& mixer, const double* in, bool shared,
                      const double* noise, const double* lo, double* out,
                      std::size_t n);

  /// lpf_record on kLanes interleaved records of n samples, in place: lane
  /// l runs cascade lanes[l] (kLanes of them; every lane runs lanes[0].count
  /// sections, and an unused lane's default ones pass its samples through)
  /// and equals lpf_record on its own record, bit for bit. The two are one
  /// loop (base/simd_lanes_body.h).
  void (*lpf_lanes)(const LpfCascade* lanes, double* x, std::size_t n);

  /// Runs the polar method's draw-and-accept loop on `lanes` (<= kLanes)
  /// xoshiro256++ states side by side until lane l has accepted pairs[l]
  /// candidates, leaving each state where stats::Rng's scalar loop would.
  /// With outputs, lane l's k-th accepted pair lands at uv[l][2k * stride],
  /// uv[l][(2k + 1) * stride] and its s = u^2 + v^2 at s[l][k] (a rejected
  /// candidate is written to the slot the next candidate overwrites); null
  /// outputs skip the stores. No log or sqrt is evaluated: scale_pairs
  /// scales the pairs.
  void (*draw_pairs)(std::uint64_t (*state)[4], const std::size_t* pairs,
                     std::size_t lanes, double* const* uv, double* const* s,
                     std::size_t stride);

  /// Maps `pairs` accepted polar-method pairs to their normal deviates, in
  /// place: pair k's u = uv[2k * stride] and v = uv[(2k + 1) * stride] are
  /// multiplied by base::polar_factor(s[k]) = sqrt(-2 log(s[k]) / s[k]),
  /// W pairs at a time. Every block of deviates stats::Rng produces goes
  /// through here. Exact replica of one log (base/polar_log.h), so
  /// bit-identical on every backend.
  void (*scale_pairs)(const double* s, double* uv, std::size_t pairs, std::size_t stride);

  /// base::polar_factor(s) of one accepted s, by value: the scale of
  /// Rng::normal()'s pair, which through scale_pairs would pass s and its
  /// deviates through memory. Same definition, so the same bits.
  double (*polar_factor)(double s);
};

/// One evaluated gate for Kernels::fault_eval, emitted in topological order
/// by digital::ParallelSimulator. `type` holds a digital::GateType restricted
/// to the 1- and 2-input logic gates (sources are written by the caller).
struct SimOp {
  std::uint32_t out;   ///< values offset of the driven net (net * words).
  std::uint32_t a;     ///< values offset of fanin 0.
  std::uint32_t b;     ///< values offset of fanin 1 (== a for 1-input types).
  std::uint32_t type;  ///< static_cast<uint32_t>(digital::GateType).
};

/// True when the backend was compiled into this binary.
bool isa_compiled(Isa isa);

/// True when the running CPU can execute the backend (kScalar always).
bool isa_supported(Isa isa);

namespace detail {
/// The active table, null until kernels() first resolves it.
extern std::atomic<const Kernels*> active_table;
const Kernels& resolve_kernels();
}  // namespace detail

/// The active kernel table. First call resolves MSTS_SIMD (throws
/// std::invalid_argument on an unknown name or on requesting a backend that
/// is not compiled/supported) and falls back to the widest supported backend
/// when the variable is unset/auto. Afterwards: one inline atomic load, so
/// a per-call user (Rng::normal) pays no extra call.
inline const Kernels& kernels() {
  const Kernels* k = detail::active_table.load(std::memory_order_acquire);
  return k != nullptr ? *k : detail::resolve_kernels();
}

/// Shorthand for kernels().isa.
Isa active_isa();

/// The table of a specific compiled+supported backend (for differential
/// fast-vs-reference pairs). Throws std::invalid_argument otherwise.
const Kernels& kernels_for(Isa isa);

/// Replaces the active table (kScalar is always available). NOT thread-safe
/// against concurrent kernel users — tests and the differential harness only,
/// on quiescent threads. Returns the previously active ISA.
Isa force_isa(Isa isa);

/// RAII force_isa for test scopes.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : prev_(force_isa(isa)) {}
  ~ScopedIsa() { force_isa(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa prev_;
};

}  // namespace msts::simd
