// Composable path graphs: a declarative, ordered block list that a runnable
// path is composed from.
//
// The paper's methodology (attribute propagation, translation, FCL/YL) is
// defined over an arbitrary mixed-signal path; a PathGraphConfig makes the
// path structure itself data: any arrangement of amplifier / mixer(+LO) /
// low-pass-filter blocks in front of exactly one ADC, optionally followed by
// one digital FIR block. It is the one path description every API takes. The
// canonical receiver of Fig. 6 is just one instance: a flat PathConfig
// converts to it implicitly.
//
// The same BlockConfig list drives three layers:
//   * PathGraph       — the transient simulator (this header),
//   * PathAttrModel   — the attribute-domain cascade (core/attr_models.h),
//   * content_key     — the service cache key (service/request.h), which
//                       serializes block order + every per-block field so two
//                       topologies differing only in arrangement never
//                       collide.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "analog/adc.h"
#include "analog/amp.h"
#include "analog/lo.h"
#include "analog/lpf.h"
#include "analog/mixer.h"
#include "analog/signal.h"
#include "path/path_config.h"
#include "stats/rng.h"
#include "stats/uncertain.h"

namespace msts::path {

/// The block families a graph may compose.
enum class BlockKind : std::uint8_t { kAmp, kMixer, kLpf, kAdc, kFir };

std::string to_string(BlockKind kind);

/// One block of a path graph: a kind tag plus its parameter payload. Only the
/// members matching `kind` are meaningful; the factories below set them.
struct BlockConfig {
  BlockKind kind = BlockKind::kAmp;

  analog::AmpParams amp;          ///< kAmp.
  analog::MixerParams mixer;      ///< kMixer.
  analog::LoParams lo;            ///< kMixer (the mixer's LO).
  analog::LpfParams lpf;          ///< kLpf.
  analog::AdcParams adc;          ///< kAdc.
  std::size_t adc_decimation = 1; ///< kAdc.
  std::size_t fir_taps = 13;      ///< kFir.
  double fir_cutoff_norm = 0.3;   ///< kFir.
  int fir_coeff_frac_bits = 10;   ///< kFir.

  static BlockConfig make_amp(const analog::AmpParams& params);
  static BlockConfig make_mixer(const analog::MixerParams& params,
                                const analog::LoParams& lo);
  static BlockConfig make_lpf(const analog::LpfParams& params);
  static BlockConfig make_adc(const analog::AdcParams& params,
                              std::size_t decimation);
  static BlockConfig make_fir(std::size_t taps, double cutoff_norm, int frac_bits);
};

/// Declarative path description: an ordered block list plus the path-level
/// context (analog rate, flatness budget) shared by every topology.
struct PathGraphConfig {
  double analog_fs = 32.0e6;
  std::vector<BlockConfig> blocks;
  stats::Uncertain analog_flatness_db = stats::Uncertain::from_tolerance(0.0, 0.3);

  PathGraphConfig() = default;
  /// The canonical receiver of a flat config: amp -> mixer -> lpf -> adc ->
  /// fir. Implicit, so a PathConfig goes wherever a graph does. It only
  /// arranges blocks; the consumers validate.
  PathGraphConfig(const PathConfig& config);

  /// Index of the first block of `kind` (nullopt when absent).
  std::optional<std::size_t> index_of(BlockKind kind) const;
  /// Index of the first block of `kind`; throws naming the kind when absent.
  std::size_t first_index(BlockKind kind) const;
  const BlockConfig& first(BlockKind kind) const { return blocks[first_index(kind)]; }
  /// Number of blocks of `kind`.
  std::size_t count(BlockKind kind) const;
  /// Decimation of the (single) ADC block; requires a valid graph.
  std::size_t adc_decimation() const;
  double digital_fs() const {
    return analog_fs / static_cast<double>(adc_decimation());
  }
};

/// Construction-time validation shared by every graph consumer (PathGraph,
/// PathAttrModel and everything built on them). Throws via MSTS_REQUIRE on
/// the first violated rule:
///   * analog_fs a positive, finite rate;
///   * at least one block, exactly one ADC, analog blocks only in front of
///     it, at most one FIR and only behind it;
///   * every Uncertain (block tolerances, analog_flatness_db) finite, with
///     wc >= 0 and sigma >= 0;
///   * lo freq_hz in (0, analog_fs/2), lo amplitude finite and > 0;
///   * adc_decimation >= 1;
///   * adc bits inside the digital filter's input-width budget [2, 24];
///   * adc vref finite and > 0;
///   * lpf order a positive even biquad-cascade order;
///   * lpf cutoff_hz +/- wc in (0, analog_fs/2), lpf clock_hz finite and > 0;
///   * fir_taps odd and >= 3 (type-I linear-phase design);
///   * fir_cutoff_norm in (0, 0.5);
///   * fir_coeff_frac_bits in [1, 30] (the int32 coefficient budget).
void validate(const PathGraphConfig& graph);

struct GraphWorkspace;

/// One manufactured path composed from a graph description.
class PathGraph {
 public:
  /// A mixer and the LO that drives it manufacture (and sample) together.
  struct MixerStage {
    analog::Mixer mixer;
    analog::LocalOscillator lo;
  };
  struct AdcStage {
    analog::Adc adc;
    std::size_t decimation = 1;
  };
  struct FirStage {
    std::vector<std::int32_t> coeffs;
    int frac_bits = 10;
    int input_bits = 12;  ///< ADC word width feeding the filter.
  };
  using Stage =
      std::variant<analog::Amplifier, MixerStage, analog::LowPassFilter, AdcStage,
                   FirStage>;

  /// Every block at its nominal parameters.
  explicit PathGraph(const PathGraphConfig& config);

  /// Monte-Carlo instance. Blocks draw in graph order, a mixer before its
  /// LO, and each block draws its fields in declaration order (see the
  /// analog headers), so a seed names the same device on every compiler.
  static PathGraph sampled(const PathGraphConfig& config, stats::Rng& rng);

  /// Everything a transient run produces.
  struct Trace {
    /// Output of each pre-ADC block, in graph order.
    std::vector<analog::Signal> analog_stages;
    std::vector<std::int64_t> adc_codes;
    /// Full-precision FIR output; empty when the graph has no FIR block.
    std::vector<std::int64_t> filter_out;
    double digital_fs = 0.0;
  };

  /// Drives the RF input through every block in order.
  Trace run(const analog::Signal& rf, stats::Rng& noise_rng) const;

  /// Same transient into a reused workspace (bit-identical to the allocating
  /// overload; the returned reference is valid until the next run).
  const Trace& run(const analog::Signal& rf, stats::Rng& noise_rng,
                   GraphWorkspace& ws) const;

  /// Digital output in volts: the FIR output with LSB and coefficient scaling
  /// undone, or the raw ADC codes times the LSB when the graph has no FIR.
  std::vector<double> output_volts(const Trace& trace) const;
  void output_volts_into(const Trace& trace, std::vector<double>& out) const;

  const PathGraphConfig& config() const { return config_; }
  std::size_t size() const { return stages_.size(); }
  BlockKind kind_at(std::size_t i) const { return config_.blocks[i].kind; }
  const Stage& stage(std::size_t i) const { return stages_[i]; }

  /// Typed stage accessors; each requires the block at `i` to be of the
  /// matching kind.
  const analog::Amplifier& amp_at(std::size_t i) const;
  const MixerStage& mixer_at(std::size_t i) const;
  const analog::LowPassFilter& lpf_at(std::size_t i) const;
  const AdcStage& adc_at(std::size_t i) const;
  const FirStage& fir_at(std::size_t i) const;

  /// The first block of each kind (the rule the translator and the
  /// measurements use); each throws naming the kind when the graph has none.
  const analog::Amplifier& amp() const;
  const analog::Mixer& mixer() const;
  const analog::LocalOscillator& lo() const;
  const analog::LowPassFilter& lpf() const;
  const analog::Adc& adc() const;
  const FirStage& fir() const;

  /// Exact magnitude response of the FIR block at frequency f (digital
  /// rate); 1.0 when the graph has no FIR block.
  double fir_magnitude_at(double f) const;

 private:
  /// Nominal when `rng` is null, sampled from it otherwise.
  PathGraph(const PathGraphConfig& config, stats::Rng* rng);

  PathGraphConfig config_;
  std::vector<Stage> stages_;
  std::size_t adc_index_ = 0;
};

/// Reusable buffer set for repeated transients. Passing the same workspace
/// to consecutive runs makes them allocation-free at steady state; every
/// buffer is overwritten per run, so results stay bit-identical to the
/// allocating run(). Not thread-safe: use one per thread.
struct GraphWorkspace {
  PathGraph::Trace trace;      ///< Result of the most recent run().
  analog::Signal lo_wave;      ///< LO waveform (internal to a mixer stage).
  std::vector<double> volts;   ///< Scratch for output_volts_into.
};

}  // namespace msts::path
