// Deterministic randomized-case generators for the differential harness.
//
// Each generator draws a *valid* case from a caller-supplied xoshiro stream —
// never from wall-clock or global state — so a (seed, case index) pair
// replays the exact configuration forever. Ranges are chosen to stay inside
// every MSTS_REQUIRE precondition of the blocks involved while still
// exercising the interesting corners (decimation ratios, FIR lengths, window
// families, guard-banded thresholds on either side of the spec).
//
// Every case type has a describe() overload that serialises it through the
// obs JSON writer; check::differential embeds that dump in the failure
// reproducer.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/tonegen.h"
#include "dsp/window.h"
#include "obs/json.h"
#include "path/path_config.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "stats/yield.h"

namespace msts::check {

/// Random but always-constructible PathConfig: decimation in {4, 8, 16},
/// odd FIR lengths, perturbed block nominals. The analog rate stays at the
/// reference 32 MHz so the LO always clears Nyquist.
path::PathConfig random_path_config(stats::Rng& rng);
void describe(const path::PathConfig& c, obs::json::Writer& w);

/// A sampled record: power-of-two length, a few coherent odd-bin tones plus
/// optional white noise, and an analysis window.
struct RecordCase {
  double fs = 1.0;
  dsp::WindowType window = dsp::WindowType::kHann;
  std::vector<dsp::Tone> tones;
  double noise_sigma = 0.0;
  std::vector<double> samples;
};

/// Draws a record of 2^k samples, k uniform in [min_log2, max_log2].
RecordCase random_record(stats::Rng& rng, std::size_t min_log2 = 6,
                         std::size_t max_log2 = 10);
void describe(const RecordCase& c, obs::json::Writer& w);

/// Population / spec / guard-banded-threshold / error quadruple for the
/// yield-integration checks (the paper's Fig. 5 / Table 2 workflow).
struct SpecTriple {
  stats::Normal param;
  stats::SpecLimits spec;
  stats::SpecLimits threshold;  ///< spec tightened/loosened by guard_delta.
  stats::ErrorModel error;
  double guard_delta = 0.0;     ///< Signed: > 0 tightened, < 0 loosened.
};

/// Options controlling the triple generator.
struct SpecTripleOptions {
  bool always_guard_banded = true;  ///< Force guard_delta != 0.
  bool sharp_errors_only = false;   ///< Only kNone / tiny kUniform errors
                                    ///< (maximally discontinuous acceptance).
};

/// Draws a triple whose populations keep both good and faulty mass
/// non-negligible (yield roughly within [0.2, 0.93]), so conditional
/// yield-loss / coverage-loss estimates are well-determined by Monte Carlo.
SpecTriple random_spec_triple(stats::Rng& rng, const SpecTripleOptions& opts = {});
void describe(const SpecTriple& c, obs::json::Writer& w);

}  // namespace msts::check
