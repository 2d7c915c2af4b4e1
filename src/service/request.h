// Synthesis-as-a-service: request and result types.
//
// A SynthesisRequest is everything a client supplies to have a test plan
// synthesized for one path: the full PathConfig (nominals + tolerances, the
// "spec set" of the paper's Table 1 flow) plus the synthesis options. The
// served SynthesisResult bundles the PlannedTest vector with the derived
// measurement setup (record options, coherent stimulus frequencies, drive
// level) a tester program needs to execute the plan.
//
// Requests are value types with a *canonical content key*: a byte-exact
// serialization of every field (doubles by bit pattern), so two requests
// with the same key are guaranteed to synthesize bit-identical results —
// the invariant the engine's result cache (service/engine.h) rests on. content_hash
// is a 64-bit FNV-1a digest of that key for cheap bucketing / logging; the
// cache itself keys on the full byte string, so hash collisions can never
// alias two different requests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/synthesizer.h"
#include "path/measurements.h"
#include "path/path_graph.h"

namespace msts::service {

/// Synthesis options (the non-config half of the request).
struct RequestOptions {
  /// The paper's adaptive strategy (measure composites first, substitute).
  bool adaptive = true;
  /// Spec placement in population sigmas (see TestSynthesizer).
  double spec_sigmas = 2.0;
  /// Record settings for the derived measurement setup.
  path::MeasureOptions measure;
  /// Per-request cache opt-out: false synthesizes without consulting or
  /// filling the engine's result cache.
  bool use_cache = true;
};

/// One unit of service work: synthesize the plan for this path.
///
/// A request describes its path either as the flat canonical `config` or as
/// an explicit `graph` (any validated topology). When `graph` is set it
/// takes precedence and `config` is ignored; when absent the path is the
/// graph `config` converts to. The content key always serializes the
/// *effective graph*, so a flat request and its explicit canonical-graph
/// form share one cache entry — and two topologies that differ only in
/// block arrangement can never collide.
struct SynthesisRequest {
  path::PathConfig config;
  std::optional<path::PathGraphConfig> graph;
  RequestOptions options;
};

/// The graph the request describes: `graph` if set, else the canonical
/// graph of `config`.
path::PathGraphConfig effective_graph(const SynthesisRequest& request);

/// The measurement setup a tester needs to execute the plan: coherent
/// stimulus placement and drive level derived from the config (shared by
/// the translator's analyses and the executed measurements).
struct MeasurementSetup {
  path::MeasureOptions record;     ///< Record length + window.
  double analog_fs_hz = 0.0;       ///< Stimulus synthesis rate.
  double digital_fs_hz = 0.0;      ///< Capture rate at the filter output.
  double if_freq_hz = 0.0;         ///< Single-tone IF (bin-centred).
  double two_tone_f1_hz = 0.0;     ///< Intermodulation pair, lower tone.
  double two_tone_f2_hz = 0.0;     ///< Intermodulation pair, upper tone.
  double drive_vpeak = 0.0;        ///< Linear-region stimulus amplitude.
};

/// The served payload. Handed out as shared_ptr<const ...> so any number of
/// clients (and the cache) share one immutable copy.
struct SynthesisResult {
  std::vector<core::PlannedTest> plan;
  MeasurementSetup setup;
};

/// Derives the measurement setup for a path graph (deterministic).
MeasurementSetup make_measurement_setup(const path::PathGraphConfig& graph,
                                        const path::MeasureOptions& opts = {});

/// Executes the request synchronously on the calling thread, exactly as a
/// direct TestSynthesizer::synthesize() would: the reference the service
/// must match bit-for-bit. Deterministic (no RNG is consumed).
SynthesisResult synthesize_direct(const SynthesisRequest& request);

/// Canonical byte serialization of the request (cache key). Two requests
/// compare equal iff their keys are equal. `use_cache` is deliberately
/// excluded: it routes the request, it does not change the result.
std::string content_key(const SynthesisRequest& request);

/// 64-bit FNV-1a digest of content_key (logging / sharding convenience).
std::uint64_t content_hash(const SynthesisRequest& request);

/// Canonical byte serialization of a result: every field of every
/// PlannedTest (strings length-prefixed, doubles by bit pattern, studies
/// included) plus the measurement setup. Two results are bit-identical iff
/// their content strings are equal — the check the determinism tests and
/// the bench's verify phase use.
std::string result_content(const SynthesisResult& result);

/// FNV-1a digest of result_content.
std::uint64_t result_fingerprint(const SynthesisResult& result);

}  // namespace msts::service
