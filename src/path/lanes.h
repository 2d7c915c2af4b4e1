// Lane walk: kLanes sampled devices of one graph structure run through the
// stage list side by side.
//
// A Monte-Carlo study measures many devices under one stimulus. The
// one-device walk (PathGraph::run) spends most of a transient in two serial
// chains — the LO's jittered phasor and the LPF's biquad recurrence — each
// bound by the latency of its own feedback, not by arithmetic. The lane
// walk interleaves kLanes records sample by sample (x[i * kLanes + l]) and
// runs those chains as per-ISA kernels with one vector lane per device
// (simd::Kernels::lo_lanes, lpf_lanes), so kLanes chains advance in the
// time of one. The stimulus is generated once per batch.
//
// Every lane is bit-identical to the one-device run of its device: each
// lane draws from its own stream in exactly the one-device order (a stage's
// deviates for the whole record, stage after stage), each stage evaluates
// the per-sample expression both walks share (analog::Amplifier::apply and
// Mixer::apply, run lane after lane; base/chains.h for the kernels), and
// neither walk's arithmetic is compiled with FP contraction. The
// differential pair path_lanes_vs_one_device (check/kernel_checks.h) holds
// this on every backend.
//
// Memory: the walk keeps one interleaved record (kLanes x the analog record)
// plus one lane's contiguous record; noise is drawn in blocks. A mixer
// stage draws its LO walk and its own noise block by block in step, so the
// mixer's stream cursor starts where the LO's deviates end:
// Rng::skip_normal_lanes finds that position without evaluating a log.
#pragma once

#include <span>
#include <vector>

#include "base/simd.h"
#include "path/path_graph.h"

namespace msts::path {

/// Devices one lane batch runs side by side.
inline constexpr std::size_t kLanes = simd::kLanes;

/// Reusable buffers of lane batches; one per thread, like GraphWorkspace.
struct LaneWorkspace {
  /// Per-lane result of the most recent run_lanes(): adc_codes, filter_out
  /// and digital_fs, as PathGraph::run fills them (analog_stages is left
  /// empty).
  PathGraph::Trace traces[kLanes];
  /// kLanes interleaved records. After a run, lane l holds its device's
  /// last analog stage output (without the clock spur when that stage is
  /// an LPF: the walk adds it at the converted samples only).
  std::vector<double> wave;
  std::vector<double> record;  ///< One lane's contiguous record.
  std::vector<double> block;   ///< kLanes noise blocks, then the LO's lane block.
  std::vector<double> volts;   ///< Scratch for output_volts_into.
};

/// Runs devices[l] on the shared stimulus `rf` with noise from *rngs[l],
/// for every l < devices.size() (1..kLanes). The devices must share one
/// graph structure: the same block kinds in the same order, the same
/// analog rate, ADC decimation and LPF orders. Lane l's codes and FIR
/// output (ws.traces[l]) and *rngs[l]'s end state, cached deviate
/// included, equal devices[l]->run(rf, *rngs[l])'s bit for bit.
void run_lanes(std::span<const PathGraph* const> devices, const analog::Signal& rf,
               std::span<stats::Rng* const> rngs, LaneWorkspace& ws);

}  // namespace msts::path
