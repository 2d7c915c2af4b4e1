// Lane walk: kLanes sampled devices of one graph structure run through the
// stage list side by side.
//
// A Monte-Carlo study measures many devices under one stimulus. The
// one-device walk (PathGraph::run) spends most of a transient in two serial
// chains — the LO's jittered phasor and the LPF's biquad recurrence — each
// bound by the latency of its own feedback, not by arithmetic. The lane
// walk interleaves kLanes records sample by sample (x[i * kLanes + l]) and
// runs every per-sample stage as a per-ISA kernel with one vector lane per
// device (simd::Kernels::amp_lanes, lo_lanes, mixer_lanes, lpf_lanes), so
// kLanes chains advance in the time of one. The stimulus is generated once
// per batch. Noise is drawn interleaved too: Rng::fill_normal_lanes writes
// each lane's deviates at stride kLanes, the LO walk's straight into the LO
// block, and the draw kernel runs the lanes' accept loops side by side
// (mask-free while every lane still needs pairs); the scale kernel
// (scale_pairs) then maps each lane's pairs to deviates in place at the
// lane stride, W pairs' log and sqrt at a time. The ADC conversion and the
// FIR run per lane, each through its vector kernel (adc_convert,
// fir_block). What still runs lane by lane in scalar code is the draw
// kernel's per-lane stores, a jitter-free LO's mixer and the clock spur of
// an LPF stage.
//
// Every lane is bit-identical to the one-device run of its device: each
// lane draws from its own stream in exactly the one-device order (a stage's
// deviates for the whole record, stage after stage), each stage evaluates
// the per-sample expression both walks share (base/chains.h: the
// amplifier's and mixer's memoryless forms, the phasor step, the biquad),
// and neither walk's arithmetic is compiled with FP contraction. The
// differential pair path_lanes_vs_one_device (check/kernel_checks.h) holds
// this on every backend.
//
// Memory: the walk keeps one interleaved record (kLanes x the analog record)
// plus one lane's contiguous record; noise is drawn in interleaved blocks.
// A mixer stage draws its LO walk and its own noise block by block in step,
// so the mixer's stream cursor starts where the LO's deviates end:
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
  std::vector<double> block;   ///< The interleaved noise block, then the LO's.
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
