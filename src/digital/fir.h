// Gate-level FIR filter generation and its integer reference model.
//
// The paper's devices under test are 13- and 16-tap low-pass FIR filters fed
// by the path ADC. build_fir() produces a structural implementation (DFF
// delay line, CSD constant-coefficient multipliers, ripple adder tree);
// FirModel computes the identical arithmetic in int64 and is used both to
// validate the netlist and as the fast good-circuit reference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "digital/builder.h"
#include "digital/netlist.h"

namespace msts::digital {

/// A generated FIR netlist plus its I/O buses and arithmetic metadata.
struct FirCircuit {
  Netlist netlist;
  Bus input;                        ///< Signed input samples, LSB first.
  Bus output;                       ///< Full-precision signed accumulator.
  std::vector<std::int32_t> coeffs; ///< Integer coefficients (LSB-first taps).
  int input_width = 0;
  int coeff_frac_bits = 0;          ///< Coefficients are value * 2^frac_bits.
};

/// Builds y[n] = sum_k coeffs[k] * x[n-k] structurally. Input samples are
/// `input_width`-bit two's complement. The output bus carries the exact
/// full-precision sum (no truncation), so the netlist is verifiable bit-for-
/// bit against FirModel.
FirCircuit build_fir(std::span<const std::int32_t> coeffs, int input_width,
                     int coeff_frac_bits);

/// Exact integer FIR: the behavioural twin of the generated netlist.
///
/// step() keeps its delay line in a circular buffer (a moving write index
/// instead of an O(taps) shift per sample); whole records should go through
/// run()/fir_block_into, which convolve directly against the input span with
/// no delay-line traffic at all. Both produce bit-identical int64 sums.
class FirModel {
 public:
  FirModel(std::span<const std::int32_t> coeffs, int input_width);

  /// Pushes one input sample and returns the new output (the value the
  /// netlist shows after the corresponding eval; see tests for the timing
  /// convention).
  std::int64_t step(std::int64_t x);

  /// Resets the delay line to zeros.
  void reset();

  /// Runs a whole record through a fresh filter state.
  std::vector<std::int64_t> run(std::span<const std::int64_t> x);

 private:
  std::vector<std::int32_t> coeffs_;
  std::vector<std::int64_t> delay_;  ///< Circular: delay_[(pos_ + k) % m] == x[n-1-k].
  std::size_t pos_ = 0;              ///< Slot holding the most recent past sample.
  int input_width_;
};

/// Block FIR: y[n] = sum_k coeffs[k] * x[n-k] with zero initial state,
/// convolved directly against the record (no delay line). `y` is resized to
/// x.size(); capacity is reused so steady-state calls allocate nothing.
/// `input_width` must be 2..24 and every input must fit it (same contract as
/// FirModel), so every input fits int32.
void fir_block_into(std::span<const std::int32_t> coeffs, int input_width,
                    std::span<const std::int64_t> x, std::vector<std::int64_t>& y);

/// Clamps a value into the representable range of a signed `width`-bit bus.
std::int64_t clamp_to_width(std::int64_t v, int width);

}  // namespace msts::digital
