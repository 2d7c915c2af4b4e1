#include "dsp/oscillator.h"

#include <cmath>
#include <cstddef>

#include "base/dd.h"
#include "base/simd.h"

namespace msts::dsp {

void PhasorOscillator::resync() { base::phasor_resync(s_); }

void add_cosine(double* dst, std::size_t n, double omega, double phase, double amp) {
  // Dispatched per ISA: the scalar backend is the pre-SIMD four-phasor
  // arrangement; vector backends run 2 vectors of lanes. All share the
  // kResyncPeriod double-double carrier (base/simd_kernels_body.h).
  simd::kernels().add_cosine(dst, n, omega, phase, amp);
}

}  // namespace msts::dsp
