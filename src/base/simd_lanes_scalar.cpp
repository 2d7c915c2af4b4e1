// Scalar backend lane kernels: the direct-form biquad, as the scalar
// backend's analog::LowPassFilter runs it. Built with -ffp-contract=off.
#define MSTS_SIMD_BACKEND_NS backend_scalar
#define MSTS_SIMD_WIDTH 1
#include "base/simd_lanes_body.h"
