// NEON backend lane kernels. Built with -ffp-contract=off.
#define MSTS_SIMD_BACKEND_NS backend_neon
#define MSTS_SIMD_WIDTH 2
#include "base/simd_lanes_body.h"
