// AVX2 backend lane kernels. Built with -mavx2 -mfma -ffp-contract=off.
#define MSTS_SIMD_BACKEND_NS backend_avx2
#define MSTS_SIMD_WIDTH 4
#include "base/simd_lanes_body.h"
