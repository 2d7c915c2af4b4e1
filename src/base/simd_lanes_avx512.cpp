// AVX-512 backend lane kernels. Built with the AVX-512 flags of
// simd_kernels_avx512.cpp plus -ffp-contract=off.
#define MSTS_SIMD_BACKEND_NS backend_avx512
#define MSTS_SIMD_WIDTH 8
#include "base/simd_lanes_body.h"
