// AVX-512 backend: 8 doubles / 8 u64 words per vector (512-way fault
// simulation). Compiled with -mavx512f -mavx512dq -mavx512vl -mfma (DQ for
// vpmullq in fir_block); only executed after runtime CPUID dispatch confirms
// f+dq+vl support.
#define MSTS_SIMD_BACKEND_NS backend_avx512
#define MSTS_SIMD_BACKEND_ISA Isa::kAvx512
#define MSTS_SIMD_WIDTH 8
#include "base/simd_kernels_body.h"
