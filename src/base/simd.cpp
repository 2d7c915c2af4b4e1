#include "base/simd.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>

namespace msts::simd {

// Backend tables, each defined by its own per-ISA translation unit. Only the
// scalar table is unconditionally linked; the others exist when the MSTS_SIMD
// CMake option compiled them (MSTS_SIMD_HAVE_* defines, src/base/CMakeLists).
namespace backend_scalar {
extern const Kernels kKernels;
}
#ifdef MSTS_SIMD_HAVE_AVX2
namespace backend_avx2 {
extern const Kernels kKernels;
}
#endif
#ifdef MSTS_SIMD_HAVE_AVX512
namespace backend_avx512 {
extern const Kernels kKernels;
}
#endif
#ifdef MSTS_SIMD_HAVE_NEON
namespace backend_neon {
extern const Kernels kKernels;
}
#endif

namespace {

const Kernels* table_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &backend_scalar::kKernels;
    case Isa::kAvx2:
#ifdef MSTS_SIMD_HAVE_AVX2
      return &backend_avx2::kKernels;
#else
      return nullptr;
#endif
    case Isa::kAvx512:
#ifdef MSTS_SIMD_HAVE_AVX512
      return &backend_avx512::kKernels;
#else
      return nullptr;
#endif
    case Isa::kNeon:
#ifdef MSTS_SIMD_HAVE_NEON
      return &backend_neon::kKernels;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl");
    case Isa::kNeon:
      return false;
#else
    case Isa::kAvx2:
    case Isa::kAvx512:
      return false;
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
#endif
  }
  return false;
}

Isa widest_available() {
  for (Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (isa_compiled(isa) && cpu_supports(isa)) return isa;
  }
  return Isa::kScalar;
}

std::once_flag g_once;

const Kernels* resolve_initial() {
  const char* env = std::getenv("MSTS_SIMD");
  if (env == nullptr || *env == '\0') return table_for(widest_available());
  const Isa isa = parse_isa(env);  // throws on unknown names
  if (!isa_compiled(isa)) {
    throw std::invalid_argument(std::string("MSTS_SIMD=") + env +
                                ": backend not compiled into this binary");
  }
  if (!cpu_supports(isa)) {
    throw std::invalid_argument(std::string("MSTS_SIMD=") + env +
                                ": backend not supported by this CPU");
  }
  return table_for(isa);
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "scalar";
}

Isa parse_isa(const char* value) {
  const std::string v = value == nullptr ? "" : value;
  if (v.empty() || v == "auto" || v == "native") return widest_available();
  if (v == "scalar") return Isa::kScalar;
  if (v == "avx2") return Isa::kAvx2;
  if (v == "avx512") return Isa::kAvx512;
  if (v == "neon") return Isa::kNeon;
  throw std::invalid_argument(
      "MSTS_SIMD: expected scalar|avx2|avx512|neon|auto, got \"" + v + "\"");
}

bool isa_compiled(Isa isa) { return table_for(isa) != nullptr; }

bool isa_supported(Isa isa) { return cpu_supports(isa); }

// Resolved once (kernels()); force_isa then swaps the pointer.
std::atomic<const Kernels*> detail::active_table{nullptr};

const Kernels& detail::resolve_kernels() {
  std::call_once(g_once, [] {
    detail::active_table.store(resolve_initial(), std::memory_order_release);
  });
  return *detail::active_table.load(std::memory_order_acquire);
}

Isa active_isa() { return kernels().isa; }

const Kernels& kernels_for(Isa isa) {
  const Kernels* k = table_for(isa);
  if (k == nullptr) {
    throw std::invalid_argument(std::string(isa_name(isa)) +
                                ": backend not compiled into this binary");
  }
  if (!cpu_supports(isa)) {
    throw std::invalid_argument(std::string(isa_name(isa)) +
                                ": backend not supported by this CPU");
  }
  return *k;
}

Isa force_isa(Isa isa) {
  const Kernels& next = kernels_for(isa);  // validates compiled + supported
  const Isa prev = kernels().isa;          // also forces initial resolution
  detail::active_table.store(&next, std::memory_order_release);
  return prev;
}

}  // namespace msts::simd
