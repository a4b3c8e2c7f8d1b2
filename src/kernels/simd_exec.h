#ifndef TQP_KERNELS_HOST_ISA_PROBE_H_
#define TQP_KERNELS_HOST_ISA_PROBE_H_

#include <cstdint>

namespace tqp::kernels::simd {

/// Host vector-ISA probe for benchmark host records. It reports what the
/// CPU offers and selects nothing: fused expression runs always execute
/// through the ExprProgram interpreter (kernels/expr_exec.h), whose typed
/// loops the compiler auto-vectorizes for the build's target flags.

/// \brief Vector ISA levels a host record distinguishes.
enum class SimdLevel : int8_t {
  kScalar = 0,
  kAvx2 = 1,
};

inline const char* SimdLevelName(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

/// \brief The host's vector ISA level (CPUID on x86-64, scalar elsewhere).
inline SimdLevel ActiveLevel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

}  // namespace tqp::kernels::simd

#endif  // TQP_KERNELS_HOST_ISA_PROBE_H_
