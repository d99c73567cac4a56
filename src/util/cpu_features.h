// Runtime CPU feature probe for the AVX2 range kernels
// (tensor/backend_simd.cc).
//
// Compile-time ISA macros (__AVX2__/__FMA__) only say what the *binary* was
// allowed to use; whether the *host* can execute those instructions is a
// runtime question. The backend registry consults this probe before handing
// the vector kernels to the "sharded" backend, so a binary built with AVX2
// kernels runs the serial kernels instead of dying on SIGILL when it lands
// on an older machine.
#ifndef GNMR_UTIL_CPU_FEATURES_H_
#define GNMR_UTIL_CPU_FEATURES_H_

namespace gnmr {
namespace util {

/// Host ISA capabilities, detected once via cpuid (all false on non-x86).
/// The avx512f probe includes the OS XSAVE check, so "true" means the
/// registers are actually usable, not just advertised.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

/// The host's features; probed on first call and cached for the process.
const CpuFeatures& HostCpuFeatures();

}  // namespace util
}  // namespace gnmr

#endif  // GNMR_UTIL_CPU_FEATURES_H_
