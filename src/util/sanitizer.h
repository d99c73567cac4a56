// Compile-time detection of the sanitizers that bring their own
// allocator. GCC defines __SANITIZE_ADDRESS__ / __SANITIZE_THREAD__;
// Clang reports the same through __has_feature.
//
//   GNMR_ASAN               AddressSanitizer build.
//   GNMR_SANITIZER_MALLOC   ASan, TSan or MSan: malloc is the sanitizer's,
//                           so glibc's heap settings (mallopt) and its
//                           page-fault profile do not apply.
#ifndef GNMR_UTIL_SANITIZER_H_
#define GNMR_UTIL_SANITIZER_H_

#if defined(__has_feature)
#define GNMR_HAS_FEATURE(x) __has_feature(x)
#else
#define GNMR_HAS_FEATURE(x) 0
#endif

#if defined(__SANITIZE_ADDRESS__) || GNMR_HAS_FEATURE(address_sanitizer)
#define GNMR_ASAN 1
#else
#define GNMR_ASAN 0
#endif

#if GNMR_ASAN || defined(__SANITIZE_THREAD__) || \
    GNMR_HAS_FEATURE(thread_sanitizer) || GNMR_HAS_FEATURE(memory_sanitizer)
#define GNMR_SANITIZER_MALLOC 1
#else
#define GNMR_SANITIZER_MALLOC 0
#endif

#endif  // GNMR_UTIL_SANITIZER_H_
