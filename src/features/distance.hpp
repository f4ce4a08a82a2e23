// SIMD descriptor-distance kernels with runtime dispatch.
//
// The paper runs brute-force matching "on GPU as a SIMD matching"; the CPU
// equivalent is a vectorized u8 squared-L2 kernel. This module compiles
// every kernel the target architecture can express (AVX2 on x86, NEON on
// ARM, plus the portable scalar loop), probes the CPU once at startup, and
// routes all distance work through the best supported kernel via a single
// indirect call. Every kernel returns bit-identical sums —
// the arithmetic is exact integer math, so kernel choice can never change
// a Match list (asserted in tests/test_features.cpp).
//
// Build with -DVP_DISABLE_SIMD=ON (CMake) to compile only the scalar
// kernel — the fallback path CI keeps honest.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace vp {

/// Dimensionality every kernel is specialized for (SIFT descriptors).
inline constexpr std::size_t kDistanceDims = 128;

enum class DistanceKernel : std::uint8_t {
  kScalar = 0,
  kAvx2 = 2,
  kNeon = 3,
};

std::string_view kernel_name(DistanceKernel kernel) noexcept;

/// Kernels compiled into this binary, fastest last. Always contains
/// kScalar; tests iterate this to cross-check every variant.
std::span<const DistanceKernel> compiled_distance_kernels() noexcept;

/// The kernel distance2_u8_128 currently dispatches to. Defaults to the
/// fastest compiled-in kernel the running CPU supports, selected once
/// before main() runs.
DistanceKernel active_distance_kernel() noexcept;

/// Force the dispatch target (benches pin the scalar baseline; tests pin
/// each variant). Returns false — and changes nothing — when `kernel` is
/// not compiled in or the CPU lacks the instruction set. The swap is a
/// single relaxed pointer store: safe to call between query batches, not
/// concurrently with them.
bool set_distance_kernel(DistanceKernel kernel) noexcept;

/// Squared L2 distance between two 128-byte u8 vectors via the active
/// kernel. The pointers need no alignment (unaligned loads throughout).
std::uint32_t distance2_u8_128(const std::uint8_t* a,
                               const std::uint8_t* b) noexcept;

/// Evaluate with one specific kernel regardless of the active dispatch —
/// the test harness for kernel-vs-kernel bit-identity. Falls back to the
/// scalar kernel when `kernel` is unavailable.
std::uint32_t distance2_u8_128_with(DistanceKernel kernel,
                                    const std::uint8_t* a,
                                    const std::uint8_t* b) noexcept;

// --- Hamming distance over 256-bit binary descriptors -------------------
//
// The binary-descriptor path (features/brief.hpp) matches under Hamming
// distance; these kernels vectorize the popcount the same way the u8-L2
// kernels vectorize squared distance, behind the same probe-once/atomic
// fn-pointer dispatch. Popcounts are exact integers, so every kernel is
// bit-identical and kernel choice can never change a match.

/// 64-bit words per binary descriptor (4 x u64 = 256 bits).
inline constexpr std::size_t kHammingWords = 4;

enum class HammingKernel : std::uint8_t {
  kScalar = 0,  ///< SWAR popcount, the portable reference
  kPopcnt = 1,  ///< x86 hardware POPCNT over the four words
  kAvx2 = 2,    ///< one 256-bit xor + nibble-LUT popcount (vpshufb+vpsadbw)
  kNeon = 3,    ///< vcnt.u8 + widening pairwise adds
};

std::string_view kernel_name(HammingKernel kernel) noexcept;

/// Kernels compiled into this binary, fastest last; always contains
/// kScalar. Tests iterate this to cross-check every variant.
std::span<const HammingKernel> compiled_hamming_kernels() noexcept;

/// The kernel hamming256 currently dispatches to (fastest supported one,
/// selected once before main()).
HammingKernel active_hamming_kernel() noexcept;

/// Force the dispatch target. Returns false — and changes nothing — when
/// `kernel` is not compiled in or the CPU lacks the instruction set.
bool set_hamming_kernel(HammingKernel kernel) noexcept;

/// Hamming distance between two 256-bit descriptors (kHammingWords u64
/// words each, no alignment requirement) via the active kernel.
std::uint32_t hamming256(const std::uint64_t* a,
                         const std::uint64_t* b) noexcept;

/// Evaluate with one specific kernel regardless of the active dispatch
/// (test harness). Falls back to scalar when `kernel` is unavailable.
std::uint32_t hamming256_with(HammingKernel kernel, const std::uint64_t* a,
                              const std::uint64_t* b) noexcept;

}  // namespace vp
