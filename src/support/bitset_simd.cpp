// Runtime-dispatched SIMD variants of the bitword kernels.
//
// Every kernel exists in three tiers — scalar, AVX2, AVX-512 — compiled
// in this one translation unit via per-function target attributes, so the
// build needs no special flags and `-march=native` stays optional. The
// tier is resolved once per process (cpuid via __builtin_cpu_supports,
// which also checks OS xsave state) and pinned behind bitword::dispatch();
// DYNBCAST_FORCE_SCALAR in the environment forces the scalar tier so the
// non-AVX path stays testable on AVX hardware.
//
// All tiers are exact drop-ins: same results word for word, including
// popcounts. The AVX tiers assume nothing about alignment (loadu/storeu)
// and fall back to scalar words for the remainder of the span.
// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#include "src/support/bitset.h"

#include <algorithm>
#include <bit>
#include <cstdlib>

#if defined(__x86_64__) && defined(__GNUC__)
#define DYNBCAST_SIMD_X86 1
#include <immintrin.h>
#else
#define DYNBCAST_SIMD_X86 0
#endif

namespace dynbcast {
namespace bitword {
namespace {

// --- scalar tier ------------------------------------------------------

void orAssignScalar(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t nwords) noexcept {
  for (std::size_t i = 0; i < nwords; ++i) dst[i] |= src[i];
}

std::size_t orCountScalar(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t nwords) noexcept {
  std::size_t c = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    dst[i] |= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

std::size_t andAssignCountScalar(std::uint64_t* dst, const std::uint64_t* src,
                                 std::size_t nwords) noexcept {
  std::size_t c = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    dst[i] &= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

bool intersectAnyScalar(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t nwords) noexcept {
  for (std::size_t i = 0; i < nwords; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

void orIntoScalar(std::uint64_t* dst, const std::uint64_t* a,
                  const std::uint64_t* b, std::size_t nwords) noexcept {
  for (std::size_t i = 0; i < nwords; ++i) dst[i] = a[i] | b[i];
}

void andAssignScalar(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t nwords) noexcept {
  for (std::size_t i = 0; i < nwords; ++i) dst[i] &= src[i];
}

// One 64-lane block at a time: the lanes of a block share one mask word
// per term, and only the lanes whose bit is clear are touched, each
// with one add in ascending x.
void maskedWeightSumScalar(double* row, std::size_t lanes,
                           const std::uint64_t* select, std::size_t selectWords,
                           const std::uint64_t* masks, std::size_t maskStride,
                           const double* weight) noexcept {
  for (std::size_t base = 0; base < lanes; base += 64) {
    const std::size_t block = std::min<std::size_t>(64, lanes - base);
    const std::uint64_t laneMask =
        block == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << block) - 1;
    double* out = row + base;
    for (std::size_t l = 0; l < block; ++l) out[l] = 0.0;
    const std::uint64_t* maskWord = masks + base / 64;
    forEachSetBit(select, selectWords, [&](std::size_t x) {
      const std::uint64_t clear = ~maskWord[x * maskStride] & laneMask;
      forEachSetBit(&clear, 1, [&](std::size_t l) { out[l] += weight[x]; });
    });
  }
}

constexpr Kernels kScalarKernels{
    &orAssignScalar,     &orCountScalar, &andAssignCountScalar,
    &intersectAnyScalar, &orIntoScalar,  &andAssignScalar,
    &maskedWeightSumScalar, SimdLevel::kScalar, "scalar"};

#if DYNBCAST_SIMD_X86

// --- AVX2 tier --------------------------------------------------------
//
// 256-bit lanes, four words per step. Popcounts stay scalar per word
// (hardware POPCNT): at the span lengths that reach the dispatch table
// the OR/AND traffic dominates, and per-word counts keep the results
// trivially identical to the scalar tier.

__attribute__((target("avx2,popcnt"))) void orAssignAvx2(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(d, s));
  }
  for (; i < nwords; ++i) dst[i] |= src[i];
}

__attribute__((target("avx2,popcnt"))) std::size_t orCountAvx2(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t c = 0;
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i r = _mm256_or_si256(d, s);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 0))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 1))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 2))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 3))));
  }
  for (; i < nwords; ++i) {
    dst[i] |= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

__attribute__((target("avx2,popcnt"))) std::size_t andAssignCountAvx2(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t c = 0;
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i r = _mm256_and_si256(d, s);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 0))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 1))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 2))));
    c += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(r, 3))));
  }
  for (; i < nwords; ++i) {
    dst[i] &= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

__attribute__((target("avx2,popcnt"))) bool intersectAnyAvx2(
    const std::uint64_t* a, const std::uint64_t* b,
    std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(va, vb)) return true;
  }
  for (; i < nwords; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

__attribute__((target("avx2,popcnt"))) void orIntoAvx2(
    std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
    std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(va, vb));
  }
  for (; i < nwords; ++i) dst[i] = a[i] | b[i];
}

__attribute__((target("avx2,popcnt"))) void andAssignAvx2(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(d, s));
  }
  for (; i < nwords; ++i) dst[i] &= src[i];
}

// maskedWeightSum: kAcc ymm accumulators (4 lanes each) stay in
// registers across the whole term loop. Lane 4j+i of the span reads bit
// shift+4j+i of the term's mask word: a variable left shift moves it to
// the sign bit, where blendv picks w or +0.0 (which leaves a sum that
// starts at +0.0 unchanged, see the scalar tier).
template <std::size_t kAcc>
__attribute__((target("avx2,popcnt"))) void maskedSpanAvx2(
    double* out, std::size_t word, unsigned shift,
    const std::uint64_t* select, std::size_t selectWords,
    const std::uint64_t* masks, std::size_t maskStride,
    const double* weight) noexcept {
  __m256d acc[kAcc];
  __m256i toSign[kAcc];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kAcc; ++j) {
    acc[j] = _mm256_setzero_pd();
    const auto at = static_cast<long long>(63 - 4 * j);
    toSign[j] = _mm256_set_epi64x(at - 3, at - 2, at - 1, at);
  }
  const __m256d zero = _mm256_setzero_pd();
  // Plain loops: a lambda would not inherit this target attribute.
  for (std::size_t wi = 0; wi < selectWords; ++wi) {
    for (std::uint64_t s = select[wi]; s != 0; s &= s - 1) {
      const std::size_t x =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(s));
      const std::uint64_t clear = ~masks[x * maskStride + word] >> shift;
      const __m256d w = _mm256_set1_pd(weight[x]);
      const __m256i c = _mm256_set1_epi64x(static_cast<long long>(clear));
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kAcc; ++j) {
        const __m256d on =
            _mm256_castsi256_pd(_mm256_sllv_epi64(c, toSign[j]));
        acc[j] = _mm256_add_pd(acc[j], _mm256_blendv_pd(zero, w, on));
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kAcc; ++j) _mm256_storeu_pd(out + 4 * j, acc[j]);
}

__attribute__((target("avx2,popcnt"))) void maskedWeightSumAvx2(
    double* row, std::size_t lanes, const std::uint64_t* select,
    std::size_t selectWords, const std::uint64_t* masks,
    std::size_t maskStride, const double* weight) noexcept {
  // Spans of 32 lanes (eight accumulators, half the register file); the
  // last span has 8, 16 or 24 lanes when lanes is not a multiple of 32.
  using Span = void (*)(double*, std::size_t, unsigned, const std::uint64_t*,
                        std::size_t, const std::uint64_t*, std::size_t,
                        const double*) noexcept;
  static constexpr Span kSpans[] = {nullptr, &maskedSpanAvx2<2>,
                                    &maskedSpanAvx2<4>, &maskedSpanAvx2<6>,
                                    &maskedSpanAvx2<8>};
  for (std::size_t base = 0; base < lanes; base += 32) {
    kSpans[std::min<std::size_t>(32, lanes - base) / 8](
        row + base, base / 64, static_cast<unsigned>(base % 64), select,
        selectWords, masks, maskStride, weight);
  }
}

constexpr Kernels kAvx2Kernels{
    &orAssignAvx2,     &orCountAvx2, &andAssignCountAvx2,
    &intersectAnyAvx2, &orIntoAvx2,  &andAssignAvx2,
    &maskedWeightSumAvx2, SimdLevel::kAvx2, "avx2"};

// --- AVX-512 tier -----------------------------------------------------
//
// 512-bit lanes, eight words per step, with VPOPCNTDQ doing eight
// popcounts per instruction and a vector accumulator reduced once at the
// end. Requires avx512f+avx512bw+avx512vpopcntdq (Ice Lake onwards).

#define DYNBCAST_AVX512_TARGET \
  target("avx512f,avx512bw,avx512vpopcntdq,popcnt")

// Manual horizontal sum: gcc 12's _mm512_reduce_add_epi64 trips
// -Werror=uninitialized via _mm256_undefined_si256 in its own header.
__attribute__((DYNBCAST_AVX512_TARGET)) std::size_t horizontalSum512(
    __m512i acc) noexcept {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  std::size_t c = 0;
  for (const std::uint64_t w : lanes) c += static_cast<std::size_t>(w);
  return c;
}

__attribute__((DYNBCAST_AVX512_TARGET)) void orAssignAvx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_or_si512(d, s));
  }
  for (; i < nwords; ++i) dst[i] |= src[i];
}

__attribute__((DYNBCAST_AVX512_TARGET)) std::size_t orCountAvx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    const __m512i r = _mm512_or_si512(d, s);
    _mm512_storeu_si512(dst + i, r);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(r));
  }
  std::size_t c = horizontalSum512(acc);
  for (; i < nwords; ++i) {
    dst[i] |= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

__attribute__((DYNBCAST_AVX512_TARGET)) std::size_t andAssignCountAvx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    const __m512i r = _mm512_and_si512(d, s);
    _mm512_storeu_si512(dst + i, r);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(r));
  }
  std::size_t c = horizontalSum512(acc);
  for (; i < nwords; ++i) {
    dst[i] &= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

__attribute__((DYNBCAST_AVX512_TARGET)) bool intersectAnyAvx512(
    const std::uint64_t* a, const std::uint64_t* b,
    std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    if (_mm512_test_epi64_mask(va, vb) != 0) return true;
  }
  for (; i < nwords; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

__attribute__((DYNBCAST_AVX512_TARGET)) void orIntoAvx512(
    std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
    std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    _mm512_storeu_si512(dst + i, _mm512_or_si512(va, vb));
  }
  for (; i < nwords; ++i) dst[i] = a[i] | b[i];
}

__attribute__((DYNBCAST_AVX512_TARGET)) void andAssignAvx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t nwords) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_and_si512(d, s));
  }
  for (; i < nwords; ++i) dst[i] &= src[i];
}

// maskedWeightSum: kAcc zmm accumulators (8 lanes each) stay in
// registers across the whole term loop, and one mask byte per
// accumulator drives a masked add, so a masked-off lane adds nothing.
// Storing to memory per term instead was clearly slower.
template <std::size_t kAcc>
__attribute__((DYNBCAST_AVX512_TARGET)) void maskedBlockAvx512(
    double* out, std::size_t word, const std::uint64_t* select,
    std::size_t selectWords, const std::uint64_t* masks,
    std::size_t maskStride, const double* weight) noexcept {
  __m512d acc[kAcc];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kAcc; ++j) acc[j] = _mm512_setzero_pd();
  for (std::size_t wi = 0; wi < selectWords; ++wi) {
    for (std::uint64_t s = select[wi]; s != 0; s &= s - 1) {
      const std::size_t x =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(s));
      const std::uint64_t clear = ~masks[x * maskStride + word];
      const __m512d w = _mm512_set1_pd(weight[x]);
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kAcc; ++j) {
        acc[j] = _mm512_mask_add_pd(
            acc[j], static_cast<__mmask8>(clear >> (8 * j)), acc[j], w);
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t j = 0; j < kAcc; ++j) _mm512_storeu_pd(out + 8 * j, acc[j]);
}

__attribute__((DYNBCAST_AVX512_TARGET)) void maskedWeightSumAvx512(
    double* row, std::size_t lanes, const std::uint64_t* select,
    std::size_t selectWords, const std::uint64_t* masks,
    std::size_t maskStride, const double* weight) noexcept {
  // Blocks of 64 lanes, one mask word each; the last block has 8·k lanes.
  using Block = void (*)(double*, std::size_t, const std::uint64_t*,
                         std::size_t, const std::uint64_t*, std::size_t,
                         const double*) noexcept;
  static constexpr Block kBlocks[] = {
      nullptr,                &maskedBlockAvx512<1>, &maskedBlockAvx512<2>,
      &maskedBlockAvx512<3>,  &maskedBlockAvx512<4>, &maskedBlockAvx512<5>,
      &maskedBlockAvx512<6>,  &maskedBlockAvx512<7>, &maskedBlockAvx512<8>};
  for (std::size_t base = 0; base < lanes; base += 64) {
    kBlocks[std::min<std::size_t>(64, lanes - base) / 8](
        row + base, base / 64, select, selectWords, masks, maskStride,
        weight);
  }
}

#undef DYNBCAST_AVX512_TARGET

constexpr Kernels kAvx512Kernels{
    &orAssignAvx512,     &orCountAvx512, &andAssignCountAvx512,
    &intersectAnyAvx512, &orIntoAvx512,  &andAssignAvx512,
    &maskedWeightSumAvx512, SimdLevel::kAvx512, "avx512"};

#endif  // DYNBCAST_SIMD_X86

SimdLevel detectCpuLevel() noexcept {
#if DYNBCAST_SIMD_X86
  // __builtin_cpu_supports includes the OSXSAVE/xgetbv check, so a
  // kernel that disabled AVX state saving reports unsupported here.
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return SimdLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

bool forceScalarFromEnv() noexcept {
  const char* v = std::getenv("DYNBCAST_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

const char* simdLevelName(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

bool simdSupported(SimdLevel level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(detectCpuLevel());
}

const Kernels& kernelsFor(SimdLevel level) noexcept {
  if (!simdSupported(level)) return kScalarKernels;
#if DYNBCAST_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx512:
      return kAvx512Kernels;
    case SimdLevel::kAvx2:
      return kAvx2Kernels;
    case SimdLevel::kScalar:
      break;
  }
#endif
  return kScalarKernels;
}

SimdLevel resolveSimdLevel() noexcept {
  if (forceScalarFromEnv()) return SimdLevel::kScalar;
  return detectCpuLevel();
}

const Kernels& dispatch() noexcept {
  // Resolved exactly once; concurrent first calls are safe (magic
  // statics) and the table never changes afterwards, so the hot-path
  // read is a guard check plus a pointer load.
  static const Kernels& table = kernelsFor(resolveSimdLevel());
  return table;
}

}  // namespace bitword
}  // namespace dynbcast
