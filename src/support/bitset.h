// DynBitset: a fixed-capacity-at-construction dynamic bitset built on
// 64-bit words.
//
// This is the workhorse of the whole library: heard-of sets, adjacency
// matrix rows, and reachability sets are all DynBitsets. The broadcast
// simulator's per-round cost is O(n^2/64) thanks to word-parallel OR.
//
// Unlike std::vector<bool>, DynBitset exposes word-level bulk operations
// (orWith, andWith, intersects, isSupersetOf, count) and guarantees that
// all bits past size() are zero (the "tail invariant"), so whole-set
// predicates are plain word comparisons.
// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/support/assert.h"

namespace dynbcast {

/// Raw-word kernels shared by DynBitset, BitMatrix, and the simulator's
/// hot loops. They operate on parallel arrays of 64-bit words and assume
/// both operands honor the tail invariant (bits past the logical size are
/// zero), so callers never need per-bit masking.
///
/// These exist as free functions (rather than DynBitset methods only) so
/// the adversary evaluation kernels can fuse several passes — OR + popcount,
/// AND + any — into one traversal without materializing temporaries.
///
/// Spans at or above kDispatchMinWords route through a runtime-dispatched
/// kernel table (see dispatch() below) with AVX2/AVX-512 variants selected
/// once per process via cpuid; shorter spans keep the plain scalar loop,
/// which the compiler already handles well and which avoids an indirect
/// call on the small-n hot path. Every variant computes identical results
/// word for word — dispatch changes throughput, never bits.
namespace bitword {

/// Instruction-set tier of a kernel table. kScalar is always available;
/// the vector tiers are used only when cpuid says the CPU (and OS) can
/// run them. Setting the DYNBCAST_FORCE_SCALAR environment variable (to
/// anything but "0" / empty) before first use pins the process to
/// kScalar — the testing escape hatch for the non-AVX path.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable tier name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* simdLevelName(SimdLevel level) noexcept;

/// A resolved kernel table: one function pointer per bulk operation, all
/// drop-in equivalent to the scalar loops below.
struct Kernels {
  void (*orAssign)(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t nwords) noexcept;
  std::size_t (*orCount)(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t nwords) noexcept;
  std::size_t (*andAssignCount)(std::uint64_t* dst, const std::uint64_t* src,
                                std::size_t nwords) noexcept;
  bool (*intersectAny)(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t nwords) noexcept;
  /// dst = a | b (three-operand OR): the batched simulator's
  /// double-buffered recurrence writes next = prev_row | prev_parent.
  void (*orInto)(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t nwords) noexcept;
  /// dst &= src without the fused count (the batch common-plane pass
  /// defers per-lane popcounts to end of round).
  void (*andAssign)(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t nwords) noexcept;
  /// Masked weight row (see maskedWeightSum below): the damage-tree
  /// kernel, one whole row of sums per call.
  void (*maskedWeightSum)(double* row, std::size_t lanes,
                          const std::uint64_t* select, std::size_t selectWords,
                          const std::uint64_t* masks, std::size_t maskStride,
                          const double* weight) noexcept;
  SimdLevel level;
  const char* name;
};

/// True when the running CPU and OS can execute `level`'s kernels.
/// kScalar is always true; kAvx512 additionally requires avx512f,
/// avx512bw, and avx512vpopcntdq.
[[nodiscard]] bool simdSupported(SimdLevel level) noexcept;

/// The kernel table for `level`, falling back to the scalar table when
/// the level is not supported on this machine (check the returned
/// .level to see what you actually got).
[[nodiscard]] const Kernels& kernelsFor(SimdLevel level) noexcept;

/// Re-resolves the tier from DYNBCAST_FORCE_SCALAR + cpuid on every
/// call. dispatch() snapshots this once; tests that flip the environment
/// variable mid-process use this directly.
[[nodiscard]] SimdLevel resolveSimdLevel() noexcept;

/// The process-wide kernel table, resolved on first use and constant
/// afterwards. All wrappers below route large spans through it.
[[nodiscard]] const Kernels& dispatch() noexcept;

/// Spans shorter than this many words bypass the dispatch table: at
/// n ≤ 1024 bits the indirect call would cost more than the vector
/// width buys, and small-n sweeps dominate the test matrix.
inline constexpr std::size_t kDispatchMinWords = 16;

/// dst |= src, word by word.
inline void orAssign(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t nwords) noexcept {
  if (nwords >= kDispatchMinWords) {
    dispatch().orAssign(dst, src, nwords);
    return;
  }
  for (std::size_t i = 0; i < nwords; ++i) dst[i] |= src[i];
}

/// Fused dst |= src + popcount(dst): one traversal instead of an OR pass
/// followed by a count pass. Returns the number of set bits in dst after
/// the OR.
[[nodiscard]] inline std::size_t orCount(std::uint64_t* dst,
                                         const std::uint64_t* src,
                                         std::size_t nwords) noexcept {
  if (nwords >= kDispatchMinWords) return dispatch().orCount(dst, src, nwords);
  std::size_t c = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    dst[i] |= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

/// True when (a & b) has any set bit; early-exits on the first hit.
[[nodiscard]] inline bool intersectAny(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::size_t nwords) noexcept {
  if (nwords >= kDispatchMinWords) return dispatch().intersectAny(a, b, nwords);
  for (std::size_t i = 0; i < nwords; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

/// Fused dst &= src + popcount of the result: the simulator's
/// incremental-completion pass intersects each updated row into the
/// running ⋂_y Heard(y) with this, so the broadcaster count is known the
/// moment the round ends.
[[nodiscard]] inline std::size_t andAssignCount(std::uint64_t* dst,
                                                const std::uint64_t* src,
                                                std::size_t nwords) noexcept {
  if (nwords >= kDispatchMinWords) {
    return dispatch().andAssignCount(dst, src, nwords);
  }
  std::size_t c = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    dst[i] &= src[i];
    c += static_cast<std::size_t>(std::popcount(dst[i]));
  }
  return c;
}

/// dst = a | b, word by word (dst may alias a or b).
inline void orInto(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t nwords) noexcept {
  if (nwords >= kDispatchMinWords) {
    dispatch().orInto(dst, a, b, nwords);
    return;
  }
  for (std::size_t i = 0; i < nwords; ++i) dst[i] = a[i] | b[i];
}

/// dst &= src, word by word.
inline void andAssign(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t nwords) noexcept {
  if (nwords >= kDispatchMinWords) {
    dispatch().andAssign(dst, src, nwords);
    return;
  }
  for (std::size_t i = 0; i < nwords; ++i) dst[i] &= src[i];
}

/// Lane count granularity of maskedWeightSum: rows are padded to a
/// multiple of one AVX-512 register of doubles, so no tier needs a
/// scalar tail loop.
inline constexpr std::size_t kMaskedSumLanes = 8;

/// For every lane y < lanes (a multiple of kMaskedSumLanes):
///   row[y] = Σ weight[x] over the set bits x of select[0, selectWords),
///            taken in ascending x, of those x whose mask row
///            masks[x·maskStride, …] has bit y clear.
/// Each lane starts at +0.0 and adds its terms one at a time in that
/// order (a masked-off term adds nothing), so every tier rounds exactly
/// like the scalar loop: no reassociation, no FMA. Mask rows need
/// ceil(lanes / 64) words; lanes past the caller's logical size are
/// written but carry no meaning. Always dispatched: one call does a
/// whole row, so the indirect call is noise.
inline void maskedWeightSum(
    double* row, std::size_t lanes, const std::uint64_t* select,
    std::size_t selectWords, const std::uint64_t* masks,
    std::size_t maskStride, const double* weight) noexcept {
  dispatch().maskedWeightSum(row, lanes, select, selectWords, masks,
                             maskStride, weight);
}

/// Invokes fn(index) for every set bit of words[0, nwords), ascending.
template <typename Fn>
void forEachSetBit(const std::uint64_t* words, std::size_t nwords, Fn&& fn) {
  for (std::size_t wi = 0; wi < nwords; ++wi) {
    for (std::uint64_t w = words[wi]; w != 0; w &= w - 1) {
      fn(wi * 64 + static_cast<std::size_t>(std::countr_zero(w)));
    }
  }
}

/// Invokes fn(index) for every bit set in (a & ~b), ascending — the
/// "delta iteration" of candidate evaluation, with no temporary bitset.
template <typename Fn>
void forEachInDifference(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t nwords, Fn&& fn) {
  for (std::size_t wi = 0; wi < nwords; ++wi) {
    std::uint64_t w = a[wi] & ~b[wi];
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(w));
      fn(wi * 64 + bit);
      w &= w - 1;
    }
  }
}

}  // namespace bitword

class DynBitset {
 public:
  /// An empty bitset of size 0.
  DynBitset() = default;

  /// A bitset with `size` bits, all zero.
  explicit DynBitset(std::size_t size)
      : size_(size), words_((size + kBits - 1) / kBits, 0u) {}

  /// Number of bits.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True when size() == 0.
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Value of bit `i`. Precondition: i < size().
  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i / kBits] >> (i % kBits)) & 1u;
  }

  /// Sets bit `i` to 1. Precondition: i < size().
  void set(std::size_t i) noexcept {
    words_[i / kBits] |= (kOne << (i % kBits));
  }

  /// Sets bit `i` to `value`. Precondition: i < size().
  void assign(std::size_t i, bool value) noexcept {
    if (value) {
      set(i);
    } else {
      reset(i);
    }
  }

  /// Clears bit `i`. Precondition: i < size().
  void reset(std::size_t i) noexcept {
    words_[i / kBits] &= ~(kOne << (i % kBits));
  }

  /// Clears all bits.
  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Sets all bits (respecting the tail invariant).
  void setAll() noexcept;

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// True when at least one bit is set.
  [[nodiscard]] bool any() const noexcept;

  /// True when no bit is set.
  [[nodiscard]] bool none() const noexcept { return !any(); }

  /// True when every bit is set.
  [[nodiscard]] bool all() const noexcept;

  /// In-place union. Precondition: other.size() == size().
  void orWith(const DynBitset& other) noexcept;

  /// Fused in-place union + count of the result (single traversal).
  /// Precondition: other.size() == size().
  std::size_t orCountWith(const DynBitset& other) noexcept {
    return bitword::orCount(words_.data(), other.words_.data(),
                            words_.size());
  }

  /// In-place intersection. Precondition: other.size() == size().
  void andWith(const DynBitset& other) noexcept;

  /// In-place difference (this \ other). Precondition: sizes equal.
  void subtract(const DynBitset& other) noexcept;

  /// True when the intersection with `other` is non-empty.
  [[nodiscard]] bool intersects(const DynBitset& other) const noexcept;

  /// True when every bit of `other` is also set here.
  [[nodiscard]] bool isSupersetOf(const DynBitset& other) const noexcept;

  /// Index of the lowest set bit, or size() when none.
  [[nodiscard]] std::size_t findFirst() const noexcept;

  /// Index of the lowest set bit >= from, or size() when none.
  [[nodiscard]] std::size_t findNext(std::size_t from) const noexcept;

  /// Indices of all set bits, ascending.
  [[nodiscard]] std::vector<std::size_t> toIndices() const;

  /// "0101…" rendering, bit 0 first.
  [[nodiscard]] std::string toString() const;

  /// 64-bit mix of the contents, suitable for hash maps.
  [[nodiscard]] std::uint64_t hash() const noexcept;

  friend bool operator==(const DynBitset& a, const DynBitset& b) noexcept {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Lexicographic-by-word order; usable as a map key.
  friend bool operator<(const DynBitset& a, const DynBitset& b) noexcept {
    if (a.size_ != b.size_) return a.size_ < b.size_;
    return a.words_ < b.words_;
  }

  /// Raw word storage (read-only), for word-parallel algorithms.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

  /// Raw word pointers for the bitword kernels. Mutators must preserve
  /// the tail invariant (all bits past size() stay zero); every kernel
  /// above does, because both operands honor it already.
  [[nodiscard]] const std::uint64_t* wordData() const noexcept {
    return words_.data();
  }
  [[nodiscard]] std::uint64_t* wordData() noexcept { return words_.data(); }

  /// Number of storage words (== words().size()).
  [[nodiscard]] std::size_t wordCount() const noexcept {
    return words_.size();
  }

  static constexpr std::size_t kBits = 64;

 private:
  static constexpr std::uint64_t kOne = 1;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

std::ostream& operator<<(std::ostream& os, const DynBitset& bs);

}  // namespace dynbcast
