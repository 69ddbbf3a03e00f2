#include "src/support/rng.h"

namespace dynbcast {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro256** must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  DYNBCAST_ASSERT(bound > 0);
  // Lemire's nearly-divisionless bounded generation with rejection.
  const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const std::uint64_t x = (*this)();
    const auto m = static_cast<unsigned __int128>(x) *
                   static_cast<unsigned __int128>(bound);
    const auto lo = static_cast<std::uint64_t>(m);
    if (lo >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) noexcept {
  DYNBCAST_ASSERT(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(uniform(span));
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

Rng Rng::split() noexcept { return Rng((*this)()); }

}  // namespace dynbcast
