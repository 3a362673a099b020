// Deterministic pseudo-random streams (xoshiro256**).
//
// Every stochastic element of a simulation (loss injection, workload think
// times, random payload patterns) draws from a named Rng stream derived from
// the run seed, so adding a new consumer never perturbs existing streams.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

namespace clicsim::sim {

// SplitMix64: seeds the xoshiro state and hashes stream names.
constexpr std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Start value of the run digests the determinism gates compare. It is the
// FNV-1a offset basis with its last decimal digit dropped, kept so that
// every digest already published stays byte-identical.
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;

// Folds the eight bytes of `v`, least significant first, into the FNV-1a
// digest `h`.
constexpr void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : state_) s = splitmix64(x);
  }

  // Independent stream for (run seed, component name).
  Rng(std::uint64_t seed, std::string_view stream)
      : Rng(seed ^ hash_name(stream)) {}

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }

  bool bernoulli(double p) { return uniform() < p; }

  // Exponential with the given mean (> 0).
  double exponential(double mean) {
    // uniform() < 1 guarantees the log argument is positive.
    return -mean * std::log(1.0 - uniform());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace clicsim::sim
