// hash.hpp — splitmix64, the one key hash every tier shares: bucket index
// (low bits), shard routing (top bits), arttree key sparsification, seeds.
#pragma once

#include <cstdint>

namespace flock_ds {

inline uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace flock_ds
