// The one FNV-1a 64 in the system. Model checksum footers, ncb hashes, the
// checkpoint WAL and manifest, suffix fingerprints, the learner and VP-set
// signatures and the dictionary content hash all mix through it, so every
// fingerprint shares one construction. Header-only and below every other
// layer, so geo and io use it without depending on core.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace hoiho::util {

// Order-dependent FNV-1a 64 accumulator. Strings mix byte by byte; u64 and
// double values mix their 8 bytes, least significant first.
class Fnv1a {
 public:
  static constexpr std::uint64_t kSeed = 1469598103934665603ULL;  // offset basis
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  explicit Fnv1a(std::uint64_t h = kSeed) : h_(h) {}

  Fnv1a& mix(std::string_view bytes) {
    for (const char c : bytes) step(static_cast<unsigned char>(c));
    return *this;
  }
  Fnv1a& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) step((v >> (8 * i)) & 0xff);
    return *this;
  }
  Fnv1a& mix(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return mix(bits);
  }

  std::uint64_t value() const { return h_; }

 private:
  void step(std::uint64_t byte) {
    h_ ^= byte;
    h_ *= kPrime;
  }

  std::uint64_t h_;
};

}  // namespace hoiho::util
