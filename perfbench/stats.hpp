// Arithmetic and verification helpers of the loopback benchmark, kept free
// of the library so selftest.cpp can check them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace perfbench {

// --- percentiles -------------------------------------------------------------

// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
// sorted samples.  `v` is sorted in place.  0 for an empty sample.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n), 1.0, n));
  return v[rank - 1];
}

// Rank reported as the "p99": the 99th-percentile rank when at least ten
// samples lie beyond it, else the highest rank that still has ten beyond
// it, never below the median's rank.  A tail figure backed by fewer than
// ten samples is one outlier, not a percentile.
inline std::size_t tail_rank(std::size_t n) {
  if (n == 0) return 0;
  const auto p99 = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n)));
  const auto p50 = static_cast<std::size_t>(
      std::ceil(0.5 * static_cast<double>(n)));
  const std::size_t ten_beyond = n > 10 ? n - 10 : 0;
  return std::max(p50, std::min(p99, ten_beyond));
}

// The quantile tail_rank() selects, for reporting next to the value.
inline double tail_quantile(std::size_t n) {
  return n == 0 ? 0.0
                : static_cast<double>(tail_rank(n)) / static_cast<double>(n);
}

// Value at tail_rank(); `v` is sorted in place.
inline double tail_value(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[tail_rank(v.size()) - 1];
}

// Mean of the middle half of the samples (the lowest and highest quarter,
// rounded down, dropped): close to the mean's efficiency on steady samples,
// and a burst of outside load on the host in a quarter of them moves it
// little.  `v` is sorted in place.  0 for an empty sample.
inline double interquartile_mean(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// --- normalisation -----------------------------------------------------------

// `num / den`, or 0 when nothing was counted in the denominator.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// Megabits per second (10^6 bits) of `bytes` over `seconds`.
inline double mbps(double bytes, double seconds) {
  return ratio(bytes * 8.0 / 1e6, seconds);
}

// CPU seconds per gigabyte (10^9 bytes) delivered.
inline double cpu_s_per_gb(double cpu_s, double bytes) {
  return ratio(cpu_s, bytes / 1e9);
}

// CPU seconds restated at a reference host speed: `cpu_s` scaled by
// ref_us / probe_us, where `probe_us` is what a fixed probe kernel took
// while the CPU was spent and `ref_us` what it takes at the reference
// speed.  Unscaled when there was no probe sample (`probe_us` 0).
inline double at_reference_speed(double cpu_s, double probe_us,
                                 double ref_us) {
  return probe_us > 0.0 ? cpu_s * ref_us / probe_us : cpu_s;
}

// Relative change of `now` against `base`, in percent.
inline double pct_change(double now, double base) {
  return ratio((now - base) * 100.0, base);
}

// --- payload pattern and verifier --------------------------------------------

// A seeded byte stream with a period of kPeriod bytes.  Stream offset `o`
// holds byte (o mod kPeriod); the buffer repeats its first kMaxSpan bytes
// past the period so any span up to kMaxSpan is one contiguous slice, which
// lets both the sender and the verifier work with single memcpy/memcmp
// calls instead of a per-byte generator.  The period is deliberately not a
// multiple of any MSS or block size, so a packet delivered at the wrong
// offset does not line up with identical bytes.
class Pattern {
 public:
  static constexpr std::size_t kPeriod = (std::size_t{8} << 20) + 4099;
  static constexpr std::size_t kMaxSpan = std::size_t{1} << 20;

  explicit Pattern(std::uint64_t seed) : bytes_(kPeriod + kMaxSpan) {
    std::uint64_t s = seed;
    for (std::size_t i = 0; i < kPeriod; i += 8) {
      const std::uint64_t w = splitmix64(s);
      std::memcpy(bytes_.data() + i, &w, std::min<std::size_t>(8, kPeriod - i));
    }
    std::memcpy(bytes_.data() + kPeriod, bytes_.data(), kMaxSpan);
  }

  // Contiguous view of `len` (<= kMaxSpan) pattern bytes from stream offset
  // `offset`.
  [[nodiscard]] std::span<const std::uint8_t> at(std::uint64_t offset,
                                                 std::size_t len) const {
    return {bytes_.data() + offset % kPeriod, std::min(len, kMaxSpan)};
  }

  // True when `data` equals the pattern from stream offset `offset`.
  [[nodiscard]] bool matches(std::uint64_t offset,
                             std::span<const std::uint8_t> data) const {
    while (!data.empty()) {
      const std::size_t n = std::min(data.size(), kMaxSpan);
      if (std::memcmp(data.data(), bytes_.data() + offset % kPeriod, n) != 0) {
        return false;
      }
      offset += n;
      data = data.subspan(n);
    }
    return true;
  }

  static std::uint64_t splitmix64(std::uint64_t& s) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

// --- failure accounting ------------------------------------------------------

enum class Failure {
  kMismatch,   // delivered bytes differ from what was sent
  kShortOp,    // send/sendmsg/sendfile/recvfile moved fewer bytes than asked
  kTimeout,    // a request got no reply in time
  kBroken,     // a connection was declared broken
  kSetup,      // a listen/connect/accept or the source file failed
  kCount,
};

inline const char* failure_name(Failure f) {
  switch (f) {
    case Failure::kMismatch: return "mismatch";
    case Failure::kShortOp: return "short-op";
    case Failure::kTimeout: return "timeout";
    case Failure::kBroken: return "broken";
    case Failure::kSetup: return "setup";
    case Failure::kCount: break;
  }
  return "?";
}

// Operations attempted and failed over a run.  Not thread-safe: each
// benchmark thread keeps its own and the totals are merged at the end.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t by_kind[static_cast<std::size_t>(Failure::kCount)] = {};

  void fail(Failure f) { ++by_kind[static_cast<std::size_t>(f)]; }
  // Counts one attempted operation and returns `ok`, failing it as `f`
  // otherwise.
  bool check(bool ok, Failure f) {
    ++attempted;
    if (!ok) fail(f);
    return ok;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t t = 0;
    for (auto n : by_kind) t += n;
    return t;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    for (std::size_t i = 0; i < std::size(by_kind); ++i) {
      by_kind[i] += o.by_kind[i];
    }
  }
  // The run is correct when it attempted something and nothing failed.
  [[nodiscard]] bool correct() const { return attempted > 0 && failed() == 0; }
};

}  // namespace perfbench
