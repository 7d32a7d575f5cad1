// Checks the benchmark's own arithmetic: percentile selection with its
// sample count, per-packet / per-GB normalisation, the payload verifier and
// failure counting.  Exits non-zero on the first failed check; run.py runs
// it before every benchmark run.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest: line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::abs(b); }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentiles() {
  using namespace perfbench;
  std::vector<double> empty;
  EXPECT(percentile(empty, 0.5) == 0.0);
  EXPECT(tail_value(empty) == 0.0);
  auto v = one_to(100);
  EXPECT(percentile(v, 0.5) == 50.0);
  EXPECT(percentile(v, 1.0) == 100.0);
  EXPECT(percentile(v, 0.0) == 1.0);

  // >= 1000 samples: the true p99, which has exactly ten samples beyond it.
  EXPECT(tail_rank(1000) == 990);
  auto big = one_to(2000);
  EXPECT(tail_value(big) == 1980.0);
  EXPECT(near(tail_quantile(2000), 0.99));
  // Fewer: the highest rank with ten samples beyond it.
  EXPECT(tail_rank(40) == 30);
  auto forty = one_to(40);
  EXPECT(tail_value(forty) == 30.0);
  EXPECT(near(tail_quantile(40), 0.75));
  EXPECT(tail_rank(999) == 989);
  // Too few for any tail: the median.
  EXPECT(tail_rank(12) == 6);
  EXPECT(tail_rank(5) == 3);
  EXPECT(tail_rank(1) == 1);

  std::vector<double> iq{100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0};
  EXPECT(interquartile_mean(iq) == 3.5);  // drops -50, 1 and 6, 100
  std::vector<double> three{3.0, 1.0, 2.0};
  EXPECT(interquartile_mean(three) == 2.0);  // too few to trim
  EXPECT(interquartile_mean(empty) == 0.0);
}

void normalisation() {
  using namespace perfbench;
  // Per-packet figures: nothing counted in the denominator reads 0.
  EXPECT(ratio(1500.0, 3.0) == 500.0);
  EXPECT(ratio(1500.0, 0.0) == 0.0);
  EXPECT(near(mbps(125'000'000, 1.0), 1000.0));
  EXPECT(near(mbps(125'000'000, 2.0), 500.0));
  EXPECT(mbps(1, 0.0) == 0.0);
  EXPECT(near(cpu_s_per_gb(0.5, 2'000'000'000), 0.25));
  EXPECT(cpu_s_per_gb(1.0, 0) == 0.0);
  // On a host at half the reference speed (probe kernel 300 us against
  // 150 us), 2 CPU seconds are 1 at the reference speed.
  EXPECT(near(at_reference_speed(2.0, 300.0, 150.0), 1.0));
  EXPECT(near(at_reference_speed(2.0, 150.0, 150.0), 2.0));
  EXPECT(at_reference_speed(2.0, 0.0, 150.0) == 2.0);
  EXPECT(near(pct_change(110.0, 100.0), 10.0));
  EXPECT(near(pct_change(90.0, 100.0), -10.0));
}

void verifier() {
  using perfbench::Pattern;
  const Pattern a{1}, b{1}, c{2};
  // Same seed, same bytes; another seed, other bytes.
  EXPECT(a.matches(12345, b.at(12345, 4096)));
  EXPECT(!a.matches(0, c.at(0, 4096)));
  // A span across the period wraps to the start of the pattern.
  const std::uint64_t wrap = Pattern::kPeriod - 100;
  std::vector<std::uint8_t> span(300);
  for (std::size_t i = 0; i < span.size(); ++i) {
    span[i] = a.at(wrap + i, 1)[0];
  }
  EXPECT(a.matches(wrap, span));
  EXPECT(a.at(Pattern::kPeriod + 7, 1)[0] == a.at(7, 1)[0]);
  // Spans longer than kMaxSpan are checked piecewise.
  std::vector<std::uint8_t> big(Pattern::kMaxSpan * 2 + 17);
  for (std::size_t off = 0; off < big.size(); off += Pattern::kMaxSpan) {
    const auto s = a.at(99 + off, big.size() - off);
    std::copy(s.begin(), s.end(), big.begin() + off);
  }
  EXPECT(a.matches(99, big));
  // One flipped bit anywhere is caught, including the last byte.
  for (std::size_t pos : {std::size_t{0}, big.size() / 2, big.size() - 1}) {
    big[pos] ^= 0x10;
    EXPECT(!a.matches(99, big));
    big[pos] ^= 0x10;
  }
  // The right bytes at the wrong offset do not match.
  EXPECT(!a.matches(100, a.at(99, 4096)));
}

void failure_counting() {
  using perfbench::Failure;
  perfbench::Tally t;
  EXPECT(!t.correct());  // nothing attempted is not a pass
  EXPECT(t.check(true, Failure::kMismatch));
  EXPECT(t.correct());
  EXPECT(!t.check(false, Failure::kShortOp));
  t.fail(Failure::kTimeout);
  EXPECT(t.attempted == 2);
  EXPECT(t.failed() == 2);
  EXPECT(!t.correct());
  perfbench::Tally u;
  u.check(false, Failure::kShortOp);
  u.check(true, Failure::kShortOp);
  t.merge(u);
  EXPECT(t.attempted == 4);
  EXPECT(t.failed() == 3);
  EXPECT(t.by_kind[static_cast<std::size_t>(Failure::kShortOp)] == 2);
}

}  // namespace

int main() {
  percentiles();
  normalisation();
  verifier();
  failure_counting();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}
