#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "udt/pacing.hpp"
#include "udt/profiler.hpp"

namespace udtr::udt {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;

// The schedule is driven with synthetic release instants, so these cases
// check the arithmetic of the §4.5 schedule without depending on how
// promptly this host wakes a thread.
TEST(Pacer, SpacesSendsByPeriod) {
  // Rounds released exactly on time space the schedule one period apart.
  Pacer pacer;
  const auto period = microseconds{200};
  const auto t0 = pacer.next_send();
  for (int i = 0; i < 50; ++i) {
    const auto release = pacer.next_send();
    EXPECT_EQ(release, t0 + i * period);
    EXPECT_EQ(pacer.schedule(period, 1, release), Clock::duration::zero());
  }
  EXPECT_EQ(pacer.next_send(), t0 + 50 * period);
}

TEST(Pacer, BatchedPaceAdvancesScheduleByCountPeriods) {
  // schedule(period, n) consumes exactly n periods: 10 batches of 5 at
  // 100 us book the same schedule as 50 singles.
  Pacer pacer;
  const auto t0 = pacer.next_send();
  for (int i = 0; i < 10; ++i) {
    pacer.schedule(microseconds{100}, 5, pacer.next_send());
  }
  EXPECT_EQ(pacer.next_send(), t0 + microseconds{5000});
}

TEST(Pacer, AverageRateIsExactUnderLatenessUpToOneBatch) {
  // Every round released up to one batch late (wake jitter plus the send
  // syscall): the debt is carried, so 1000 rounds still take exactly
  // 1000 batches of schedule and nothing is forfeited.
  Pacer pacer;
  const auto period = microseconds{12};
  constexpr int kBatch = 16;
  const auto total = period * kBatch;
  const auto t0 = pacer.next_send();
  std::mt19937 rng{1};
  std::uniform_int_distribution<std::int64_t> late_ns{0, total.count() * 1000};
  auto last_release = t0;
  for (int i = 0; i < 1000; ++i) {
    // The sender never releases a round before its deadline.
    const auto release =
        pacer.next_send() + std::chrono::nanoseconds{late_ns(rng)};
    EXPECT_EQ(pacer.schedule(period, kBatch, release),
              Clock::duration::zero());
    last_release = release;
  }
  EXPECT_EQ(pacer.next_send(), t0 + 1000 * total);
  // The last round finished within one batch of its deadline: the rate
  // delivered over the run is the scheduled rate.
  EXPECT_LE(last_release - t0, 1000 * total);
}

TEST(Pacer, LatenessBeyondOneBatchIsForfeited) {
  // A 5 ms stall against a 200 us batch: one batch of debt is kept, the
  // rest is forfeited and reported, so at most one extra batch leaves
  // early instead of a 25-batch catch-up burst (§4.5).
  Pacer pacer;
  const auto period = microseconds{25};
  const auto total = period * 8;
  const auto t0 = pacer.next_send();
  const auto release = t0 + std::chrono::milliseconds{5};
  EXPECT_EQ(pacer.schedule(period, 8, release),
            std::chrono::milliseconds{5} - total);
  // The next round is due at once (the one batch of debt)...
  EXPECT_EQ(pacer.next_send(), release);
  int early = 0;
  auto now = release;
  while (pacer.next_send() <= now) {
    pacer.schedule(period, 8, now);
    ++early;
  }
  EXPECT_EQ(early, 1);
  // ...and from then on the schedule runs at the rate again.
  EXPECT_EQ(pacer.next_send(), release + total);
}

TEST(Pacer, FirstRoundAfterIdleSendsAtMostOneBatchAhead) {
  // A socket that parked (idle or window-limited) for a second resumes at
  // its rate: whatever the gap, one batch beyond the one being sent.
  Pacer pacer;
  const auto period = microseconds{10};
  const auto total = period * 16;
  auto now = pacer.next_send() + std::chrono::seconds{1};
  pacer.schedule(period, 16, now);
  int back_to_back = 1;
  while (pacer.next_send() <= now) {
    pacer.schedule(period, 16, now);
    ++back_to_back;
  }
  EXPECT_EQ(back_to_back, 2);
  EXPECT_EQ(pacer.next_send(), now + total);
}

TEST(Pacer, DelayUntilForgivesDebtAcrossAFreeze) {
  // The §3.3 one-SYN freeze: debt carried into it is dropped, so the
  // round released at the freeze deadline is followed a full batch later,
  // never by a catch-up burst, and nothing is reported as forfeited.
  Pacer pacer;
  const auto period = microseconds{20};
  const auto total = period * 10;
  const auto t0 = pacer.next_send();
  // A late round leaves one batch of debt.
  pacer.schedule(period, 10, t0 + total);
  EXPECT_EQ(pacer.next_send(), t0 + total);
  const auto deadline = t0 + std::chrono::milliseconds{10};
  pacer.delay_until(deadline);
  EXPECT_EQ(pacer.next_send(), deadline);
  // An earlier deadline never pulls the schedule back.
  pacer.delay_until(t0);
  EXPECT_EQ(pacer.next_send(), deadline);
  const auto resume = deadline + microseconds{5};
  EXPECT_EQ(pacer.schedule(period, 10, resume), Clock::duration::zero());
  EXPECT_EQ(pacer.next_send(), deadline + total);
  EXPECT_GT(pacer.next_send(), resume);
}

TEST(Pacer, MicrosecondPrecisionViaSpin) {
  // Sub-scheduler-quantum intervals must still be honoured: 30 us pacing
  // over 100 packets takes ~3 ms, not ~0 (busy-wait precision, §4.5).
  Pacer pacer;
  const auto t0 = Clock::now();
  for (int i = 0; i < 100; ++i) {
    Pacer::wait_until(pacer.next_send());
    pacer.schedule(microseconds{30}, 1, Clock::now());
  }
  const auto us = std::chrono::duration_cast<microseconds>(
                      Clock::now() - t0)
                      .count();
  EXPECT_GE(us, 99 * 30 - 100);
}

TEST(Pacer, BatchCreditRespectsHorizonAndBounds) {
  using std::chrono::microseconds;
  // Low rate (period above the horizon): strict per-packet pacing.
  EXPECT_EQ(batch_credit(microseconds{300}, 16), 1);
  // High rate: the 200 us horizon divided by the period, capped by max.
  EXPECT_EQ(batch_credit(microseconds{25}, 16), 8);
  EXPECT_EQ(batch_credit(microseconds{10}, 16), 16);
  EXPECT_EQ(batch_credit(microseconds{10}, 4), 4);
  // Unpaced (period 0) saturates the batch; batching off always yields 1.
  EXPECT_EQ(batch_credit(std::chrono::nanoseconds{0}, 16), 16);
  EXPECT_EQ(batch_credit(microseconds{1}, 1), 1);
}

TEST(Profiler, AccumulatesPerUnit) {
  Profiler prof;
  prof.add(ProfUnit::kUdpIo, 600);
  prof.add(ProfUnit::kUdpIo, 400);
  prof.add(ProfUnit::kTiming, 1000);
  EXPECT_EQ(prof.nanos(ProfUnit::kUdpIo), 1000u);
  EXPECT_EQ(prof.total_nanos(), 2000u);
  const auto report = prof.report();
  EXPECT_DOUBLE_EQ(
      report[static_cast<std::size_t>(ProfUnit::kUdpIo)].percent, 50.0);
}

TEST(Profiler, ScopedTimerMeasuresElapsed) {
  Profiler prof;
  {
    ScopedTimer t{&prof, ProfUnit::kPacking};
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  EXPECT_GE(prof.nanos(ProfUnit::kPacking), 1'500'000u);
}

TEST(Profiler, NullProfilerIsSafe) {
  ScopedTimer t{nullptr, ProfUnit::kPacking};  // must not crash
  SUCCEED();
}

TEST(Profiler, ResetZeroesEverything) {
  Profiler prof;
  prof.add(ProfUnit::kLossProcessing, 123);
  prof.reset();
  EXPECT_EQ(prof.total_nanos(), 0u);
  EXPECT_EQ(prof.calls(ProfUnit::kLossProcessing), 0u);
}

TEST(Profiler, CountsInvocationsPerUnit) {
  // The calls column is what makes batched I/O visible: one kUdpIo call
  // may now cover many packets, and calls-per-packet is the Table 3 metric
  // batching improves.
  Profiler prof;
  prof.add(ProfUnit::kUdpIo, 500);        // default: one invocation
  prof.add(ProfUnit::kUdpIo, 700, 1);
  { ScopedTimer t{&prof, ProfUnit::kUdpIo}; }
  EXPECT_EQ(prof.calls(ProfUnit::kUdpIo), 3u);
  EXPECT_EQ(prof.report()[static_cast<std::size_t>(ProfUnit::kUdpIo)].calls,
            3u);
}

TEST(Profiler, UnitNamesAreStable) {
  EXPECT_EQ(prof_unit_name(ProfUnit::kUdpIo), "udp-io");
  EXPECT_EQ(prof_unit_name(ProfUnit::kTiming), "timing");
  EXPECT_EQ(prof_unit_name(ProfUnit::kAppInteraction), "app-interaction");
}

}  // namespace
}  // namespace udtr::udt
