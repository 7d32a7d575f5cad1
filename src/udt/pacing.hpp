// High-precision pacing timer (paper §4.5).
//
// General-purpose OS sleep granularity (~1 ms historically, ~50 us today) is
// far too coarse to space packets microseconds apart, and a per-burst
// counter makes rate control meaningless at high speed.  UDT's answer is a
// hybrid: sleep for the bulk of the interval when it is long enough for the
// OS to honour, then busy-wait on the monotonic clock for the remainder.
#pragma once

#include <algorithm>
#include <chrono>
#include <thread>

namespace udtr::udt {

class Pacer {
 public:
  using Clock = std::chrono::steady_clock;

  // Intervals below this are pure spin; above it we sleep for all but the
  // spin margin.  50 us is a conservative bound on scheduler wakeup jitter.
  static constexpr std::chrono::microseconds kSpinThreshold{50};

  Pacer() : next_(Clock::now()) {}

  // Books one send round of `count` back-to-back packets released at `now`
  // (the instant the caller began filling the round, after waiting until
  // next_send()): the schedule advances by count * period, so the average
  // rate is exactly the per-packet schedule while the syscall cost is paid
  // once per batch.  The §3.3 inter-packet spacing becomes inter-*batch*
  // spacing; callers bound the batch to a small horizon (see batch_credit).
  //
  // A round released late keeps at most one batch of schedule debt: the
  // next round is due at max(next, now - total) + total, so wake lateness
  // and the send syscall itself no longer eat into the rate, yet after any
  // stall at most one extra batch leaves back to back.  Lateness beyond
  // one batch is forfeited (no catch-up burst, §4.5) and returned, so the
  // caller can account the rate a slow host lost.
  Clock::duration schedule(std::chrono::nanoseconds period, int count,
                           Clock::time_point now) {
    const auto total = period * std::max(count, 1);
    const auto floor = now - total;
    Clock::duration forfeit{0};
    if (next_ < floor) {
      forfeit = floor - next_;
      next_ = floor;
    }
    next_ += total;
    return forfeit;
  }

  // Pushes the schedule to at least `t` (the §3.3 freeze deadline): debt
  // accrued before a freeze is forgiven, never repaid as a burst.
  void delay_until(Clock::time_point t) {
    if (t > next_) next_ = t;
  }
  [[nodiscard]] Clock::time_point next_send() const { return next_; }

  static void wait_until(Clock::time_point t) {
    auto now = Clock::now();
    if (t - now > kSpinThreshold) {
      std::this_thread::sleep_until(t - kSpinThreshold);
    }
    while (Clock::now() < t) {
      // busy wait: sub-threshold precision is unavailable from the scheduler
    }
  }

 private:
  Clock::time_point next_;
};

// How many packets one send syscall may cover at the given pacing period
// without distorting the §4.5 schedule: enough to amortise the syscall at
// high rates, but never spanning more than `horizon` of schedule, and
// always 1 when the period itself exceeds the horizon (low rates keep true
// per-packet spacing).  `max_batch` is the caller's hard ceiling (iovec
// array size / SocketOptions::io_batch).
[[nodiscard]] inline int batch_credit(std::chrono::nanoseconds period,
                                      int max_batch,
                                      std::chrono::nanoseconds horizon =
                                          std::chrono::microseconds{200}) {
  if (max_batch <= 1) return 1;
  if (period <= std::chrono::nanoseconds::zero()) return max_batch;
  const auto n = horizon.count() / period.count();
  return static_cast<int>(
      std::clamp<std::int64_t>(n, 1, static_cast<std::int64_t>(max_batch)));
}

// --- GSO run sizing ---------------------------------------------------------
//
// A UDP_SEGMENT super-datagram is one pacing unit: the kernel emits its
// segments back-to-back, so a run must never exceed the batch credit the
// pacer granted (the credit already bounds the burst to the §4.5 horizon).
// On top of that the kernel imposes hard limits: at most 64 segments, and
// the whole payload must fit one 16-bit UDP datagram.
inline constexpr int kMaxGsoSegments = 64;
inline constexpr std::size_t kMaxGsoBytes = 65507;

// Largest number of `seg_bytes`-sized wire datagrams one GSO send may
// coalesce.  Callers take min(this, pacing credit) — and additionally never
// split an RBPP probe pair across two sends (the pair must stay
// back-to-back through one kernel traversal for §3.4 timing to hold).
[[nodiscard]] inline int gso_segment_cap(std::size_t seg_bytes) {
  if (seg_bytes == 0) return 1;
  return static_cast<int>(std::clamp<std::size_t>(
      kMaxGsoBytes / seg_bytes, 1, static_cast<std::size_t>(kMaxGsoSegments)));
}

}  // namespace udtr::udt
