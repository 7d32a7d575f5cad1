// Per-functional-unit CPU-time accounting (the VTune substitute for
// Table 3).  Each protocol function wraps its body in a ScopedTimer; the
// report gives the share of total instrumented time per unit, which is what
// the paper's table compares (UDP writing vs timing vs packing vs ...).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace udtr::udt {

// kTiming and the receiver's kUdpIo are not yet attributed on the
// multiplexer datapath: the shard threads make the rx syscalls and the
// pacing waits for many sockets at once, and nothing charges them to a
// socket's profiler yet, so both read 0.  The values stay so reports keep
// their columns.
enum class ProfUnit : std::size_t {
  kUdpIo = 0,       // sendto / recvfrom system calls (sender side only)
  kTiming,          // pacing waits (busy wait + sleep); unattributed, see above
  kPacking,         // header serialization + payload copy out of SndBuffer
  kUnpacking,       // header parse + payload copy into RcvBuffer
  kCtrlProcessing,  // ACK/ACK2/NAK handling
  kLossProcessing,  // loss-list insert/remove
  kRateMeasure,     // bandwidth / RTT / arrival-speed bookkeeping
  kAppInteraction,  // send()/recv() copies and wakeups
  kTimerSweep,      // §4.8 timer checks (calls = sweep iterations)
  kCount,
};

[[nodiscard]] constexpr std::string_view prof_unit_name(ProfUnit u) {
  switch (u) {
    case ProfUnit::kUdpIo: return "udp-io";
    case ProfUnit::kTiming: return "timing";
    case ProfUnit::kPacking: return "packing";
    case ProfUnit::kUnpacking: return "unpacking";
    case ProfUnit::kCtrlProcessing: return "ctrl-processing";
    case ProfUnit::kLossProcessing: return "loss-processing";
    case ProfUnit::kRateMeasure: return "rate-measurement";
    case ProfUnit::kAppInteraction: return "app-interaction";
    case ProfUnit::kTimerSweep: return "timer-sweep";
    case ProfUnit::kCount: break;
  }
  return "?";
}

class Profiler {
 public:
  // `calls` is the number of instrumented invocations the `ns` span covers
  // (for kUdpIo: system calls).  Batched I/O makes the distinction matter —
  // one recvmmsg may deliver 16 packets, and the calls-per-packet ratio is
  // the direct measure of what batching buys.
  void add(ProfUnit unit, std::uint64_t ns, std::uint64_t calls = 1) {
    Cell& c = cells_[static_cast<std::size_t>(unit)];
    c.ns.fetch_add(ns, std::memory_order_relaxed);
    c.calls.fetch_add(calls, std::memory_order_relaxed);
  }

  // Payload bytes memcpy'd inside this unit (Table 3's packing/unpacking
  // rows are copy costs; the zero-copy datapath is measured by this counter
  // going to zero while the unit's call count stays up).
  void add_bytes(ProfUnit unit, std::uint64_t bytes) {
    cells_[static_cast<std::size_t>(unit)].bytes.fetch_add(
        bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t nanos(ProfUnit unit) const {
    return cells_[static_cast<std::size_t>(unit)].ns.load(
        std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t calls(ProfUnit unit) const {
    return cells_[static_cast<std::size_t>(unit)].calls.load(
        std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t bytes(ProfUnit unit) const {
    return cells_[static_cast<std::size_t>(unit)].bytes.load(
        std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total_nanos() const {
    std::uint64_t t = 0;
    for (const auto& c : cells_) t += c.ns.load(std::memory_order_relaxed);
    return t;
  }

  // How many multiplexer shards fed this profiler.  Pure annotation for
  // reports: sharded runs split one socket's
  // units across several service threads, and a reader comparing Table 3
  // shares run-over-run needs to know the thread layout behind them.
  void set_shards(int shards) {
    shards_.store(shards, std::memory_order_relaxed);
  }
  [[nodiscard]] int shards() const {
    return shards_.load(std::memory_order_relaxed);
  }

  struct Share {
    ProfUnit unit;
    std::uint64_t nanos;
    double percent;
    std::uint64_t calls;
    std::uint64_t bytes;  // payload bytes memcpy'd within the unit
  };

  [[nodiscard]] std::vector<Share> report() const {
    const double total = static_cast<double>(total_nanos());
    std::vector<Share> out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const std::uint64_t ns = cells_[i].ns.load(std::memory_order_relaxed);
      out.push_back({static_cast<ProfUnit>(i), ns,
                     total > 0 ? 100.0 * ns / total : 0.0,
                     cells_[i].calls.load(std::memory_order_relaxed),
                     cells_[i].bytes.load(std::memory_order_relaxed)});
    }
    return out;
  }

  void reset() {
    for (auto& c : cells_) {
      c.ns.store(0, std::memory_order_relaxed);
      c.calls.store(0, std::memory_order_relaxed);
      c.bytes.store(0, std::memory_order_relaxed);
    }
  }

 private:
  // One cache line per unit: a shard's rx thread (unpacking, ctrl, timer
  // units) and its tx thread (packing, udp-io) hammer different
  // units of the *same* socket's profiler concurrently, and sharing a line
  // between their counters would put a coherence miss on every sample.
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  std::array<Cell, static_cast<std::size_t>(ProfUnit::kCount)> cells_{};
  std::atomic<int> shards_{1};
};

// RAII span around one instrumented section.  Disabled profilers (nullptr)
// cost a single branch.
class ScopedTimer {
 public:
  ScopedTimer(Profiler* prof, ProfUnit unit) : prof_(prof), unit_(unit) {
    if (prof_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (prof_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      prof_->add(unit_, static_cast<std::uint64_t>(ns));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profiler* prof_;
  ProfUnit unit_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace udtr::udt
