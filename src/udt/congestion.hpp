// Pluggable congestion control for the real socket (paper §3.3–§3.4, §6).
//
// UDT's defining extensibility feature is its configurable congestion
// control hook (the CCC virtual class in UDT4): the protocol machinery —
// reliability, pacing, flow control, timers — is fixed, while the control
// laws that turn ACK/NAK/timeout events into a sending period and a window
// are swappable per socket.  This header is that hook for our stack.
//
// Contract (see DESIGN.md §12):
//   * Every method is called with the owning socket's state_mu_ held, so an
//     implementation needs no locking of its own and may keep plain state.
//   * The host calls set_now(now_s) before delivering any event; now_s is
//     seconds on the socket's private monotonic clock (epoch = connection
//     start).  Implementations must not read wall clocks themselves.
//   * on_ack is only invoked for full (SYN-clocked) ACKs whose cumulative
//     point advances past the last one delivered: duplicate or
//     reordered-stale ACKs never reach the controller, so stale receiver
//     statistics cannot drive a rate change.  Light ACKs (ack id 0, sent
//     from the receiver's drain sites) only free send-buffer storage and
//     never reach it either, so the event stream stays one per SYN.
//   * Outputs are sampled after each event: pkt_send_period_s() paces the
//     sender (§4.5), window_packets() bounds in-flight NEW data (loss-list
//     retransmissions are never window-gated), freeze_deadline_s() pauses
//     the sender until the given instant (the §3.3 one-SYN freeze).  The
//     host additionally caps the effective window by the receiver's
//     advertised free buffer — flow control belongs to the socket, not to
//     the controller.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/udt_cc.hpp"
#include "common/seqno.hpp"

namespace udtr::udt {

// Host parameters handed to a congestion-control factory.  Mirrors what the
// socket historically fed cc::UdtCc: the wire MSS (payload + 16-byte
// header), the SYN constant, and the receiver-buffer-derived window cap.
struct CcConfig {
  int mss_bytes = 1500 + 16;
  double syn_s = 0.01;
  bool window_control = true;
  double max_window = 1e8;
  std::uint64_t seed = 1;
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  // --- host clock ---------------------------------------------------------
  virtual void set_now(double now_s) = 0;

  // --- events (state_mu_ held; set_now called first) ----------------------
  virtual void on_ack(const cc::AckInfo& info) = 0;
  virtual void on_nak(udtr::SeqNo biggest_loss, udtr::SeqNo largest_sent) = 0;
  virtual void on_timeout() = 0;
  // Receiver-side delay trend warning (PCT/PDT, §6).  Real sockets deliver
  // it when the data-RECEIVING peer runs with SocketOptions::delay_warnings
  // (its receive path feeds a DelayTrendDetector and sends kDelayWarn); with
  // that option off — the default — the event never fires on real sockets.
  // The netsim host delivers it in delay_trend_mode.  Optional: loss-driven
  // controllers ignore it.
  virtual void on_delay_warning() {}

  // --- outputs ------------------------------------------------------------
  [[nodiscard]] virtual double pkt_send_period_s() const = 0;
  [[nodiscard]] virtual double window_packets() const = 0;
  // Absolute instant (same clock as set_now) until which the sender must not
  // transmit; anything <= now means "not frozen".  The pacer/timer wheel
  // schedules the resume at exactly this deadline.
  [[nodiscard]] virtual double freeze_deadline_s() const { return -1.0; }
  [[nodiscard]] bool frozen_at(double now_s) const {
    return now_s < freeze_deadline_s();
  }
  [[nodiscard]] virtual double last_rtt_s() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

// Factory signature for custom controllers supplied through
// SocketOptions::congestion_factory.
using CcFactory =
    std::function<std::unique_ptr<CongestionControl>(const CcConfig&)>;

// Builds one of the named built-in controllers; nullptr for unknown names.
//   ""/"udt"    — paper §3.3–3.4 AIMD/RBPP (cc::UdtCc), the default; the
//                 only controller with the one-SYN freeze semantics.
//   "reno-sack" — standard TCP AIMD on SYN-clocked cumulative ACKs.
//   "scalable"  — Scalable TCP (MIMD) for high-BDP paths.
//   "highspeed" — HighSpeed TCP (RFC 3649).
//   "bic"       — Bic TCP binary-search probing.
//   "vegas"     — delay-based: keeps alpha..beta packets queued (srtt vs
//                 base RTT), backs off before loss.
//   "fast"      — FAST-style equation-based delay controller.
[[nodiscard]] std::unique_ptr<CongestionControl> make_congestion(
    const std::string& name, const CcConfig& cfg);

// The names make_congestion accepts (excluding the "" alias for "udt").
[[nodiscard]] const std::vector<std::string>& congestion_names();

}  // namespace udtr::udt
