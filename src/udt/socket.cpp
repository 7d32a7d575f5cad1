#include "udt/socket.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "udt/file_pipeline.hpp"
#include "udt/multiplexer.hpp"

namespace udtr::udt {

namespace {

constexpr std::uint16_t kDefaultIsn = 0;
constexpr int kHandshakeRetries = 50;
constexpr auto kHandshakeRetryGap = std::chrono::milliseconds{100};
// A shutdown is fire-and-forget; repeating it makes a single lost datagram
// unlikely to strand the peer until its EXP budget runs out.
constexpr int kShutdownRepeat = 3;
constexpr auto kShutdownGap = std::chrono::milliseconds{1};

std::uint32_t random_socket_id() {
  // Knuth multiplicative hash, truncated to 31 bits.  The multiplier is odd,
  // so x -> x * M mod 2^31 is a bijection: ids never collide until the
  // counter itself wraps (2^31 sockets), where the old `% 0x7FFFFFFF + 1`
  // folding produced birthday collisions within a ~100k-socket fleet.  Id 0
  // (reserved for handshake rendezvous) only maps from counter 0, which the
  // counter never revisits.
  static std::atomic<std::uint32_t> counter{1};
  return (counter.fetch_add(1) * 2654435761U) & 0x7FFFFFFFU;
}

// Loss-list node pool size.  With flow control on, in-flight data (and thus
// any loss range) is bounded by the receive window, which is itself bounded
// by rcv_buffer_pkts — a small floor suffices and keeps per-socket memory
// flat enough for hundreds of multiplexed connections per port.  With flow
// control off (Fig. 7 ablation) the window is effectively unbounded, so the
// historic large floor stays.
std::int32_t loss_list_capacity(const SocketOptions& o) {
  const std::int32_t floor_nodes = o.window_control ? 1 << 10 : 1 << 16;
  return std::max<std::int32_t>(2 * o.rcv_buffer_pkts, floor_nodes);
}

// listen()/connect() reject unknown algorithm names up front (nullptr),
// mirroring how every other invalid option surfaces.
bool congestion_name_ok(const SocketOptions& o) {
  if (o.congestion_factory || o.congestion.empty()) return true;
  const auto& names = congestion_names();
  return std::find(names.begin(), names.end(), o.congestion) != names.end();
}

// Sender-side zero-window persist probing: backoff cap (TCP's persist timer
// analogue, scaled to our SYN clock).
constexpr std::uint64_t kZwProbeCapUs = 500'000;

// Receiver consumption between light ACKs.  Small enough that a 4 MiB
// sendfile ring turns several times per SYN, large enough that a paced
// MSS-1456 flow adds only a few hundred control packets per second.
constexpr std::int64_t kLightAckBytes = 512 * 1024;

}  // namespace

Socket::Socket(SocketOptions opts)
    : opts_(opts),
      snd_buffer_(opts.mss_bytes, opts.snd_buffer_bytes),
      snd_loss_(loss_list_capacity(opts)),
      rcv_buffer_(opts.mss_bytes, opts.rcv_buffer_pkts),
      rcv_loss_(loss_list_capacity(opts)) {
  CcConfig c;
  c.mss_bytes = opts.mss_bytes + static_cast<int>(kHeaderBytes);
  c.syn_s = opts.syn_s;
  c.window_control = opts.window_control;
  c.max_window = opts.window_control
                     ? static_cast<double>(opts.rcv_buffer_pkts)
                     : 1e8;
  c.seed = random_socket_id();  // per-connection decrease spacing
  if (opts.congestion_factory) {
    cc_ = opts.congestion_factory(c);
  } else {
    cc_ = make_congestion(opts.congestion, c);
  }
  // Unknown names are rejected in listen()/connect(); a null factory result
  // still must not leave the socket without a controller.
  if (!cc_) cc_ = make_congestion("", c);
  isn_ = opts.initial_seq >= 0 ? opts.initial_seq : kDefaultIsn;
  socket_id_ = random_socket_id();
  epoch_ = std::chrono::steady_clock::now();
}

Socket::~Socket() {
  close();
  drop_watchers();
}

std::uint64_t Socket::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

// ------------------------------------------------------------ handshake ---

std::unique_ptr<Socket> Socket::listen(std::uint16_t port,
                                       SocketOptions opts) {
  if (!congestion_name_ok(opts)) return nullptr;
  auto s = std::unique_ptr<Socket>(new Socket(opts));
  s->mode_ = Mode::kListener;
  // The multiplexer owns the channel and its service threads; the listener
  // only parks on the handshake queue.  A bind failure (port in use — by
  // anyone, including another multiplexer in this process) surfaces as
  // nullptr.
  auto mux = Multiplexer::open(port, opts);
  if (!mux || !mux->attach_listener(s.get())) return nullptr;
  s->net_ = &mux->channel();
  s->mux_ = std::move(mux);
  return s;
}

std::unique_ptr<Socket> Socket::accept(std::chrono::milliseconds timeout) {
  if (mode_ != Mode::kListener) return nullptr;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return nullptr;
    auto pending = mux_->wait_handshake(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now));
    if (!pending) continue;
    const HandshakePayload req = pending->req;

    SocketOptions child_opts = opts_;
    child_opts.mss_bytes = static_cast<int>(
        std::min<std::uint32_t>(req.mss_bytes,
                                static_cast<std::uint32_t>(opts_.mss_bytes)));
    child_opts.initial_seq = req.initial_seq;
    // A zero-or-absurd MSS proposal would break buffer math downstream;
    // such a request is hostile or corrupt, not a client to serve.
    if (child_opts.mss_bytes <= 0) {
      mux_->reject_handshake(pending->src, req.socket_id);
      continue;
    }
    auto child = std::unique_ptr<Socket>(new Socket(child_opts));
    // The child stays on the listener's port; the multiplexer routes by the
    // child's socket id.
    child->mux_ = mux_;
    // The child sends through its owning shard's fd (same port — the
    // reuseport group shares it), so its tx traffic never contends with
    // other shards' sockets on one socket buffer.
    child->net_ = &mux_->channel_for(child->socket_id_);
    child->peer_ = pending->src;
    child->peer_socket_id_ = req.socket_id;

    HandshakePayload resp;
    resp.request_type = kHsResponse;
    resp.initial_seq = req.initial_seq;
    resp.mss_bytes = static_cast<std::uint32_t>(child_opts.mss_bytes);
    resp.socket_id = child->socket_id_;
    resp.port = mux_->local_port();
    // Order matters: the child must be in steady state before it becomes
    // routable (a datagram arriving mid-setup would be dropped), and
    // routable — with its response recorded for duplicate requests — before
    // the response leaves.
    child->setup_mux_mode();
    mux_->attach_child(child.get(), resp);
    send_handshake_packet(mux_->channel(), pending->src, req.socket_id, resp);
    return child;
  }
}

std::unique_ptr<Socket> Socket::connect(const std::string& host,
                                        std::uint16_t port,
                                        SocketOptions opts) {
  const auto server = Endpoint::resolve(host, port);
  if (!server) return nullptr;
  if (!congestion_name_ok(opts)) return nullptr;
  auto s = std::unique_ptr<Socket>(new Socket(opts));
  // Attach to a compatible client multiplexer and run the handshake through
  // its receive thread.
  auto mux = Multiplexer::for_client(opts);
  if (!mux) return nullptr;
  s->mux_ = mux;
  s->net_ = &mux->channel_for(s->socket_id_);
  // Attach before the first request leaves: the response carries our socket
  // id as its destination, so it arrives through the normal routing path
  // and mux_ingest stashes it for us (state_ is still kConnecting).
  mux->attach(s.get());

  HandshakePayload req;
  req.request_type = kHsRequest;
  req.initial_seq = static_cast<std::uint32_t>(s->isn_);
  req.mss_bytes = static_cast<std::uint32_t>(opts.mss_bytes);
  req.socket_id = s->socket_id_;

  for (int attempt = 0; attempt < kHandshakeRetries; ++attempt) {
    send_handshake_packet(mux->channel(), *server, 0, req);
    std::unique_lock lk{s->state_mu_};
    s->app_rcv_cv_.wait_for(lk, kHandshakeRetryGap,
                            [&] { return s->hs_resp_.has_value(); });
    if (!s->hs_resp_) continue;
    const HandshakePayload resp = *s->hs_resp_;
    s->hs_resp_.reset();
    if (resp.request_type == kHsChallenge) {
      // Stateless listener: echo its cookie and retry immediately (the wait
      // above woke as soon as the challenge arrived).
      req.cookie = resp.cookie;
      continue;
    }
    // The negotiated MSS must land in (0, our proposal]: a corrupt or
    // hostile response advertising 0 (division in buffer math) or more than
    // we offered (overflows every MSS-sized buffer, distorts pacing) is
    // rejected, and the retry loop waits for a trustworthy response.
    if (resp.mss_bytes == 0 ||
        resp.mss_bytes > static_cast<std::uint32_t>(opts.mss_bytes)) {
      continue;
    }
    s->peer_ = Endpoint{server->ip_host_order,
                        static_cast<std::uint16_t>(resp.port)};
    s->peer_socket_id_ = resp.socket_id;
    if (static_cast<int>(resp.mss_bytes) != s->opts_.mss_bytes) {
      // The negotiated MSS is the smaller of the two proposals; rebuild the
      // (still empty) send buffer so chunks fit the agreed packet size.
      s->opts_.mss_bytes = static_cast<int>(resp.mss_bytes);
      s->snd_buffer_ = SndBuffer(s->opts_.mss_bytes, opts.snd_buffer_bytes);
    }
    lk.unlock();
    s->setup_mux_mode();
    return s;
  }
  mux->detach(s.get());
  return nullptr;
}

void Socket::setup_mux_mode() {
  // Loss-list node arrays recycle through the owning shard's pool instead
  // of churning the heap (they are also lazily allocated — an idle socket
  // never materializes them at all).
  snd_loss_.set_pool(mux_->loss_pool(socket_id_));
  rcv_loss_.set_pool(mux_->loss_pool(socket_id_));
  // Keep the shared receive slab alive past detach: RcvBuffer may still
  // hold payload references into it when this socket closes.
  mux_slab_ = mux_->slab_for(socket_id_);
  profiler_.set_shards(static_cast<int>(mux_->shards()));
  std::lock_guard lk{state_mu_};
  epoch_ = std::chrono::steady_clock::now();
  last_ctrl_us_ = now_us();
  state_ = ConnState::kEstablished;
  running_ = true;
}

// ---------------------------------------------------------- sender path ---

double Socket::effective_snd_window() const {
  double wnd = cc_->window_packets();
  // The receiver's advertised free buffer is authoritative flow control —
  // including zero, which the controller never sees (its input floors at 2
  // so control laws keep their historic shape): a closed window is the
  // socket's business, reopened by the persist probe path, not a rate
  // signal.  The advertisement counts from the cumulative point of the ACK
  // that carried it: a light ACK moving snd_una_ past that point frees
  // storage but must not stretch the extent the receiver granted.
  if (opts_.window_control && peer_ack_seen_) {
    wnd = std::min(wnd, peer_avail_pkts_ - static_cast<double>(
                                               snd_una_ - peer_avail_index_));
  }
  return wnd;
}

bool Socket::snd_has_work() const {
  if (!snd_loss_.empty()) return true;
  const double wnd = effective_snd_window();
  return snd_next_ < snd_buffer_.end_index() &&
         static_cast<double>(snd_next_ - snd_una_) < wnd;
}

std::size_t Socket::fill_tx_batch(double& period_s) {
  // Lazy scratch: sized on the first batch this socket ever stages, so
  // sockets that never send never pay for it.  One slot per batch entry,
  // plus one spare so an RBPP probe pair never splits across two syscalls
  // when the head lands on the batch edge.  Only the 16-byte header is
  // serialized; each datagram is a (header, chunk) span pair the kernel
  // gathers, so the payload is read from the SndBuffer chunk where it
  // already lives, never staged.
  if (tx_max_batch_ == 0) {
    tx_max_batch_ = std::clamp(opts_.io_batch, 1, 64);
    tx_headers_.resize(static_cast<std::size_t>(tx_max_batch_) + 1);
    tx_gather_.reserve(static_cast<std::size_t>(tx_max_batch_) + 1);
  }
  Profiler* prof = opts_.enable_profiler ? &profiler_ : nullptr;
  const std::size_t nslots = static_cast<std::size_t>(tx_max_batch_) + 1;
  tx_gather_.clear();
  std::int64_t pin_first = -1;
  std::int64_t pin_end = -1;

  period_s = cc_->pkt_send_period_s();
  if (opts_.max_bandwidth_mbps > 0.0) {
    const double min_period = (opts_.mss_bytes + kHeaderBytes) * 8.0 /
                              (opts_.max_bandwidth_mbps * 1e6);
    period_s = std::max(period_s, min_period);
  }
  // Accumulate up to one pacing-credit of packets for a single syscall:
  // the credit never spans more than ~200 us of §4.5 schedule, so low
  // rates degenerate to one packet per call (true inter-packet spacing)
  // while GigE-class rates amortise the syscall 8-16x.  GSO run sizing
  // downstream is bounded by this same credit — send_gather never sees
  // more datagrams than the pacer granted.
  const auto credit = static_cast<std::size_t>(batch_credit(
      std::chrono::nanoseconds{static_cast<std::int64_t>(period_s * 1e9)},
      tx_max_batch_));
  const double wnd = effective_snd_window();
  const auto next_new = [&]() -> std::int64_t {
    // TTL-dropped chunks transmit nothing, so the flow-control window does
    // not apply to them: skip BEFORE the window check, or a window that
    // closed exactly at a dead range could never advance past it and the
    // receiver's sealed-range ACK would stay outside [snd_una_, snd_next_]
    // forever.
    const std::int64_t end = snd_buffer_.end_index();
    while (snd_next_ < end && snd_buffer_.is_dead(snd_next_)) ++snd_next_;
    if (snd_next_ < end &&
        static_cast<double>(snd_next_ - snd_una_) < wnd) {
      return snd_next_;
    }
    return -1;
  };
  // Loss-list retransmissions keep strict priority within the batch;
  // after an RBPP pair head the successor is forced in back-to-back
  // (even one slot past the credit), preserving the probe semantics.
  bool force_successor = false;
  while (tx_gather_.size() < nslots &&
         (tx_gather_.size() < credit || force_successor)) {
    std::int64_t index = -1;
    bool retransmit = false;
    if (force_successor) {
      force_successor = false;
      index = next_new();
      if (index < 0) break;
    } else if (auto lost = snd_loss_.pop_first()) {
      index = index_of(*lost, snd_una_);
      if (index < snd_una_ || index >= snd_next_) continue;  // stale
      // A NAK can name packets of a message that expired meanwhile; their
      // payload is gone and the peer seals the hole via kMsgDrop instead.
      if (snd_buffer_.is_dead(index)) continue;
      retransmit = true;
    } else {
      index = next_new();
      if (index < 0) break;
    }

    const auto chunk = snd_buffer_.chunk(index);
    if (!chunk) continue;  // already acknowledged (stale loss entry)
    {
      ScopedTimer t{prof, ProfUnit::kPacking};
      auto& hdr = tx_headers_[tx_gather_.size()];
      DataHeader h;
      h.seq = seq_of(index);
      h.msg_word = snd_buffer_.msg_word(index);
      h.timestamp_us = static_cast<std::uint32_t>(now_us());
      h.dst_socket = peer_socket_id_;
      write_data_header(hdr, h);
      UdpChannel::TxDatagram d;
      d.head = {hdr.data(), kHeaderBytes};
      d.body = *chunk;
      tx_gather_.push_back(d);
      if (pin_first < 0 || index < pin_first) pin_first = index;
      if (index + 1 > pin_end) pin_end = index + 1;
    }
    if (!retransmit) {
      snd_next_ = index + 1;
      ++stats_.data_packets_sent;
      force_successor = opts_.probe_interval > 0 &&
                        index % opts_.probe_interval == 0;
      // Mark a probe head so the channel never cuts a GSO run (a
      // syscall boundary) between the pair.
      if (force_successor) {
        tx_gather_.back().keep_with_next = true;
      }
    } else {
      ++stats_.retransmitted;
    }
  }
  // Pin the covered index range before the caller drops the lock: an ACK
  // that lands during the unlocked syscall would otherwise free chunk
  // storage the gather iovecs still reference.
  if (!tx_gather_.empty()) snd_buffer_.pin(pin_first, pin_end);
  return tx_gather_.size();
}

Pacer::Clock::time_point Socket::tx_round() {
  // One sender round: the shard's send thread has (nominally)
  // waited until this socket's pacing deadline.  Fill a credit's worth,
  // push it to the wire, advance the schedule, hand the next deadline back.
  double period = 0.0;
  std::size_t count = 0;
  // The round's release instant: the schedule is booked from here, not
  // from after the syscall, so neither wake lateness nor the send itself
  // is charged against the rate (see Pacer::schedule).
  const auto release = Pacer::Clock::now();
  {
    std::unique_lock lk{state_mu_};
    if (!running_ || !snd_has_work()) {
      // Nothing to do: clear the heartbeat dirty flag under the same lock
      // that guards snd_has_work()'s inputs, so a concurrent wake_sender
      // either saw work (flag stays meaningful) or re-sets it after us.
      tx_dirty_.store(false, std::memory_order_relaxed);
      tx_backlogged_ = false;
      return Pacer::Clock::time_point::max();
    }
    const double now = now_s();
    cc_->set_now(now);
    if (cc_->frozen_at(now)) {
      // Reschedule this socket's heap entry at exactly the freeze deadline
      // and move the pacer there too: schedule debt from before the
      // one-SYN freeze is forgiven, never repaid as a burst on resume.
      const auto resume =
          epoch_ + std::chrono::duration_cast<Pacer::Clock::duration>(
                       std::chrono::duration<double>(cc_->freeze_deadline_s()));
      pacer_.delay_until(resume);
      return resume;
    }
    // A kick can land while a future deadline is already scheduled; sending
    // now would outrun the §4.5 schedule (and any bandwidth cap), so just
    // reschedule at the pacer's instant.
    const auto next = pacer_.next_send();
    if (next > release) return next;
    count = fill_tx_batch(period);
    if (count == 0) {
      tx_dirty_.store(false, std::memory_order_relaxed);
      tx_backlogged_ = false;
      return Pacer::Clock::time_point::max();
    }
  }
  {
    ScopedTimer t{opts_.enable_profiler ? &profiler_ : nullptr,
                  ProfUnit::kUdpIo};
    net_->send_gather(peer_, {tx_gather_.data(), count}, opts_.gso);
  }
  const auto forfeit = pacer_.schedule(
      std::chrono::nanoseconds{static_cast<std::int64_t>(period * 1e9)},
      static_cast<int>(count), release);
  bool more;
  {
    std::lock_guard lk{state_mu_};
    // Only a socket that stayed backlogged since its last round lost that
    // schedule time to the host; the gap after an idle or window-limited
    // park is not rate the cap promised.
    if (tx_backlogged_) {
      stats_.pacing_forfeit_us +=
          std::chrono::duration<double, std::micro>(forfeit).count();
    }
    // Syscall done: recycle any storage an ACK parked meanwhile and wake
    // overlapped senders waiting on pinned_below().
    if (snd_buffer_.unpin()) {
      if (snd_release_hook_) snd_release_hook_();
      app_snd_cv_.notify_all();
      poke_watchers();
    }
    more = running_ && snd_has_work();
    if (!more) tx_dirty_.store(false, std::memory_order_relaxed);
    tx_backlogged_ = more;
  }
  return more ? pacer_.next_send() : Pacer::Clock::time_point::max();
}

void Socket::mux_ingest(std::span<const std::uint8_t> pkt, RecvSlab* slab,
                        int slab_slot) {
  std::lock_guard lk{state_mu_};
  if (state_ == ConnState::kConnecting) {
    // Pre-establishment the only meaningful arrivals are the handshake
    // response and a stateless listener's cookie challenge; stash either
    // for the connecting thread.
    if (!is_control(pkt)) return;
    const auto hdr = decode_ctrl_header(pkt);
    if (!hdr || hdr->type != CtrlType::kHandshake) return;
    const auto resp = decode_handshake_payload(pkt.subspan(kHeaderBytes));
    if (!resp || (resp->request_type != kHsResponse &&
                  resp->request_type != kHsChallenge)) {
      return;
    }
    hs_resp_ = *resp;
    app_rcv_cv_.notify_all();
    return;
  }
  if (!running_) return;
  if (is_control(pkt)) {
    handle_ctrl(pkt);
  } else {
    handle_data(pkt, slab, slab_slot);
  }
}

Pacer::Clock::time_point Socket::sweep_timers_next() {
  const auto now_tp = Pacer::Clock::now();
  const auto syn = std::chrono::microseconds{
      static_cast<std::int64_t>(opts_.syn_s * 1e6)};
  std::lock_guard lk{state_mu_};
  // Not (or no longer) in steady state: the handshake / close paths own
  // their own retransmits, so the wheel entry just idles at SYN cadence
  // until the socket either establishes or detaches.
  if (!running_) return now_tp + syn;
  {
    ScopedTimer t{opts_.enable_profiler ? &profiler_ : nullptr,
                  ProfUnit::kTimerSweep};
    check_timers();
  }
  if (!running_) return now_tp + syn;  // went broken during the sweep
  const std::uint64_t now = now_us();
  const std::uint64_t due = next_timer_due_us(now);
  return now_tp + std::chrono::microseconds{due - now};
}

std::uint64_t Socket::next_timer_due_us(std::uint64_t now) const {
  const auto syn_us = static_cast<std::uint64_t>(opts_.syn_s * 1e6);
  // EXP is the only timer that is always armed (§4.8); an idle socket parks
  // at its horizon — this is what makes the wheel O(active), not O(open).
  const double rtt = cc_->last_rtt_s();
  const double base = std::max(opts_.min_exp_timeout_s, 4.0 * rtt);
  const double factor = std::min(1 << std::min(consecutive_timeouts_, 4), 16);
  std::uint64_t due =
      last_ctrl_us_ + static_cast<std::uint64_t>(base * factor * 1e6);
  // ACK cadence only matters while there is something new to acknowledge;
  // a fresh arrival re-tightens the wheel entry (Multiplexer::
  // tighten_timer), so skipping it here cannot strand the receiver.
  if (any_arrival_ &&
      (data_since_ack_ || rcv_buffer_.contiguous_end() != last_acked_index_)) {
    due = std::min(due, last_ack_us_ + syn_us);
  }
  // NAK re-reports only while holes are outstanding.
  if (!rcv_loss_.empty()) due = std::min(due, last_nak_check_us_ + syn_us);
  // Zero-window persist probe while armed: the wheel must wake this socket
  // at the probe instant, or a parked idle sender would never probe.
  if (zw_probe_backoff_us_ > 0 && peer_avail_pkts_ <= 0.0) {
    due = std::min(due, next_zw_probe_us_);
  }
  // Message TTLs: the wheel must fire at the earliest deadline, or an
  // otherwise-idle socket would expire messages a whole EXP period late.
  if (!snd_msgs_.empty()) due = std::min(due, snd_msg_deadline_us_);
  return std::max(due, now + 1);
}

void Socket::wake_sender() {
  // Dirty before kick: if the kick is lost (heap entry consumed by a racing
  // serve), the heartbeat sweep still sees the flag and re-kicks.
  tx_dirty_.store(true, std::memory_order_relaxed);
  mux_->kick(this);
}

// ------------------------------------------------------- receiver path ---

void Socket::handle_data(std::span<const std::uint8_t> pkt, RecvSlab* slab,
                         int slab_slot) {
  Profiler* prof = opts_.enable_profiler ? &profiler_ : nullptr;
  const DataHeader h = read_data_header(pkt);
  const std::uint64_t now = now_us();
  const std::int64_t index = index_of(h.seq, std::max<std::int64_t>(lrsn_, 0));
  if (index < 0) return;
  if (index >= rcv_buffer_.window_end()) return;  // no room: like a net drop
  ++stats_.data_packets_recv;
  // A data packet is as much proof of peer liveness as a control packet.
  last_ctrl_us_ = now;
  consecutive_timeouts_ = 0;

  {
    ScopedTimer t{prof, ProfUnit::kRateMeasure};
    const int probe = opts_.probe_interval;
    if (any_arrival_) {
      speed_.add_interval(static_cast<double>(now - last_arrival_us_) * 1e-6);
      // RBPP pair: consecutive arrivals of indices (16k, 16k+1).
      if (probe > 0 && index == probe_head_index_ + 1 &&
          index % probe == 1) {
        pair_.add_dispersion(static_cast<double>(now - probe_head_us_) *
                             1e-6);
      }
    }
    last_arrival_us_ = now;
    any_arrival_ = true;
    if (probe > 0 && index % probe == 0) {
      probe_head_index_ = index;
      probe_head_us_ = now;
    } else {
      probe_head_index_ = -2;
    }
  }

  if (opts_.delay_warnings) {
    // One-way delay on the 32-bit wire timestamp, wrap-safe; the constant
    // clock offset between the two endpoints' epochs cancels out of the
    // trend, which is all PCT/PDT look at.
    const std::uint32_t owd_us =
        static_cast<std::uint32_t>(now) - h.timestamp_us;
    if (delay_trend_.add_delay(static_cast<double>(owd_us) * 1e-6)) {
      send_ctrl_simple(CtrlType::kDelayWarn);
      ++stats_.delay_warnings_sent;
    }
  }

  if (index > lrsn_) {
    if (index > lrsn_ + 1) {
      // Gap detected: record and NAK immediately (§3.1).
      ScopedTimer t{prof, ProfUnit::kLossProcessing};
      rcv_loss_.set_now_us(now);
      rcv_loss_.insert(seq_of(lrsn_ + 1), seq_of(index - 1));
      const std::pair<udtr::SeqNo, udtr::SeqNo> range{seq_of(lrsn_ + 1),
                                                      seq_of(index - 1)};
      send_nak({&range, 1});
    }
    lrsn_ = index;
  } else {
    ScopedTimer t{prof, ProfUnit::kLossProcessing};
    rcv_loss_.remove(h.seq);
  }

  // The first data arrival latches the receive direction's mode off the
  // wire word1 (0 = stream sentinel).  A stream-latched receiver zeroes any
  // later nonzero word instead of half-reassembling: one socket speaks
  // either stream or message, never both.
  std::uint32_t msg_word = h.msg_word;
  if (rcv_mode_ == XferMode::kUnset) {
    rcv_mode_ = msg_word != 0 ? XferMode::kMessage : XferMode::kStream;
  }
  if (rcv_mode_ == XferMode::kStream) msg_word = 0;

  {
    ScopedTimer t{prof, ProfUnit::kUnpacking};
    const std::uint64_t ring_before = rcv_buffer_.ring_copied_bytes();
    const std::uint64_t user_before = rcv_buffer_.user_copied_bytes();
    if (slab != nullptr && slab_slot >= 0) {
      // Zero-copy: the payload stays where the kernel wrote it; RcvBuffer
      // takes a slab reference instead of copying.
      rcv_buffer_.store_ref(index, pkt.subspan(kHeaderBytes), slab,
                            slab_slot, msg_word);
    } else {
      rcv_buffer_.store(index, pkt.subspan(kHeaderBytes), msg_word);
    }
    if (prof != nullptr) {
      // Ring copies belong to unpacking; direct-to-user-buffer copies are
      // the app-interaction copy happening early (overlapped fast path).
      profiler_.add_bytes(ProfUnit::kUnpacking,
                          rcv_buffer_.ring_copied_bytes() - ring_before);
      profiler_.add_bytes(ProfUnit::kAppInteraction,
                          rcv_buffer_.user_copied_bytes() - user_before);
    }
  }
  data_since_ack_ = true;
  app_rcv_cv_.notify_all();
  poke_watchers();
}

void Socket::release_acked(std::int64_t ack_index) {
  snd_una_ = ack_index;
  snd_buffer_.ack_up_to(ack_index);
  {
    ScopedTimer t{opts_.enable_profiler ? &profiler_ : nullptr,
                  ProfUnit::kLossProcessing};
    snd_loss_.remove_up_to(seq_of(ack_index - 1));
  }
  // Fully-acknowledged messages need no TTL tracking any more, and a drop
  // record the cumulative ACK passed has done its job (the peer sealed the
  // hole).  Records are index-ordered, so the purge is a front-pop.
  while (!snd_msgs_.empty() && snd_msgs_.front().last < snd_una_) {
    snd_msgs_.pop_front();
  }
  if (!snd_dropped_.empty()) {
    std::erase_if(snd_dropped_,
                  [&](const SndMsgRecord& r) { return r.last < snd_una_; });
  }
  if (snd_release_hook_) snd_release_hook_();
  app_snd_cv_.notify_all();
  poke_watchers();
}

void Socket::handle_ctrl(std::span<const std::uint8_t> pkt) {
  Profiler* prof = opts_.enable_profiler ? &profiler_ : nullptr;
  ScopedTimer ctrl_timer{prof, ProfUnit::kCtrlProcessing};
  const auto hdr_opt = decode_ctrl_header(pkt);
  if (!hdr_opt) {
    // Unknown control type: a corrupt header or a future protocol rev.
    ++stats_.invalid_packets;
    return;
  }
  const CtrlHeader hdr = *hdr_opt;
  const std::uint64_t now = now_us();
  const double now_sec = static_cast<double>(now) * 1e-6;
  cc_->set_now(now_sec);

  // Any well-formed control packet is proof of peer liveness: it re-arms
  // the EXP timer and unwinds the escalation (§3.5).  Malformed payloads
  // below do NOT reach this point for ACKs (validated first) — but for the
  // other types the 16-byte header alone passed validation, which is enough.
  if (hdr.type != CtrlType::kAck) {
    last_ctrl_us_ = now;
    consecutive_timeouts_ = 0;
  }

  switch (hdr.type) {
    case CtrlType::kAck: {
      // Validate before acting: a truncated ACK must not reset the EXP
      // timer or trigger an ACK2 echo.
      const auto ack_opt = decode_ack_payload(pkt.subspan(kHeaderBytes));
      if (!ack_opt) {
        ++stats_.invalid_packets;
        break;
      }
      const AckPayload ack = *ack_opt;
      last_ctrl_us_ = now;
      consecutive_timeouts_ = 0;
      const std::int64_t ack_index = index_of(ack.ack_seq, snd_una_);
      const bool advanced = ack_index > snd_una_ && ack_index <= snd_next_;

      // Light ACK (id 0, sent from the peer's drain sites): the cumulative
      // point only.  It frees acknowledged storage and nothing else — no
      // ACK2 (there is no id to match), no window update (its other words
      // are zero) and no controller feed (its cadence is the receiver's
      // consumption, not the §3.1 SYN clock).
      if (hdr.info == 0) {
        ++stats_.light_acks_recv;
        if (advanced) {
          release_acked(ack_index);
          wake_sender();
        }
        break;
      }

      ++stats_.acks_recv;
      // Echo ACK2 so the receiver can measure RTT.
      send_ctrl_simple(CtrlType::kAck2, hdr.info);

      // New to the controller: beyond the last full-ACK point it was fed.
      // Gating on snd_una_ instead would drop a SYN ACK whose point a light
      // ACK already covered, starving the once-per-ACK rate increase.
      const bool fresh = ack_index > cc_fed_index_ && ack_index <= snd_next_;
      // Plausible cumulative point — the same bar the NAK ranges must
      // clear.  The last fed point itself is included: a pure window update
      // repeats it.  (cc_fed_index_ <= snd_una_; the two are equal unless
      // light ACKs ran ahead.)
      const bool in_window =
          ack_index >= cc_fed_index_ && ack_index <= snd_next_;

      // Flow control: the FRESHEST ack (by ack-id monotonicity, not
      // cumulative-seq advancement — a pure window update repeats its
      // ack_seq) carries the receiver's current free-buffer count,
      // including a genuine zero.  Three gates guard the advertisement:
      //   * in_window — a forged or corrupted ack whose cumulative point
      //     lies outside [cc_fed_index_, snd_next_] must not touch the window
      //     at all (one wild ack with avail == 0 used to close it, and its
      //     far-future ack id made every later genuine ACK compare as
      //     stale: a single-packet permanent stall);
      //   * id freshness — a reordered stale ack must not clobber a newer
      //     advertisement in either direction;
      //   * recovery overrides — an ack with a fresh cumulative point is
      //     authoritative regardless of its id and resynchronizes the
      //     id baseline, and while we believe the window is closed any
      //     in-window ack may update it: the probe-elicited reopen must
      //     not be rejectable by id poisoning, and a sender that is
      //     stalled anyway has nothing to lose by trusting it.
      const auto ack_id = static_cast<std::int32_t>(hdr.info);
      const std::int32_t id_delta = ack_id - last_peer_ack_id_;
      const bool id_fresh =
          !peer_ack_seen_ || id_delta > 0 ||
          id_delta < -(std::numeric_limits<std::int32_t>::max() / 2);
      if (in_window && (id_fresh || fresh || peer_avail_pkts_ <= 0.0)) {
        last_peer_ack_id_ = ack_id;
        peer_ack_seen_ = true;
        const double prev_avail = peer_avail_pkts_;
        peer_avail_pkts_ = static_cast<double>(ack.avail_buffer_pkts);
        peer_avail_index_ = ack_index;
        if (opts_.window_control && peer_avail_pkts_ <= 0.0 &&
            prev_avail > 0.0) {
          // Window just closed: arm the persist probe so the reopening
          // window update (which carries no data and may itself be lost)
          // is always re-elicited.
          zw_probe_backoff_us_ = static_cast<std::uint64_t>(
              std::max(opts_.syn_s * 1e6, 1.0));
          next_zw_probe_us_ = now + zw_probe_backoff_us_;
        } else if (peer_avail_pkts_ > 0.0) {
          zw_probe_backoff_us_ = 0;
        }
      }

      if (advanced) release_acked(ack_index);
      if (fresh) {
        cc_fed_index_ = ack_index;
        cc::AckInfo info;
        info.ack_seq = ack.ack_seq;
        info.rtt_s = static_cast<double>(ack.rtt_us) * 1e-6;
        info.recv_rate_pps = static_cast<double>(ack.recv_rate_pps);
        info.capacity_pps = static_cast<double>(ack.capacity_pps);
        info.avail_buffer_pkts =
            ack.avail_buffer_pkts > 0 ? ack.avail_buffer_pkts : 2.0;
        cc_->on_ack(info);
      } else {
        // A duplicate or reordered-stale ack (nothing new to the
        // controller) must not feed its receiver statistics to it — an old
        // ack's stale recv_rate/capacity once drove spurious rate
        // increases here.
        ++stats_.stale_acks_dropped;
      }
      wake_sender();
      break;
    }
    case CtrlType::kNak: {
      ++stats_.naks_recv;
      // Capped at kMaxNakRanges inside the decoder, so an oversized payload
      // cannot turn into unbounded loss-list work.
      const auto ranges = decode_nak_payload(pkt.subspan(kHeaderBytes));
      udtr::SeqNo biggest = seq_of(snd_una_);
      bool any_valid = false;
      {
        ScopedTimer t{prof, ProfUnit::kLossProcessing};
        for (const auto& [first, last] : ranges) {
          const std::int64_t a = index_of(first, snd_una_);
          const std::int64_t b = index_of(last, snd_una_);
          // Inverted ranges and ranges entirely outside [snd_una_,
          // snd_next_) are fabrications — a corrupt NAK must not be able to
          // trigger a retransmit storm.
          if (b < a || b < snd_una_ || a >= snd_next_) {
            ++stats_.invalid_nak_ranges;
            continue;
          }
          const std::int64_t ca = std::max(a, snd_una_);
          const std::int64_t cb = std::min(b, snd_next_ - 1);
          if (ca > cb) {
            ++stats_.invalid_nak_ranges;
            continue;
          }
          snd_loss_.insert(seq_of(ca), seq_of(cb));
          any_valid = true;
          if (udtr::SeqNo::cmp(seq_of(cb), biggest) > 0) biggest = seq_of(cb);
        }
      }
      // Only a NAK that actually named in-flight packets is a congestion
      // signal; garbage must not halve the sending rate either.
      if (any_valid) {
        cc_->on_nak(biggest, seq_of(std::max<std::int64_t>(snd_next_ - 1, 0)));
        wake_sender();
      }
      // A NAK naming sequence numbers inside a TTL-dropped message means
      // the peer missed the kMsgDrop (or it was lost): answer with a
      // re-send so the hole gets sealed instead of re-requested forever.
      if (!snd_dropped_.empty()) {
        for (const auto& rec : snd_dropped_) {
          bool hit = false;
          for (const auto& [first, last] : ranges) {
            const std::int64_t a = index_of(first, snd_una_);
            const std::int64_t b = index_of(last, snd_una_);
            if (b >= rec.first && a <= rec.last) {
              hit = true;
              break;
            }
          }
          if (hit) send_msg_drop(rec.msg_no, rec.first, rec.last);
        }
      }
      break;
    }
    case CtrlType::kAck2: {
      // RTT measurement: match the echoed ACK id.
      for (auto& [id, t_sent] : ack_times_) {
        if (id == static_cast<std::int32_t>(hdr.info) && id != 0) {
          const double sample = static_cast<double>(now - t_sent) * 1e-6;
          rtt_s_ = rtt_s_ <= 0.0 ? sample : rtt_s_ * 0.875 + sample * 0.125;
          id = 0;
          break;
        }
      }
      break;
    }
    case CtrlType::kShutdown: {
      peer_shutdown_ = true;
      if (state_ == ConnState::kEstablished) state_ = ConnState::kClosing;
      app_rcv_cv_.notify_all();
      app_snd_cv_.notify_all();
      poke_watchers();
      break;
    }
    case CtrlType::kHandshake: {
      // Duplicate handshake (our response got lost): re-acknowledge.  A
      // short or mangled payload is not a request.
      const auto req = decode_handshake_payload(pkt.subspan(kHeaderBytes));
      if (!req) {
        ++stats_.invalid_packets;
        break;
      }
      if (req->request_type == kHsRequest) {
        HandshakePayload resp;
        resp.request_type = kHsResponse;
        resp.initial_seq = req->initial_seq;
        resp.mss_bytes = static_cast<std::uint32_t>(opts_.mss_bytes);
        resp.socket_id = socket_id_;
        resp.port = net_->local_port();
        send_handshake_packet(*net_, peer_, peer_socket_id_, resp);
      }
      break;
    }
    case CtrlType::kDelayWarn:
      // The peer's receiver (running with delay_warnings) saw a rising
      // one-way-delay trend on our data: an early congestion signal,
      // before any loss (§6).  Delay-aware controllers react; the others
      // treat it as a no-op.
      ++stats_.delay_warnings_recv;
      cc_->on_delay_warning();
      break;
    case CtrlType::kMsgDrop: {
      // The peer gave up on a TTL-expired message: seal its sequence range
      // so the hole stops blocking delivery (and stops being NAKed).
      const auto drop = decode_msg_drop_payload(pkt.subspan(kHeaderBytes));
      if (!drop) {
        ++stats_.invalid_packets;
        break;
      }
      // A kMsgDrop latches message mode just like a data packet would — it
      // can outrace the first data arrival.  A stream-latched receiver has
      // no message holes to seal; sealing would corrupt the byte stream.
      if (rcv_mode_ == XferMode::kStream) {
        ++stats_.invalid_packets;
        break;
      }
      rcv_mode_ = XferMode::kMessage;
      const std::int64_t anchor = std::max<std::int64_t>(lrsn_, 0);
      std::int64_t a = index_of(drop->first, anchor);
      std::int64_t b = index_of(drop->last, anchor);
      const std::int64_t wend = rcv_buffer_.window_end();
      if (a >= wend || b < 0) break;  // entirely outside the window
      a = std::max<std::int64_t>(a, 0);
      b = std::min(b, wend - 1);
      ++stats_.msg_drop_ctrl_recv;
      mux_->note_msg_drop_recv();
      {
        ScopedTimer t{prof, ProfUnit::kLossProcessing};
        rcv_loss_.remove_range(seq_of(a), seq_of(b));
      }
      rcv_buffer_.seal_range(a, b);
      // Advance the loss frontier past the sealed range: packets after the
      // hole must not re-detect (and re-NAK) it as a fresh gap.
      if (b > lrsn_) lrsn_ = b;
      data_since_ack_ = true;  // the seal can move the ACK point
      app_rcv_cv_.notify_all();
      poke_watchers();
      break;
    }
    case CtrlType::kKeepAlive:
      // A peer keepalive doubles as a zero-window persist probe.  Answer
      // every one with a current-window ACK — not only while our own
      // advertisement is zero: the drain-triggered window update clears
      // advertised_zero_ the moment it is SENT, so if that single ACK is
      // lost the probing sender still believes the window is closed while
      // a gated answer would ignore it forever — the exact lost-window-
      // update deadlock the probe mechanism exists to prevent.  ACKs are
      // idempotent and keepalives are rare, so the unconditional answer
      // costs nothing.
      if (mode_ == Mode::kConnected) send_ack();
      break;
  }
}

// ------------------------------------------------------------- timers ---

void Socket::check_timers() {
  const std::uint64_t now = now_us();
  const auto syn_us = static_cast<std::uint64_t>(opts_.syn_s * 1e6);

  // ACK timer (§3.1): one selective acknowledgment per SYN.
  if (now - last_ack_us_ >= syn_us) {
    last_ack_us_ = now;
    if (any_arrival_) {
      const std::int64_t ack_index = rcv_buffer_.contiguous_end();
      if (ack_index != last_acked_index_ || data_since_ack_) {
        send_ack();
        last_acked_index_ = ack_index;
        data_since_ack_ = false;
      }
    }
  }

  // NAK timer: re-report stale holes with growing intervals (§3.5).
  if (now - last_nak_check_us_ >= syn_us) {
    last_nak_check_us_ = now;
    if (!rcv_loss_.empty()) {
      const double rtt = rtt_s_ > 0.0 ? rtt_s_ : 0.1;
      const auto base_us = static_cast<std::uint64_t>(
          std::max(rtt * 1.5, 2.0 * opts_.syn_s) * 1e6);
      const auto expired = rcv_loss_.collect_expired(now, base_us);
      if (!expired.empty()) {
        for (std::size_t i = 0; i < expired.size(); i += kMaxNakRanges) {
          const std::size_t m = std::min(kMaxNakRanges, expired.size() - i);
          send_nak({expired.data() + i, m});
        }
      }
    }
  }

  // Message-TTL sweep: expire finite-TTL messages whose delivery deadline
  // passed before full acknowledgment.  The cached min deadline makes the
  // idle check one compare.
  if (!snd_msgs_.empty() && now >= snd_msg_deadline_us_) sweep_msg_ttl(now);

  // Zero-window persist probe (TCP persist-timer analogue): while the peer
  // advertises no buffer space and we hold undelivered data, poke it with
  // keepalives on an exponential backoff — the reopening window update
  // carries no data, so if it is lost nothing else would ever re-elicit it
  // and sender and receiver would deadlock staring at each other.
  if (zw_probe_backoff_us_ > 0 && peer_avail_pkts_ <= 0.0 &&
      now >= next_zw_probe_us_) {
    if (snd_buffer_.end_index() > snd_next_) {
      send_ctrl_simple(CtrlType::kKeepAlive);
      ++stats_.zero_window_probes;
      // The backoff advances only when a probe is actually sent: a quiet
      // closed window (nothing queued yet) must not pre-age the interval,
      // or data queued later could wait the full cap for its first probe
      // instead of one SYN.
      zw_probe_backoff_us_ =
          std::min<std::uint64_t>(zw_probe_backoff_us_ * 2, kZwProbeCapUs);
    }
    next_zw_probe_us_ = now + zw_probe_backoff_us_;
  }

  // EXP timer: nothing heard from the peer for a growing expiration period.
  // The backoff factor doubles per consecutive timeout and caps at 16
  // (§3.5, congestion-collapse avoidance).
  const double rtt = cc_->last_rtt_s();
  const double base = std::max(opts_.min_exp_timeout_s, 4.0 * rtt);
  const double factor = std::min(1 << std::min(consecutive_timeouts_, 4), 16);
  const auto exp_us = static_cast<std::uint64_t>(base * factor * 1e6);
  if (now - last_ctrl_us_ >= exp_us) {
    last_ctrl_us_ = now;
    if (snd_next_ > snd_una_ || !snd_loss_.empty()) {
      ++consecutive_timeouts_;
      ++stats_.timeouts;
      if (consecutive_timeouts_ > opts_.max_exp_timeouts) {
        // The escalation budget is spent: every retransmission into the
        // void went unanswered.  Declaring the connection broken beats
        // retrying forever with callers blocked.
        declare_broken();
        return;
      }
      cc_->set_now(static_cast<double>(now) * 1e-6);
      cc_->on_timeout();
      if (snd_next_ > snd_una_) {
        snd_loss_.insert(seq_of(snd_una_), seq_of(snd_next_ - 1));
      }
      // An unacknowledged drop record means the peer may never have seen
      // the kMsgDrop (it is unreliable on its own): every EXP re-sends the
      // outstanding ones, so a sealed-hole ACK is eventually elicited.
      for (const auto& rec : snd_dropped_) {
        if (rec.last >= snd_una_) {
          send_msg_drop(rec.msg_no, rec.first, rec.last);
        }
      }
      wake_sender();
    } else {
      // Idle (nothing unacknowledged): not a timeout at all.  Emit a
      // keepalive so the peer's EXP timer stays re-armed too.
      send_ctrl_simple(CtrlType::kKeepAlive);
      ++stats_.keepalives_sent;
    }
  }
}

void Socket::sweep_msg_ttl(std::uint64_t now) {
  bool dropped_any = false;
  for (auto it = snd_msgs_.begin(); it != snd_msgs_.end();) {
    if (it->last < snd_una_) {  // fully acknowledged: delivered in time
      it = snd_msgs_.erase(it);
      continue;
    }
    if (now < it->deadline_us) {
      ++it;
      continue;
    }
    // Expired with unacknowledged packets: free the payload, stop every
    // (re)transmission of the remainder, and tell the peer to seal the
    // whole range — partially-delivered slots included, since a partial
    // message must never reach the application.
    const std::int64_t live_first = std::max(it->first, snd_una_);
    snd_buffer_.mark_dead(live_first, it->last + 1);
    snd_loss_.remove_range(seq_of(live_first), seq_of(it->last));
    send_msg_drop(it->msg_no, it->first, it->last);
    snd_dropped_.push_back(*it);
    ++stats_.msgs_dropped_ttl;
    mux_->note_msgs_dropped_ttl();
    dropped_any = true;
    it = snd_msgs_.erase(it);
  }
  // snd_next_ must never rest on a dead chunk: nothing would ever be
  // transmitted from there, while the receiver's post-seal ACK can already
  // lie beyond it — and an ACK outside [snd_una_, snd_next_] is discarded
  // as forged.  Advance window-free (dead chunks send nothing).
  const std::int64_t end = snd_buffer_.end_index();
  while (snd_next_ < end && snd_buffer_.is_dead(snd_next_)) ++snd_next_;
  // Recompute the cached min deadline over the survivors.
  snd_msg_deadline_us_ = UINT64_MAX;
  for (const auto& r : snd_msgs_) {
    snd_msg_deadline_us_ = std::min(snd_msg_deadline_us_, r.deadline_us);
  }
  if (dropped_any) {
    // mark_dead released buffer bytes: senders blocked on space can run.
    app_snd_cv_.notify_all();
    wake_sender();
    poke_watchers();
  }
}

void Socket::send_msg_drop(std::uint32_t msg_no, std::int64_t first,
                           std::int64_t last) {
  std::array<std::uint8_t, kHeaderBytes + 4 * MsgDropPayload::kWords> buf{};
  CtrlHeader hdr;
  hdr.type = CtrlType::kMsgDrop;
  hdr.info = msg_no & kMsgNoMask;
  hdr.timestamp_us = static_cast<std::uint32_t>(now_us());
  hdr.dst_socket = peer_socket_id_;
  write_ctrl_header(buf, hdr);
  MsgDropPayload p;
  p.first = seq_of(first);
  p.last = seq_of(last);
  encode_msg_drop_payload(std::span{buf}.subspan(kHeaderBytes), p);
  ++stats_.msg_drop_ctrl_sent;
  mux_->note_msg_drop_sent();
  net_->send_to(peer_, buf);
}

void Socket::declare_broken() {
  state_ = ConnState::kBroken;
  last_error_ = SocketError::kConnectionBroken;
  running_ = false;
  app_snd_cv_.notify_all();
  app_rcv_cv_.notify_all();
  poke_watchers();
}

void Socket::send_ack(bool light) {
  std::array<std::uint8_t, kHeaderBytes + 4 * AckPayload::kWords> buf{};
  CtrlHeader hdr;
  hdr.type = CtrlType::kAck;
  // Full-ACK ids skip 0, which is what marks a light ACK on the wire.
  const std::int32_t ack_id = light ? 0 : next_ack_id_++;
  if (next_ack_id_ <= 0) next_ack_id_ = 1;
  hdr.info = static_cast<std::uint32_t>(ack_id);
  hdr.timestamp_us = static_cast<std::uint32_t>(now_us());
  hdr.dst_socket = peer_socket_id_;
  write_ctrl_header(buf, hdr);

  const std::int64_t ack_index = rcv_buffer_.contiguous_end();
  std::array<std::uint32_t, AckPayload::kWords> words{};
  words[0] = static_cast<std::uint32_t>(seq_of(ack_index).value());
  if (light) {
    ++stats_.light_acks_sent;
  } else {
    words[1] = static_cast<std::uint32_t>(rtt_s_ * 1e6);
    words[2] = static_cast<std::uint32_t>(rtt_s_ * 0.5e6);
    // The advertised window is the truth, zero included: the old
    // max(avail,2) floor meant flow control could never fully close, and a
    // full receiver got overrun (arrivals past window_end are silently
    // dropped).  The sender-side persist probe + our drain-triggered window
    // update make the zero advertisement safe against deadlock.
    const std::int32_t avail = std::max(rcv_buffer_.avail_packets(), 0);
    words[3] = static_cast<std::uint32_t>(avail);
    advertised_zero_ = avail == 0;
    words[4] = static_cast<std::uint32_t>(speed_.packets_per_second());
    words[5] = static_cast<std::uint32_t>(pair_.capacity_packets_per_second());
    ack_times_[static_cast<std::size_t>(ack_id) % ack_times_.size()] = {
        ack_id, now_us()};
    ++stats_.acks_sent;
  }
  write_words(std::span{buf}.subspan(kHeaderBytes), words);
  net_->send_to(peer_, buf);
}

void Socket::ack_on_drain() {
  const std::int64_t point = rcv_buffer_.contiguous_end();
  if (advertised_zero_ && rcv_buffer_.avail_packets() > 0) {
    // After advertising a closed window, the drain that reopens it must
    // announce itself at once: the ACK timer only fires on new data or ack
    // movement, neither of which happens while the sender is halted.
    send_ack();
    last_acked_index_ = point;
    data_since_ack_ = false;
  } else if (point - last_acked_index_ >= kLightAckBytes / opts_.mss_bytes) {
    // data_since_ack_ stays set: the next SYN still sends the full ACK the
    // controller is clocked by.
    send_ack(/*light=*/true);
    last_acked_index_ = point;
  }
}

void Socket::send_nak(
    std::span<const std::pair<udtr::SeqNo, udtr::SeqNo>> ranges) {
  const auto words = encode_loss_ranges(ranges);
  std::vector<std::uint8_t> buf(kHeaderBytes + 4 * words.size());
  CtrlHeader hdr;
  hdr.type = CtrlType::kNak;
  hdr.timestamp_us = static_cast<std::uint32_t>(now_us());
  hdr.dst_socket = peer_socket_id_;
  write_ctrl_header(buf, hdr);
  write_words(std::span{buf}.subspan(kHeaderBytes), words);
  ++stats_.naks_sent;
  net_->send_to(peer_, buf);
}

void Socket::send_ctrl_simple(CtrlType type, std::uint32_t info) {
  std::array<std::uint8_t, kHeaderBytes> buf{};
  CtrlHeader hdr;
  hdr.type = type;
  hdr.info = info;
  hdr.timestamp_us = static_cast<std::uint32_t>(now_us());
  hdr.dst_socket = peer_socket_id_;
  write_ctrl_header(buf, hdr);
  net_->send_to(peer_, buf);
}

// ---------------------------------------------------------------- API ---

std::size_t Socket::send(std::span<const std::uint8_t> data) {
  Profiler* prof = opts_.enable_profiler ? &profiler_ : nullptr;
  std::unique_lock lk{state_mu_};
  // A message socket must reject stream writes outright: send()'s partial
  // writes could splice loose bytes between two packets of an in-flight
  // multi-packet message, corrupting its reassembly at the receiver.
  if (snd_mode_ == XferMode::kMessage) return 0;
  snd_mode_ = XferMode::kStream;
  std::size_t total = 0;
  while (total < data.size() && running_) {
    std::size_t n;
    {
      ScopedTimer t{prof, ProfUnit::kAppInteraction};
      n = snd_buffer_.add(data.subspan(total));
      if (prof != nullptr) {
        profiler_.add_bytes(ProfUnit::kAppInteraction, n);
      }
    }
    total += n;
    if (n > 0) wake_sender();
    if (total < data.size()) {
      app_snd_cv_.wait_for(lk, std::chrono::milliseconds{100});
    }
  }
  stats_.bytes_sent += total;
  return total;
}

std::size_t Socket::send_overlapped(std::span<const std::uint8_t> data,
                                    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lk{state_mu_};
  if (snd_mode_ == XferMode::kMessage) return 0;  // see send()
  snd_mode_ = XferMode::kStream;
  std::size_t total = 0;
  const std::int64_t first_index = snd_buffer_.end_index();
  std::int64_t last_index = first_index;
  while (total < data.size() && running_) {
    const std::size_t n = snd_buffer_.add_borrowed(data.subspan(total));
    total += n;
    last_index = snd_buffer_.end_index();
    if (n > 0) wake_sender();
    if (total < data.size()) {
      if (app_snd_cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
    }
  }
  // The caller's buffer must stay borrowed until every chunk is
  // acknowledged — AND until no in-flight sender syscall still holds iovecs
  // into it (pinned_below) — block here so returning implies the memory is
  // free.
  while (running_ &&
         (snd_una_ < last_index || snd_buffer_.pinned_below(last_index))) {
    if (std::chrono::steady_clock::now() < deadline) {
      app_snd_cv_.wait_until(lk, deadline);
    } else {
      // Past the deadline with caller memory still referenced: the only
      // safe exit is for the in-flight window to drain or the socket to
      // die.  A wait_until on the stale deadline would return immediately
      // and spin a core; re-arm periodically instead and rely on the ACK /
      // broken-state notifications to end the wait early.
      app_snd_cv_.wait_for(lk, std::chrono::milliseconds{100});
    }
  }
  // Chunks are not all MSS-sized (a short tail, or a cut where the buffer
  // had less than one MSS of room), so count the unacknowledged bytes
  // chunk by chunk rather than assuming full packets.
  std::size_t unacked = 0;
  for (std::int64_t i = std::max(snd_una_, first_index); i < last_index; ++i) {
    if (const auto c = snd_buffer_.chunk(i)) unacked += c->size();
  }
  const std::size_t acked = total - std::min(total, unacked);
  stats_.bytes_sent += acked;
  return acked;
}

std::size_t Socket::recv(std::span<std::uint8_t> out,
                         std::chrono::milliseconds timeout) {
  Profiler* prof = opts_.enable_profiler ? &profiler_ : nullptr;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lk{state_mu_};
  while (running_) {
    std::size_t n;
    {
      ScopedTimer t{prof, ProfUnit::kAppInteraction};
      n = rcv_buffer_.read(out);
      if (prof != nullptr) {
        profiler_.add_bytes(ProfUnit::kAppInteraction, n);
      }
    }
    if (n > 0) {
      ack_on_drain();
      stats_.bytes_delivered += n;
      return n;
    }
    if (peer_shutdown_) return 0;

    if (out.size() >= static_cast<std::size_t>(4 * opts_.mss_bytes)) {
      // Overlapped IO: arm the user buffer as the protocol buffer's logical
      // extension; in-order arrivals land here directly (§4.3, Fig. 10).
      const std::size_t drained = rcv_buffer_.register_user_buffer(out);
      if (prof != nullptr && drained > 0) {
        profiler_.add_bytes(ProfUnit::kAppInteraction, drained);
      }
      app_rcv_cv_.wait_until(lk, deadline, [&] {
        return !running_ || peer_shutdown_ ||
               rcv_buffer_.user_buffer_filled() > 0;
      });
      const std::size_t filled = rcv_buffer_.release_user_buffer();
      if (filled > 0) {
        ack_on_drain();
        stats_.bytes_delivered += filled;
        return filled;
      }
      if (peer_shutdown_ || std::chrono::steady_clock::now() >= deadline) {
        return 0;
      }
    } else {
      if (!app_rcv_cv_.wait_until(lk, deadline, [&] {
            return !running_ || peer_shutdown_ ||
                   rcv_buffer_.readable_bytes() > 0;
          })) {
        return 0;
      }
    }
  }
  return 0;
}

std::size_t Socket::sendmsg(std::span<const std::uint8_t> data,
                            std::chrono::milliseconds ttl, bool in_order) {
  const auto mss = static_cast<std::size_t>(opts_.mss_bytes);
  const std::size_t max_bytes =
      mss * static_cast<std::size_t>(std::max(opts_.max_msg_pkts, 1));
  bool tighten = false;
  {
    std::unique_lock lk{state_mu_};
    if (data.empty() || data.size() > max_bytes ||
        data.size() > snd_buffer_.free_bytes() + snd_buffer_.bytes()) {
      return 0;  // empty, over max_msg_pkts, or can never fit the buffer
    }
    // A stream socket must not grow message framing mid-stream (and vice
    // versa): the first send()/sendmsg() latches the direction for life.
    if (snd_mode_ == XferMode::kStream) return 0;
    snd_mode_ = XferMode::kMessage;
    // All-or-nothing admission: a message is never split across waits, so
    // block until the whole payload fits.
    while (running_ && snd_buffer_.free_bytes() < data.size()) {
      app_snd_cv_.wait_for(lk, std::chrono::milliseconds{100});
    }
    if (!running_) return 0;
    const std::uint32_t msg_no = next_msg_no_;
    next_msg_no_ = next_msg_no_ % kMsgNoMask + 1;  // wrap skipping 0
    const std::int64_t first = snd_buffer_.end_index();
    if (snd_buffer_.add_message(data, msg_no, in_order) == 0) return 0;
    const std::int64_t last = snd_buffer_.end_index() - 1;
    if (ttl.count() > 0) {
      const std::uint64_t deadline =
          now_us() +
          static_cast<std::uint64_t>(ttl.count()) * 1000;
      snd_msgs_.push_back({msg_no, first, last, deadline});
      if (deadline < snd_msg_deadline_us_) {
        snd_msg_deadline_us_ = deadline;
        tighten = true;
      }
    }
    ++stats_.msgs_sent;
    stats_.bytes_sent += data.size();
    mux_->note_msgs_sent();
    wake_sender();
  }
  // A deadline earlier than anything the wheel knows about needs the wheel
  // entry re-armed, or an otherwise-idle socket sweeps too late.  Outside
  // state_mu_: the wheel mutex is a leaf, never taken with ours held.
  if (tighten) mux_->arm_timer(this);
  return data.size();
}

std::size_t Socket::recvmsg(std::span<std::uint8_t> out,
                            std::chrono::milliseconds timeout) {
  // An empty out could not distinguish "empty read" from timeout — and
  // read_msg would still consume a message to fill it.  Refuse up front.
  if (out.empty()) return 0;
  Profiler* prof = opts_.enable_profiler ? &profiler_ : nullptr;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lk{state_mu_};
  while (running_) {
    if (rcv_buffer_.msg_ready()) {
      std::size_t n;
      {
        ScopedTimer t{prof, ProfUnit::kAppInteraction};
        n = rcv_buffer_.read_msg(out);
        if (prof != nullptr) {
          profiler_.add_bytes(ProfUnit::kAppInteraction, n);
        }
      }
      if (n > 0) {
        ack_on_drain();
        stats_.bytes_delivered += n;
        ++stats_.msgs_delivered;
        mux_->note_msgs_delivered();
        return n;
      }
    }
    if (peer_shutdown_) return 0;
    if (!app_rcv_cv_.wait_until(lk, deadline, [&] {
          return !running_ || peer_shutdown_ || rcv_buffer_.msg_ready();
        })) {
      return 0;
    }
  }
  return 0;
}

std::uint64_t Socket::sendfile(const std::string& path, std::uint64_t offset,
                               std::uint64_t length) {
  {
    std::unique_lock lk{state_mu_};
    if (snd_mode_ == XferMode::kMessage) return 0;  // see send()
    if (!running_) return 0;
  }
  FileSource::Config cfg;
  cfg.chunk_bytes = opts_.file_chunk_bytes;
  cfg.ring_chunks = opts_.file_ring_chunks;
  cfg.payload_quantum = opts_.mss_bytes;
  cfg.throttle_mbps = opts_.file_disk_read_mbps;
  FileSource src{path, offset, length, cfg};
  if (!src.ok()) {
    last_error_ = SocketError::kFileIo;
    return 0;
  }

  // Ring chunks whose packets are still in the send buffer, in admission
  // (and thus acknowledgment) order: front recycles once the cumulative ACK
  // passed its last packet AND no in-flight syscall pins can still hold
  // iovecs into it — exactly send_overlapped's release discipline.
  struct InFlight {
    int id;
    std::int64_t end;  // snd_buffer_ end_index after this chunk's admission
  };
  std::deque<InFlight> inflight;
  const auto recycle_released = [&] {  // state_mu_ held
    while (!inflight.empty() && snd_una_ >= inflight.front().end &&
           !snd_buffer_.pinned_below(inflight.front().end)) {
      src.recycle(inflight.front().id);
      inflight.pop_front();
    }
  };
  // Recycle from the ACK/unpin paths too: while the pump below is blocked
  // in src.next() waiting for the disk, a dry ring must refill the instant
  // the ACK clock releases chunks — otherwise reader and pump deadlock
  // against each other until a timeout, collapsing the pipeline to one
  // ring-ful per timeout period.
  {
    std::lock_guard lk{state_mu_};
    snd_release_hook_ = recycle_released;
  }

  std::uint64_t accepted = 0;
  while (running_) {
    auto c = src.next(std::chrono::milliseconds{100});
    if (!c) {
      if (src.io_error()) {
        last_error_ = SocketError::kFileIo;
        break;
      }
      if (src.done()) break;
      // Reader momentarily behind (ring dry or a slow disk): recycle what
      // the ACK clock released and wait for the next chunk.
      std::unique_lock lk{state_mu_};
      recycle_released();
      continue;
    }
    std::unique_lock lk{state_mu_};
    snd_mode_ = XferMode::kStream;
    std::size_t added = 0;
    while (running_ && added < c->len) {
      const std::size_t n = snd_buffer_.add_borrowed(
          std::span{c->data + added, c->len - added});
      added += n;
      if (n > 0) wake_sender();
      recycle_released();
      if (added < c->len) {
        app_snd_cv_.wait_for(lk, std::chrono::milliseconds{100});
      }
    }
    accepted += added;
    stats_.bytes_sent += added;
    inflight.push_back(InFlight{c->id, snd_buffer_.end_index()});
    recycle_released();
    if (added < c->len) break;  // socket died mid-chunk
  }
  src.stop();

  const bool flushed = flush(file_deadline_ms());
  std::uint64_t delivered = accepted;
  {
    std::unique_lock lk{state_mu_};
    if (flushed) {
      // Everything is acknowledged; only in-flight syscall pins can still
      // reference chunk memory, and those complete in microseconds.
      while (!inflight.empty()) {
        recycle_released();
        if (inflight.empty()) break;
        app_snd_cv_.wait_for(lk, std::chrono::milliseconds{10});
      }
    } else {
      // Flush deadline passed (or the socket died) with the tail
      // unacknowledged.  The ring chunks cannot be freed while the buffer
      // views them, and blocking until the peer drains could hang forever —
      // so copy the still-referenced tail into buffer-owned storage and
      // wait only for the in-flight pins.
      snd_buffer_.disown_views(snd_buffer_.first_index(),
                               snd_buffer_.end_index());
      const std::int64_t last_end =
          inflight.empty() ? 0 : inflight.back().end;
      const auto pin_cap =
          std::chrono::steady_clock::now() + std::chrono::seconds{2};
      while (snd_buffer_.pinned_below(last_end) &&
             std::chrono::steady_clock::now() < pin_cap) {
        app_snd_cv_.wait_for(lk, std::chrono::milliseconds{10});
      }
      inflight.clear();  // chunk storage is no longer referenced
      const auto unacked = static_cast<std::uint64_t>(snd_buffer_.bytes());
      delivered -= std::min(delivered, unacked);
    }
    snd_release_hook_ = nullptr;  // before src/inflight leave scope
  }
  return delivered;
}

std::uint64_t Socket::recvfile(const std::string& path,
                               std::uint64_t length) {
  FileSink::Config cfg;
  cfg.throttle_mbps = opts_.file_disk_write_mbps;
  cfg.queue_max_bytes =
      std::max<std::size_t>(opts_.file_chunk_bytes *
                                static_cast<std::size_t>(std::max(
                                    opts_.file_ring_chunks, 1)),
                            std::size_t{1} << 20);
  FileSink sink{path, length, cfg};
  std::uint64_t taken = 0;
  bool disk_ok = true;
  bool timed_out = false;
  std::vector<RcvBuffer::Taken> batch;
  std::size_t batch_bytes = 0;
  // Coalesce takes into batches of this size before paying an enqueue.  At
  // matched disk/wire rates the sink queue never backs up, so every enqueue
  // costs a writer wakeup and a positional write; handing it arrival-sized
  // crumbs (a few packets per wake) would burn a context switch and a
  // syscall per few KB.
  const std::size_t coalesce_bytes =
      std::min<std::size_t>(cfg.queue_max_bytes / 2, std::size_t{1} << 20);
  const auto flush_batch = [&] {
    if (batch.empty()) return true;
    batch_bytes = 0;
    const bool ok = sink.enqueue(std::move(batch));
    batch.clear();
    return ok;
  };
  while (taken < length && running_) {
    bool stream_idle = false;
    {
      std::unique_lock lk{state_mu_};
      const std::size_t n = rcv_buffer_.take_stream(
          static_cast<std::size_t>(
              std::min<std::uint64_t>(length - taken,
                                      std::numeric_limits<std::size_t>::max())),
          batch);
      if (n == 0) {
        if (peer_shutdown_) break;
        if (batch.empty()) {
          // Nothing to announce here (no drain happened), just wait for
          // data bounded by the progress deadline.
          const bool sig = app_rcv_cv_.wait_for(lk, file_deadline_ms(), [&] {
            return !running_ || peer_shutdown_ ||
                   rcv_buffer_.readable_bytes() > 0;
          });
          if (!sig) {
            timed_out = true;
            break;
          }
          continue;
        }
        // Bytes in hand but the buffer ran dry: give the next arrival burst
        // a short window to extend the batch; flush only if it stays dry.
        app_rcv_cv_.wait_for(lk, std::chrono::milliseconds{2}, [&] {
          return !running_ || peer_shutdown_ ||
                 rcv_buffer_.readable_bytes() > 0;
        });
        stream_idle = rcv_buffer_.readable_bytes() == 0;
      } else {
        ack_on_drain();
        stats_.bytes_delivered += n;
        taken += n;
        batch_bytes += n;
      }
    }
    // Queue for write-behind outside the socket lock: enqueue blocks on the
    // sink's byte cap, which is precisely how a slow disk backs up into the
    // protocol's flow-control window.
    if ((batch_bytes >= coalesce_bytes || stream_idle || taken >= length) &&
        !flush_batch()) {
      disk_ok = false;
      break;
    }
  }
  if (!flush_batch()) disk_ok = false;
  const bool sunk = sink.finish(length == 0) && disk_ok;
  const std::uint64_t written = sink.bytes_written();
  if (!sunk) {
    last_error_ = SocketError::kFileIo;
  } else if (written >= length) {
    last_error_ = SocketError::kNone;
  } else if (broken()) {
    // kConnectionBroken already surfaced.
  } else if (timed_out) {
    last_error_ = SocketError::kRecvTimeout;
  } else {
    last_error_ = SocketError::kRecvTruncated;
  }
  return written;
}

bool Socket::flush(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lk{state_mu_};
  while (running_) {
    if (snd_una_ >= snd_buffer_.end_index() && snd_loss_.empty()) return true;
    if (app_snd_cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
        std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
  }
  return false;
}

void Socket::close() {
  // Serialized end to end: close() racing itself (two app threads, or an
  // explicit close racing the destructor) must not reach the multiplexer
  // detach twice.
  std::lock_guard close_lk{close_mu_};
  // Linger: give in-flight data a bounded chance to be acknowledged while
  // the service threads are still alive; a close right after send() must
  // not silently discard the tail of the stream.
  if (mode_ == Mode::kConnected && running_ &&
      state_ == ConnState::kEstablished) {
    state_ = ConnState::kClosing;
    if (opts_.linger_s > 0.0) {
      flush(std::chrono::milliseconds{
          static_cast<std::int64_t>(opts_.linger_s * 1e3)});
    }
  }
  const bool was_running = running_.exchange(false);
  if (mode_ == Mode::kConnected && was_running &&
      state_ != ConnState::kBroken) {
    // Repeat the shutdown: it has no acknowledgment, and a peer that misses
    // all copies only discovers the close through its EXP budget.
    for (int i = 0; i < kShutdownRepeat; ++i) {
      send_ctrl_simple(CtrlType::kShutdown);
      if (i + 1 < kShutdownRepeat) std::this_thread::sleep_for(kShutdownGap);
    }
  }
  app_snd_cv_.notify_all();
  app_rcv_cv_.notify_all();
  // Null only when listen()/connect() failed before attaching.
  if (mux_) {
    // detach() returns only when no multiplexer service thread still
    // references this socket.  mux_ itself is kept (not reset): it pins the
    // port, the channel and the shared receive slab for late diagnostics
    // and slab-ref releases.
    mux_->detach(this);
  }
  if (state_ != ConnState::kBroken) state_ = ConnState::kClosed;
  poke_watchers();
}

int Socket::consecutive_exp_timeouts() const {
  std::unique_lock lk{state_mu_};
  return consecutive_timeouts_;
}

PerfStats Socket::perf() const {
  std::unique_lock lk{state_mu_};
  PerfStats p = stats_;
  if (mode_ == Mode::kListener) {
    // The admission/cookie counters live in the port-global multiplexer
    // state, not in the listener socket.
    p.accept_queue_drops = mux_->accept_queue_drops();
    p.handshake_admission_drops = mux_->handshake_admission_drops();
    p.handshake_cookie_rejects =
        mux_->cookie_rejects() + mux_->cookie_expired();
  }
  p.rtt_ms = (rtt_s_ > 0.0 ? rtt_s_ : cc_->last_rtt_s()) * 1e3;
  const double wire_bits = (opts_.mss_bytes + kHeaderBytes) * 8.0;
  p.capacity_mbps = pair_.capacity_packets_per_second() * wire_bits / 1e6;
  p.recv_rate_mbps = speed_.packets_per_second() * wire_bits / 1e6;
  p.send_period_us = cc_->pkt_send_period_s() * 1e6;
  p.window_pkts = cc_->window_packets();
  p.peer_window_pkts = peer_ack_seen_ ? peer_avail_pkts_ : 0.0;
  p.cc_name = cc_->name();
  return p;
}

}  // namespace udtr::udt
