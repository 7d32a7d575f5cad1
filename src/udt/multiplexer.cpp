#include "udt/multiplexer.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>

namespace udtr::udt {

namespace {

// Receive slots must hold a whole GRO super-datagram when coalescing is on
// (a short buffer makes the kernel truncate the burst), one wire packet
// plus headroom otherwise.
constexpr std::size_t kGroSlotBytes = 65535;

[[nodiscard]] std::size_t plain_slot_bytes(int mss_bytes) {
  return static_cast<std::size_t>(mss_bytes) + kHeaderBytes + 64;
}

[[nodiscard]] bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && *v != '0';
}

[[nodiscard]] std::int64_t to_ns(Multiplexer::Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// Identifies the shard whose rx thread is the caller: the one producer the
// shard's SPSC wakeup ring is allowed to have.  Every other thread kicking
// a socket on that shard must take the mutex-protected pending list.
thread_local const void* t_rx_shard = nullptr;

// Process-wide registry of live multiplexers.  Weak pointers: a multiplexer
// lives exactly as long as some socket holds it, and expired entries are
// pruned on the next lookup.
std::mutex g_registry_mu;
std::vector<std::weak_ptr<Multiplexer>> g_registry;

void registry_add(const std::shared_ptr<Multiplexer>& m) {
  std::lock_guard lk{g_registry_mu};
  std::erase_if(g_registry, [](const auto& w) { return w.expired(); });
  g_registry.push_back(m);
}

}  // namespace

void send_handshake_packet(UdpChannel& ch, const Endpoint& to,
                           std::uint32_t dst_id, const HandshakePayload& h) {
  std::array<std::uint8_t,
             kHeaderBytes + 4 * HandshakePayload::kWordsWithCookie>
      buf{};
  CtrlHeader hdr;
  hdr.type = CtrlType::kHandshake;
  hdr.dst_socket = dst_id;
  write_ctrl_header(buf, hdr);
  encode_handshake_payload(std::span{buf}.subspan(kHeaderBytes), h);
  ch.send_to(to, buf);
}

std::size_t resolve_mux_shards(const SocketOptions& opts) {
  long n = 0;
  if (opts.mux_shards > 0) {
    n = opts.mux_shards;
  } else if (const char* e = std::getenv("UDTR_MUX_SHARDS");
             e != nullptr && *e != '\0') {
    n = std::atol(e);
  } else {
    const auto hw = static_cast<long>(std::thread::hardware_concurrency());
    n = std::min<long>(4, std::max<long>(1, hw / 2));
  }
  return static_cast<std::size_t>(
      std::clamp<long>(n, 1, static_cast<long>(Multiplexer::kMaxMuxShards)));
}

Multiplexer::Multiplexer(Private, const SocketOptions& opts) : cfg_(opts) {
  io_batch_ = std::clamp(opts.io_batch, 1, 64);
  AdmissionConfig ac;
  ac.rate_per_ip = std::max(1.0, opts.handshake_rate_per_ip);
  ac.burst_per_ip = std::max(1.0, opts.handshake_burst_per_ip);
  ac.max_pending_per_ip = std::max(1, opts.max_pending_per_ip);
  ac.max_tracked_ips =
      static_cast<std::size_t>(std::max(16, opts.max_tracked_ips));
  admission_ = std::make_unique<AdmissionControl>(ac);
}

Multiplexer::~Multiplexer() {
  running_ = false;
  for (auto& sh : shards_) {
    {
      std::lock_guard lk{sh->pending_mu};
    }
    sh->tx_cv.notify_all();
  }
  {
    std::lock_guard lk{hs_mu_};
  }
  hs_cv_.notify_all();
  for (auto& sh : shards_) {
    if (sh->rx_thread.joinable()) sh->rx_thread.join();
    if (sh->tx_thread.joinable()) sh->tx_thread.join();
  }
  for (auto& sh : shards_) {
    if (sh->channel) sh->channel->close();
  }
}

std::shared_ptr<Multiplexer> Multiplexer::open(std::uint16_t port,
                                               const SocketOptions& opts) {
  // Multi-shard mode binds with SO_REUSEPORT, which would happily share a
  // port another multiplexer in this process already owns; an in-use port
  // must stay a bind failure (single-shard semantics), so consult the
  // registry before touching the kernel.
  if (port != 0 && find(port) != nullptr) return nullptr;
  auto m = std::make_shared<Multiplexer>(Private{}, opts);
  const std::size_t want = resolve_mux_shards(opts);
  const bool try_reuseport = want > 1 && !env_flag("UDTR_NO_REUSEPORT");

  auto s0 = std::make_unique<Shard>();
  s0->index = 0;
  s0->channel = std::make_unique<UdpChannel>();
  if (!s0->channel->open(port, try_reuseport)) return nullptr;
  const std::uint16_t bound = s0->channel->local_port();
  m->shards_.push_back(std::move(s0));

  if (try_reuseport) {
    bool ok = true;
    for (std::size_t i = 1; i < want; ++i) {
      auto sh = std::make_unique<Shard>();
      sh->index = i;
      sh->channel = std::make_unique<UdpChannel>();
      if (!sh->channel->open(bound, true)) {
        ok = false;
        break;
      }
      m->shards_.push_back(std::move(sh));
    }
    // The steering program divides by the *intended* group size, so it must
    // only go live once every member is bound: a program selecting an index
    // beyond the group makes the kernel drop the datagram outright.
    if (ok) {
      ok = m->shards_[0]->channel->attach_reuseport_steering(
          static_cast<unsigned>(want));
    }
    if (!ok) m->shards_.resize(1);  // closes the extra fds
    m->steered_ = ok;
  }
  if (!m->steered_ && want > 1) {
    // Software-demux fallback: one shared fd, every shard's rx thread
    // drains it, and dispatch() routes each datagram to the owning shard's
    // index — the same hash the BPF program would have computed.
    while (m->shards_.size() < want) {
      auto sh = std::make_unique<Shard>();
      sh->index = m->shards_.size();
      m->shards_.push_back(std::move(sh));
    }
  }
  for (auto& sh : m->shards_) {
    sh->io = sh->channel ? sh->channel.get() : m->shards_[0]->channel.get();
  }
  m->start();
  registry_add(m);
  return m;
}

std::shared_ptr<Multiplexer> Multiplexer::for_client(
    const SocketOptions& opts) {
  {
    std::lock_guard lk{g_registry_mu};
    for (const auto& w : g_registry) {
      auto m = w.lock();
      if (m && m->client_shared_ && m->compatible(opts)) return m;
    }
  }
  auto m = open(0, opts);
  if (m) m->client_shared_ = true;
  return m;
}

std::shared_ptr<Multiplexer> Multiplexer::find(std::uint16_t port) {
  std::lock_guard lk{g_registry_mu};
  for (const auto& w : g_registry) {
    auto m = w.lock();
    if (m && m->local_port() == port) return m;
  }
  return nullptr;
}

void Multiplexer::start() {
  const auto rcv_timeout = std::chrono::microseconds{
      static_cast<std::int64_t>(cfg_.syn_s * 1e6 / 2)};
  bool any_gro = false;
  for (auto& sh : shards_) {
    if (!sh->channel) continue;
    // One injector instance across the shard fds: faults stay per logical
    // datagram and the drop/duplicate accounting stays coherent no matter
    // which shard's fd carried the packet.
    if (cfg_.faults) sh->channel->set_fault_injector(cfg_.faults);
    sh->channel->set_recv_timeout(rcv_timeout);
    sh->channel->set_buffer_sizes(4 << 20, 8 << 20);
    if (cfg_.gso && sh->channel->enable_gro()) any_gro = true;
  }
  gro_ = any_gro;
  // Slot sizing keys off whether *any* fd may deliver coalesced buffers —
  // a short slot would make the kernel truncate a GRO burst.
  slot_bytes_ = gro_ ? kGroSlotBytes : plain_slot_bytes(cfg_.mss_bytes);
  const auto max_batch = static_cast<std::size_t>(io_batch_);
  const std::size_t slot_count =
      gro_ ? max_batch * 4 : std::max<std::size_t>(512, max_batch * 4);
  syn_us_ = std::chrono::microseconds{
      static_cast<std::int64_t>(cfg_.syn_s * 1e6)};
  for (auto& sh : shards_) {
    sh->slab = std::make_shared<RecvSlab>(slot_bytes_, slot_count);
    sh->heap.reserve(256);
    sh->due_scratch.reserve(256);
  }
  running_ = true;
  for (auto& sh : shards_) {
    Shard* p = sh.get();
    p->rx_thread = std::thread([this, p] { rx_loop(*p); });
    p->tx_thread = std::thread([this, p] { tx_loop(*p); });
  }
}

bool Multiplexer::compatible(const SocketOptions& opts) const {
  return opts.faults == cfg_.faults &&
         std::clamp(opts.io_batch, 1, 64) == io_batch_ &&
         opts.gso == cfg_.gso && opts.syn_s == cfg_.syn_s &&
         plain_slot_bytes(opts.mss_bytes) <= slot_bytes_ &&
         resolve_mux_shards(opts) == shards_.size();
}

// ----------------------------------------------------------- attachment ---

void Multiplexer::attach(Socket* s) {
  Shard& sh = shard_for(s->socket_id_);
  s->mux_shard_ = static_cast<std::uint32_t>(sh.index);
  {
    std::unique_lock al{sh.attach_mu};
    sh.socks[s->socket_id_] = s;
  }
  arm_timer(s);
}

void Multiplexer::attach_child(Socket* s, const HandshakePayload& resp) {
  const HsKey key{s->peer_.ip_host_order, s->peer_.port, s->peer_socket_id_};
  attach(s);
  std::lock_guard lk{hs_mu_};
  child_resp_[key] = resp;
  // The request is no longer pending — and any duplicate already sitting in
  // the queue must not spawn a second socket for the same connection.
  if (pending_keys_.erase(key) > 0) {
    admission_->end_pending(std::get<0>(key));
  }
  std::erase_if(pending_, [&](const PendingHandshake& p) {
    return p.src.ip_host_order == std::get<0>(key) &&
           p.src.port == std::get<1>(key) &&
           p.req.socket_id == std::get<2>(key);
  });
}

void Multiplexer::detach(Socket* s) {
  Shard& sh = shard_for(s->socket_id_);
  {
    std::unique_lock al{sh.attach_mu};
    sh.socks.erase(s->socket_id_);
  }
  // After the erase no expiry can re-arm the socket (fire_timer's lookup
  // fails), so cancelling here leaves no stale wheel entry behind.
  sh.wheel.cancel(s->socket_id_);
  std::lock_guard lk{hs_mu_};
  if (listener_ == s) {
    listener_ = nullptr;
    // Release the per-source pending accounting for every half-open request
    // the departed listener will never consume.
    for (const HsKey& k : pending_keys_) {
      admission_->end_pending(std::get<0>(k));
    }
    pending_keys_.clear();
    pending_.clear();
    hs_cv_.notify_all();
    return;
  }
  const HsKey key{s->peer_.ip_host_order, s->peer_.port, s->peer_socket_id_};
  if (auto it = child_resp_.find(key);
      it != child_resp_.end() && it->second.socket_id == s->socket_id_) {
    // The child is gone; demote its response to the age+count bounded
    // memory so a straggling retransmit still gets an answer for a while.
    remember_answered(key, it->second);
    child_resp_.erase(it);
  }
}

void Multiplexer::arm_timer(Socket* s) {
  Shard& sh = shard_for(s->socket_id_);
  const auto now = Clock::now();
  s->wheel_deadline_ns_.store(to_ns(now), std::memory_order_relaxed);
  sh.wheel.schedule(s->socket_id_, now);
}

bool Multiplexer::attach_listener(Socket* s) {
  std::lock_guard lk{hs_mu_};
  if (listener_ != nullptr) return false;
  listener_ = s;
  return true;
}

std::optional<Multiplexer::PendingHandshake> Multiplexer::wait_handshake(
    std::chrono::milliseconds timeout) {
  std::unique_lock lk{hs_mu_};
  if (!hs_cv_.wait_for(lk, timeout,
                       [&] { return !pending_.empty() || !running_; })) {
    return std::nullopt;
  }
  if (pending_.empty()) return std::nullopt;
  PendingHandshake p = pending_.front();
  pending_.pop_front();
  // The key stays in pending_keys_ until attach_child/reject_handshake, so
  // a retransmit racing the accept decision is not queued twice.
  return p;
}

void Multiplexer::reject_handshake(const Endpoint& src,
                                   std::uint32_t peer_socket_id) {
  std::lock_guard lk{hs_mu_};
  if (pending_keys_.erase(
          HsKey{src.ip_host_order, src.port, peer_socket_id}) > 0) {
    admission_->end_pending(src.ip_host_order);
  }
}

std::size_t Multiplexer::attached_sockets() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    std::shared_lock al{sh->attach_mu};
    n += sh->socks.size();
  }
  return n;
}

std::size_t Multiplexer::remembered_handshakes() const {
  std::lock_guard lk{hs_mu_};
  return answered_.size() + child_resp_.size();
}

std::size_t Multiplexer::pending_handshakes() const {
  std::lock_guard lk{hs_mu_};
  return pending_.size();
}

std::size_t Multiplexer::admission_tracked_ips() const {
  std::lock_guard lk{hs_mu_};
  return admission_->tracked_ips();
}

std::shared_ptr<LossList::NodePool> Multiplexer::loss_pool(
    std::uint32_t socket_id) const {
  return shards_[socket_id % shards_.size()]->loss_pool;
}

std::uint64_t Multiplexer::timer_sweep_calls() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    n += sh->sweep_calls.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Multiplexer::timer_socket_sweeps() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    n += sh->socket_sweeps.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Multiplexer::send_syscalls() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    if (sh->channel) n += sh->channel->send_syscalls();
  }
  return n;
}

std::uint64_t Multiplexer::recv_syscalls() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    if (sh->channel) n += sh->channel->recv_syscalls();
  }
  return n;
}

std::uint64_t Multiplexer::kernel_rx_drops() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    if (sh->channel) n += sh->channel->kernel_rx_drops();
  }
  return n;
}

UdpChannel& Multiplexer::channel_for(std::uint32_t socket_id) {
  return *shard_for(socket_id).io;
}

const std::shared_ptr<RecvSlab>& Multiplexer::slab_for(
    std::uint32_t socket_id) const {
  return shards_[socket_id % shards_.size()]->slab;
}

// ------------------------------------------------------------ handshake ---

void Multiplexer::remember_answered(const HsKey& key,
                                    const HandshakePayload& resp) {
  answered_.put(key, resp, Clock::now());
}

void Multiplexer::evict_answered() { answered_.sweep(Clock::now()); }

void Multiplexer::handle_handshake(std::span<const std::uint8_t> pkt,
                                   const Endpoint& src) {
  const auto hdr = decode_ctrl_header(pkt);
  if (!hdr || hdr->type != CtrlType::kHandshake) {
    unroutable_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto req = decode_handshake_payload(pkt.subspan(kHeaderBytes));
  if (!req || req->request_type != kHsRequest) {
    unroutable_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const HsKey key{src.ip_host_order, src.port, req->socket_id};
  const auto now = Clock::now();
  const double now_s =
      std::chrono::duration<double>(now.time_since_epoch()).count();
  const auto now_sec = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(now.time_since_epoch())
          .count());
  std::unique_lock lk{hs_mu_};
  // A live child for this (address, socket id) answers authoritatively: the
  // earlier response was lost or is still in flight, and re-sending it is
  // what keeps a slow retransmit from ever spawning a ghost second socket.
  // Re-replies bypass the admission gates below on purpose — they cost no
  // state, and rate-limiting a legitimate retransmit would strand the peer.
  if (const auto it = child_resp_.find(key); it != child_resp_.end()) {
    const HandshakePayload resp = it->second;
    lk.unlock();
    send_handshake_packet(channel(), src, req->socket_id, resp);
    return;
  }
  if (const HandshakePayload* a = answered_.find(key); a != nullptr) {
    const HandshakePayload resp = *a;
    lk.unlock();
    send_handshake_packet(channel(), src, req->socket_id, resp);
    return;
  }
  if (listener_ == nullptr) return;  // nobody accepting on this port
  // Per-source token bucket: one source cannot monopolize the handshake
  // path's CPU (every packet past here costs at least a MAC computation).
  if (!admission_->allow_handshake(src.ip_host_order, now_s)) {
    admission_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Answers with a freshly signed cookie; hs_mu_ is released before the
  // send.
  const auto challenge = [&] {
    HandshakePayload c = *req;
    c.request_type = kHsChallenge;
    c.cookie = cookie_keys_.make(now_sec, src.ip_host_order, src.port, *req);
    lk.unlock();
    send_handshake_packet(channel(), src, req->socket_id, c);
  };
  if (req->cookie == 0) {
    // First contact: answer with a signed cookie and retain NOTHING.  A
    // spoofed source never sees the challenge, so it never reaches the
    // stateful path below.
    cookie_challenges_.fetch_add(1, std::memory_order_relaxed);
    challenge();
    return;
  }
  switch (cookie_keys_.verify(now_sec, src.ip_host_order, src.port, *req,
                              req->cookie)) {
    case CookieKeyring::Verdict::kValid:
      break;
    case CookieKeyring::Verdict::kExpired:
      // Stale but authentic: re-challenge so a slow client self-heals with
      // a fresh cookie instead of retransmitting into a black hole.
      cookie_expired_.fetch_add(1, std::memory_order_relaxed);
      challenge();
      return;
    case CookieKeyring::Verdict::kInvalid:
      cookie_rejects_.fetch_add(1, std::memory_order_relaxed);
      return;
  }
  if (pending_keys_.contains(key)) return;
  if (pending_.size() >= kMaxPendingHandshakes) {
    accept_queue_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Half-open cap: even with valid cookies, one source holds at most
  // max_pending_per_ip slots of the accept queue.
  if (!admission_->begin_pending(src.ip_host_order, now_s)) {
    admission_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  pending_keys_.insert(key);
  pending_.push_back(PendingHandshake{src, *req});
  hs_cv_.notify_one();
}

// -------------------------------------------------------------- receive ---

void Multiplexer::dispatch(std::span<const std::uint8_t> pkt,
                           const Endpoint& src, RecvSlab* slab,
                           int slab_slot) {
  if (pkt.size() < kHeaderBytes) {
    unroutable_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint32_t dst = load_be32(pkt.data() + 12);
  if (dst == 0) {
    // Only handshakes may travel with destination id 0 (the peer does not
    // know our id yet); anything else is noise.
    if (is_control(pkt)) {
      handle_handshake(pkt, src);
    } else {
      unroutable_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  // Route through the owner's index regardless of which rx thread is
  // running: in steered mode this is almost always the calling thread's own
  // shard, but a GRO super-datagram can hide foreign-flow segments behind
  // its first destination id, and fallback mode makes every delivery a
  // potential cross-shard one.
  Shard& owner = shard_for(dst);
  std::shared_lock al{owner.attach_mu};
  const auto it = owner.socks.find(dst);
  if (it == owner.socks.end()) {
    unroutable_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Socket* s = it->second;
  s->mux_ingest(pkt, slab, slab_slot);
  // An arrival usually means timer work soon (§4.8: ACK cadence resumes,
  // EXP pushes out) — pull a parked wheel entry in to one SYN from now.
  tighten_timer(owner, s);
}

void Multiplexer::rx_loop(Shard& sh) {
  t_rx_shard = &sh;
  // Slab-backed slots, one bounded recvmmsg drain per wakeup (rx_round),
  // in-place GRO segment walking in the sink below; the post-receive timer
  // check drains this shard's wheel in O(expired) instead of walking every
  // socket.
  UdpChannel::RxState rxs;
  rxs.slab = sh.slab;
  rxs.batch = static_cast<std::size_t>(io_batch_);
  rxs.slot_bytes = slot_bytes_;
  struct SinkCtx {
    Multiplexer* mux;
    Shard* sh;
  } sctx{this, &sh};
  const UdpChannel::RxSinkFn sink = [](void* c,
                                       const UdpChannel::RxDelivery& d) {
    auto* sc = static_cast<SinkCtx*>(c);
    for_each_datagram(d.data, d.gro_size,
                      [&](std::span<const std::uint8_t> pkt) {
                        sc->mux->dispatch(pkt, d.src, d.slab, d.slab_slot);
                      });
  };
  constexpr auto kSweepGap = std::chrono::milliseconds{1};
  constexpr auto kEvictGap = std::chrono::milliseconds{10};
  auto last_sweep = Clock::now();
  auto last_evict = last_sweep;

  while (running_) {
    (void)sh.io->rx_round(rxs, sink, &sctx);
    // §4.8 timer check: only sockets whose wheel entry expired are swept —
    // an idle fleet parks at EXP cadence and costs nothing per tick.
    const auto now = Clock::now();
    if (now - last_sweep >= kSweepGap) {
      last_sweep = now;
      sh.sweep_calls.fetch_add(1, std::memory_order_relaxed);
      sh.wheel.drain(now, [this, &sh](std::uint64_t key) {
        fire_timer(sh, key);
      });
    }
    if (sh.index == 0 && now - last_evict >= kEvictGap) {
      last_evict = now;
      std::lock_guard lk{hs_mu_};
      evict_answered();
    }
  }
  // RxState's destructor releases any still-armed slab slots.
  t_rx_shard = nullptr;
}

void Multiplexer::fire_timer(Shard& sh, std::uint64_t key) {
  const auto id = static_cast<std::uint32_t>(key);
  std::shared_lock al{sh.attach_mu};
  const auto it = sh.socks.find(id);
  if (it == sh.socks.end()) return;  // detached after its entry expired
  Socket* s = it->second;
  sh.socket_sweeps.fetch_add(1, std::memory_order_relaxed);
  const auto next = s->sweep_timers_next();
  // A tighten_timer racing between this store and the schedule below can be
  // overwritten, leaving one arrival unaccelerated; the next arrival (or
  // this re-armed entry) picks the socket back up, so the worst case is a
  // single delayed ACK round, not a stall.
  s->wheel_deadline_ns_.store(to_ns(next), std::memory_order_relaxed);
  sh.wheel.schedule(key, next);
}

void Multiplexer::tighten_timer(Shard& owner, Socket* s) {
  const auto want = Clock::now() + syn_us_;
  const std::int64_t want_ns = to_ns(want);
  std::int64_t cur = s->wheel_deadline_ns_.load(std::memory_order_relaxed);
  // CAS-min keeps this O(1) and idempotent: a socket already due within one
  // SYN (every flowing socket, after its first sweep) takes the early-out
  // and never touches the wheel.
  while (want_ns < cur) {
    if (s->wheel_deadline_ns_.compare_exchange_weak(
            cur, want_ns, std::memory_order_relaxed)) {
      owner.wheel.schedule(s->socket_id_, want);
      return;
    }
  }
}

// ----------------------------------------------------------------- send ---

void Multiplexer::kick(Socket* s) {
  if (!running_) return;
  if (s->tx_scheduled_.exchange(true)) return;  // already queued
  Shard& sh = *shards_[s->mux_shard_];
  if (t_rx_shard == &sh) {
    // This shard's own rx thread: the ring's one sanctioned producer.  The
    // seq_cst fence pairs with the one in tx_park(): either we observe the
    // tx thread going idle (and notify under its mutex, which cannot be
    // lost), or it observes our push before committing to sleep.
    if (sh.ring.push(s->socket_id_)) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (sh.tx_idle.load(std::memory_order_relaxed)) {
        std::lock_guard lk{sh.pending_mu};
        sh.tx_cv.notify_one();
      }
      return;
    }
    // Ring full (tx thread far behind): fall through to the mutex path.
  }
  {
    std::lock_guard lk{sh.pending_mu};
    sh.pending_kicks.push_back(s->socket_id_);
    sh.pending_n.store(
        static_cast<std::uint32_t>(sh.pending_kicks.size()),
        std::memory_order_relaxed);
  }
  sh.tx_cv.notify_one();
}

void Multiplexer::kick_all(Shard& sh) {
  std::shared_lock al{sh.attach_mu};
  // Only dirty sockets (wake_sender since their last empty tx_round) are
  // re-kicked: an idle 100k fleet must not cost 100k serve rounds per
  // heartbeat.  The flag is conservative — tx_round only clears it when it
  // finds no work — so a socket with queued data can never go unkicked.
  for (const auto& [id, s] : sh.socks) {
    if (s->tx_dirty_.load(std::memory_order_relaxed)) kick(s);
  }
}

void Multiplexer::serve(Shard& sh, std::uint32_t id) {
  std::shared_lock al{sh.attach_mu};
  const auto it = sh.socks.find(id);
  if (it == sh.socks.end()) return;  // detached after its entry was queued
  Socket* s = it->second;
  // Clear-then-recheck: the flag drops before tx_round reads the socket
  // state, so a kick landing mid-round either sees the flag down and queues
  // a fresh entry, or sees it up because we re-queued below — never lost.
  s->tx_scheduled_.store(false, std::memory_order_release);
  const auto next = s->tx_round();
  if (next == Clock::time_point::max()) return;  // parked until kicked
  if (s->tx_scheduled_.exchange(true)) return;   // a kick re-queued it first
  // The heap is this tx thread's private state — requeue without any lock.
  sh.heap.push_back(TxEntry{next, sh.order++, id});
  std::push_heap(sh.heap.begin(), sh.heap.end(), TxLater{});
}

void Multiplexer::tx_park(Shard& sh, Clock::time_point deadline) {
  std::unique_lock lk{sh.pending_mu};
  sh.tx_idle.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Re-check the ring after publishing tx_idle (the fence orders the two):
  // a producer that missed the flag must have pushed before our check, and
  // one that pushed after it sees the flag and notifies under the mutex we
  // hold — a push can never be slept through.
  if (sh.ring.empty() && sh.pending_kicks.empty() && running_) {
    sh.tx_cv.wait_until(lk, deadline);
  }
  sh.tx_idle.store(false, std::memory_order_relaxed);
}

void Multiplexer::tx_loop(Shard& sh) {
  // Safety net: losing a kick would strand a socket with queued data, so
  // every socket this shard owns is re-kicked on a slow heartbeat; a parked
  // socket with no work simply parks again.
  constexpr auto kKickSweepGap = std::chrono::milliseconds{100};
  std::vector<std::uint32_t> kicks;  // mutex-path drain scratch
  auto next_kick_sweep = Clock::now() + kKickSweepGap;
  while (running_) {
    auto now = Clock::now();
    if (now >= next_kick_sweep) {
      next_kick_sweep = now + kKickSweepGap;
      kick_all(sh);
      now = Clock::now();
    }
    // Drain wakeups into the private heap: the SPSC ring first (the rx
    // sibling's lock-free path), then the mutex-protected pending list
    // (application threads, foreign shards, ring overflow).
    std::uint32_t id = 0;
    while (sh.ring.pop(id)) {
      sh.heap.push_back(TxEntry{now, sh.order++, id});
      std::push_heap(sh.heap.begin(), sh.heap.end(), TxLater{});
    }
    if (sh.pending_n.load(std::memory_order_relaxed) > 0) {
      {
        std::lock_guard lk{sh.pending_mu};
        kicks.swap(sh.pending_kicks);
        sh.pending_n.store(0, std::memory_order_relaxed);
      }
      for (const std::uint32_t k : kicks) {
        sh.heap.push_back(TxEntry{now, sh.order++, k});
        std::push_heap(sh.heap.begin(), sh.heap.end(), TxLater{});
      }
      kicks.clear();
    }
    if (sh.heap.empty()) {
      tx_park(sh, next_kick_sweep);
      continue;
    }
    const auto due = sh.heap.front().due;
    if (due > now) {
      if (due - now > Pacer::kSpinThreshold) {
        tx_park(sh, std::min(due - Pacer::kSpinThreshold, next_kick_sweep));
      } else {
        // Sub-threshold remainder: spin for §4.5 precision, exactly as the
        // per-socket Pacer would.
        Pacer::wait_until(due);
      }
      continue;
    }
    // Serve every socket due this instant; FIFO order among equal deadlines
    // keeps service round-robin fair.
    sh.due_scratch.clear();
    while (!sh.heap.empty() && sh.heap.front().due <= now) {
      std::pop_heap(sh.heap.begin(), sh.heap.end(), TxLater{});
      sh.due_scratch.push_back(sh.heap.back().id);
      sh.heap.pop_back();
    }
    for (const std::uint32_t d : sh.due_scratch) serve(sh, d);
  }
}

}  // namespace udtr::udt
