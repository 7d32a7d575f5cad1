// UDP channel: a thin RAII wrapper over a datagram socket with the
// time-bounded receive the protocol core relies on (§4.8: the four timers
// are checked after each bounded UDP receive call), plus an optional
// deterministic fault injector (drop / duplicate / reorder / corrupt /
// truncate / outage, per direction) for tests and experiments.
//
// The paper's own profile (Table 3) shows UDP system calls dominating CPU
// time on both sides, so the channel also offers *batched* I/O: send_batch
// and recv_batch move up to N datagrams per sendmmsg/recvmmsg system call
// (falling back to a sendto/recvfrom loop where the mmsg calls are
// unavailable).  Fault injection stays per-datagram across a batch — the
// batch is a syscall optimisation, not a unit of loss.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "udt/buffers.hpp"
#include "udt/fault.hpp"

namespace udtr::udt {

struct Endpoint {
  std::uint32_t ip_host_order = 0;  // IPv4
  std::uint16_t port = 0;

  [[nodiscard]] sockaddr_in to_sockaddr() const;
  [[nodiscard]] static Endpoint from_sockaddr(const sockaddr_in& sa);
  [[nodiscard]] static std::optional<Endpoint> resolve(
      const std::string& host, std::uint16_t port);
  bool operator==(const Endpoint&) const = default;
};

// Outcome of one bounded receive.  A genuine zero-length datagram is a
// kDatagram with bytes == 0 — distinct from kTimeout (nothing arrived
// within SO_RCVTIMEO) and from kError (the socket is broken).
enum class RecvStatus { kDatagram, kTimeout, kError };
struct RecvResult {
  RecvStatus status = RecvStatus::kTimeout;
  std::size_t bytes = 0;
};

class UdpChannel {
 public:
  UdpChannel() = default;
  ~UdpChannel();
  UdpChannel(const UdpChannel&) = delete;
  UdpChannel& operator=(const UdpChannel&) = delete;
  UdpChannel(UdpChannel&& other) noexcept;
  UdpChannel& operator=(UdpChannel&& other) noexcept;

  // Binds to 127.0.0.1:`port` (0 = ephemeral).  Returns false on error.
  // Where the kernel supports it, SO_RXQ_OVFL is set so every received
  // datagram carries the socket's cumulative overflow-drop count.
  // With `reuse_port`, SO_REUSEPORT is set before the bind so several
  // channels (the multiplexer's shards) can share one port; the kernel
  // load-balances between them unless a steering program is attached.
  bool open(std::uint16_t port = 0, bool reuse_port = false);
  // Attaches a classic-BPF reuseport steering program to this fd (the
  // group leader): each datagram goes to group member
  // (payload word at byte 12, i.e. the UDT destination socket id) % shards,
  // in bind order.  Datagrams too short to carry the word land on member 0,
  // which is where the multiplexer parks handshake handling.  False when
  // the kernel lacks SO_ATTACH_REUSEPORT_CBPF (the caller falls back to
  // software demux on a single fd).
  bool attach_reuseport_steering(unsigned shards);
  void close();
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }

  // Sets the receive timeout used by recv_from (SO_RCVTIMEO).
  bool set_recv_timeout(std::chrono::microseconds timeout);
  // Enlarged socket buffers for high-rate transfer.  The kernel may grant
  // less than asked (net.core.{r,w}mem_max); read the grant back below.
  bool set_buffer_sizes(int snd_bytes, int rcv_bytes);
  // Granted SO_RCVBUF / SO_SNDBUF in the units set_buffer_sizes asks in
  // (Linux reports twice that to cover bookkeeping; halved here).  0 when
  // the fd is closed.
  [[nodiscard]] int rcvbuf_bytes() const;
  [[nodiscard]] int sndbuf_bytes() const;

  // Sends one datagram; returns bytes accepted or -1.  A datagram swallowed
  // by the fault injector still reports success — from the sender's point
  // of view it left the host.
  std::int64_t send_to(const Endpoint& dst, std::span<const std::uint8_t> data);
  // Receives one datagram (or one the injector owed us); see RecvResult.
  RecvResult recv_from(Endpoint& src, std::span<std::uint8_t> buf);

  // --- batched I/O (Table 3: amortise the dominant syscall cost) ---------
  // Sends every datagram to `dst` in as few system calls as possible
  // (one sendmmsg on Linux; a sendto loop elsewhere).  The fault injector,
  // when installed, sees each datagram individually, exactly as with
  // send_to.  Returns the number of datagrams accepted.
  std::size_t send_batch(const Endpoint& dst,
                         std::span<const std::span<const std::uint8_t>> data);

  // --- zero-copy scatter-gather send -------------------------------------
  // One wire datagram described in place: `head` (the serialized 16-byte
  // header) and `body` (payload, may be empty) are gathered by the kernel
  // from where they already live, so the bytes are never staged into a
  // contiguous buffer.  `keep_with_next` marks an RBPP probe head whose
  // successor must leave in the same system call (§3.4 packet-pair timing).
  struct TxDatagram {
    std::span<const std::uint8_t> head;
    std::span<const std::uint8_t> body;
    bool keep_with_next = false;
  };
  // Sends the datagrams in order with as few system calls as possible:
  // where the kernel supports UDP_SEGMENT (and `allow_gso`), runs of
  // equal-size datagrams are coalesced into one GSO super-datagram — one
  // syscall and one kernel traversal for up to 64 wire packets; everything
  // else goes out as two-iovec sendmmsg entries.  The fault injector, when
  // installed, sees each logical datagram individually (pre-GSO), exactly
  // as with send_to.  Returns the number of datagrams accepted.
  std::size_t send_gather(const Endpoint& dst,
                          std::span<const TxDatagram> dgrams,
                          bool allow_gso = true);

  // Requests kernel receive coalescing (UDP_GRO): bursts of same-source
  // datagrams arrive as one buffer with RecvSlot::gro_size describing the
  // segment grid.  Refused (returns false) when unsupported, when
  // UDTR_NO_GSO is set, or when a fault injector is installed (the injector
  // owns per-datagram semantics).
  bool enable_gro();
  [[nodiscard]] bool gro_enabled() const { return gro_enabled_; }
  // False when the kernel rejected UDP_SEGMENT at runtime or UDTR_NO_GSO is
  // set: send_gather quietly takes the sendmmsg path instead.
  [[nodiscard]] bool gso_active() const;
  // Compile-time offload support (false off-Linux).
  [[nodiscard]] static bool offload_supported();
  [[nodiscard]] std::uint64_t gso_super_datagrams() const {
    return gso_sends_;
  }

  // One filled entry of a recv_batch call.
  struct RecvSlot {
    std::span<std::uint8_t> buf;  // in: caller storage for one datagram
    std::size_t bytes = 0;        // out: payload length received
    Endpoint src{};               // out: datagram source
    // out: GRO segment size.  0 = one plain datagram; otherwise the buffer
    // carries ceil(bytes / gro_size) wire datagrams, every segment
    // gro_size bytes except possibly the last.
    std::size_t gro_size = 0;
  };
  struct RecvBatchResult {
    RecvStatus status = RecvStatus::kTimeout;  // outcome of the first wait
    std::size_t count = 0;                     // slots filled (0 on timeout)
  };
  // Blocks (honouring SO_RCVTIMEO) until at least one datagram arrives,
  // then drains whatever else the kernel already has queued — up to
  // slots.size() datagrams in one recvmmsg(MSG_WAITFORONE) where available,
  // a bounded recvfrom loop otherwise.  Injector-owed datagrams (reorder
  // releases, duplicates) are delivered first and each received datagram is
  // filtered individually, so per-datagram fault semantics are preserved.
  RecvBatchResult recv_batch(std::span<RecvSlot> slots);

  // --- slab-backed rx round (the mux shard rx loop's one entry point) -----
  // One delivered datagram (or GRO super-datagram).  When `slab` is set the
  // bytes live in RecvSlab slot `slab_slot` and the sink may add_ref the
  // slot to keep them past the callback; otherwise the bytes are only valid
  // for the duration of the call and must be copied.
  struct RxDelivery {
    std::span<const std::uint8_t> data;
    Endpoint src{};
    std::size_t gro_size = 0;  // as RecvSlot::gro_size
    RecvSlab* slab = nullptr;
    int slab_slot = -1;
  };
  using RxSinkFn = void (*)(void* ctx, const RxDelivery& d);
  // Per-caller receive state.  The caller fills slab/batch/slot_bytes once;
  // rx_round lazily builds the arming scratch.
  struct RxState {
    std::shared_ptr<RecvSlab> slab;  // may be null: arena-only delivery
    std::size_t batch = 0;           // max datagrams per round
    std::size_t slot_bytes = 0;      // per-slot capacity (GRO-sized or MSS)
    // Armed slots (lazily sized on first round).
    std::vector<std::uint8_t> arena;
    std::vector<RecvSlot> slots;
    std::vector<int> slab_ids;
    ~RxState();
  };
  // Blocks (honouring set_recv_timeout) until at least one datagram arrives,
  // then delivers every drained datagram to `sink`, one callback per
  // kernel-level delivery (per-datagram fault filtering happens first, so
  // swallowed datagrams produce no callback but kDatagram is still
  // returned).  count = callbacks made.
  RecvBatchResult rx_round(RxState& st, RxSinkFn sink, void* ctx);

  [[nodiscard]] std::uint64_t send_syscalls() const { return send_calls_; }
  [[nodiscard]] std::uint64_t recv_syscalls() const { return recv_calls_; }
  // Datagrams the kernel dropped because this socket's receive queue was
  // full: the latest cumulative SO_RXQ_OVFL count seen on a recv_batch.
  // The kernel stamps each datagram with the count at enqueue time, so a
  // drop shows only once a datagram queued after it has been received.
  [[nodiscard]] std::uint32_t kernel_rx_drops() const {
    return kernel_rx_drops_.load(std::memory_order_relaxed);
  }

  // Installs (or clears, with nullptr) the fault injector both directions
  // pass through.  The caller may keep its reference to flip faults on and
  // off mid-run; the injector is thread-safe.
  void set_fault_injector(std::shared_ptr<FaultInjector> faults);
  [[nodiscard]] const std::shared_ptr<FaultInjector>& fault_injector() const {
    return faults_;
  }

  [[nodiscard]] std::uint64_t datagrams_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t datagrams_dropped() const;

 private:
  // Accepts the raw datagram in slot `from` into slot `filled` after the
  // per-datagram recv fault filter; returns false if it was swallowed.
  bool accept_raw(std::span<RecvSlot> slots, std::size_t filled,
                  std::size_t from, std::size_t bytes, const Endpoint& src);
  // Sends one GSO super-datagram covering `run`; false if the kernel
  // refused the offload (caller disables GSO and resends plainly).
  bool send_gso_run(const sockaddr_in& sa, std::span<const TxDatagram> run,
                    std::size_t seg_bytes);
  // Plain two-iovec path for datagrams that did not form a GSO run.
  void send_plain(const sockaddr_in& sa, std::span<const TxDatagram> dgrams);

  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::shared_ptr<FaultInjector> faults_;
  // Atomic: enable_gro runs on the shard rx thread after start while the tx
  // thread reads it on the gather path (probe/latch consistency rule — same
  // treatment as gso_ok_).
  std::atomic<bool> gro_enabled_{false};
  // Runtime GSO health: starts true (unless UDTR_NO_GSO), latched false the
  // first time the kernel rejects UDP_SEGMENT.  Atomic only for the cheap
  // cross-thread read; all writes come from the sending thread.
  std::atomic<bool> gso_ok_{true};
  // Reused linearization scratch for routing gathered datagrams through the
  // per-datagram fault injector.  One buffer, guarded by gather_mu_: in the
  // multiplexer's single-fd fallback mode several shard tx threads share
  // this channel, and the injector path is the only send state they could
  // collide on (taken only when faults are configured).
  std::mutex gather_mu_;
  std::vector<std::uint8_t> gather_scratch_;
  // Atomic: the sender thread moves data while the receiver thread sends
  // control packets through the same channel.
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> send_calls_{0};
  std::atomic<std::uint64_t> recv_calls_{0};
  std::atomic<std::uint64_t> gso_sends_{0};
  std::atomic<std::uint32_t> kernel_rx_drops_{0};
};

// Length of the longest leading run of `dgrams[i..]` that one GSO
// super-datagram can carry: equal wire sizes (except a shorter tail), run
// fits kGsoMaxBytes/kGsoMaxSegments, and keep_with_next pairs never split.
[[nodiscard]] std::size_t gso_run_length(
    std::span<const UdpChannel::TxDatagram> dgrams, std::size_t i);

}  // namespace udtr::udt
