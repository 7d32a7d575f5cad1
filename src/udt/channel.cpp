#include "udt/channel.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/filter.h>
#endif

#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

// sendmmsg/recvmmsg appeared in Linux 3.0 / glibc 2.14; everything else
// takes the portable per-datagram fallback inside send_batch/recv_batch.
#if defined(__linux__)
#define UDTR_HAVE_MMSG 1
#else
#define UDTR_HAVE_MMSG 0
#endif

// UDP_SEGMENT (GSO, Linux 4.18) / UDP_GRO (Linux 5.0).  Where the headers
// lack them the offload paths compile out and send_gather degrades to the
// two-iovec sendmmsg path, recv_batch to plain datagrams.
#if defined(__linux__) && defined(UDP_SEGMENT) && defined(UDP_GRO)
#define UDTR_HAVE_UDP_OFFLOAD 1
#else
#define UDTR_HAVE_UDP_OFFLOAD 0
#endif

namespace udtr::udt {

namespace {
// Kernel bounds on one GSO send: 64 segments, one 16-bit UDP payload.
constexpr std::size_t kGsoMaxSegments = 64;
constexpr std::size_t kGsoMaxBytes = 65507;
}  // namespace

// Longest GSO run starting at `i`: consecutive datagrams of identical wire
// size (one trailing smaller one may close the run — the kernel emits the
// short tail as the final segment), bounded by the segment and byte caps.
// A probe head (`keep_with_next`) is never left as the last datagram of a
// run while its successor exists: the pair must share one kernel traversal
// for the §3.4 packet-pair spacing to mean anything, so the run shrinks by
// one and the pair opens the next send instead.
std::size_t gso_run_length(std::span<const UdpChannel::TxDatagram> d,
                           std::size_t i) {
  const std::size_t seg = d[i].head.size() + d[i].body.size();
  if (seg == 0 || seg > kGsoMaxBytes) return 1;
  const std::size_t cap =
      std::min(kGsoMaxSegments, kGsoMaxBytes / seg);
  std::size_t j = i + 1;
  while (j < d.size() && j - i < cap) {
    const std::size_t w = d[j].head.size() + d[j].body.size();
    if (w == seg) {
      ++j;
      continue;
    }
    if (w < seg && w > 0) ++j;  // short tail closes the run
    break;
  }
  if (j < d.size() && j > i + 1 && d[j - 1].keep_with_next) --j;
  return j - i;
}

sockaddr_in Endpoint::to_sockaddr() const {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ip_host_order);
  sa.sin_port = htons(port);
  return sa;
}

Endpoint Endpoint::from_sockaddr(const sockaddr_in& sa) {
  return Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

std::optional<Endpoint> Endpoint::resolve(const std::string& host,
                                          std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_DGRAM;
  addrinfo* res = nullptr;
  if (getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
      res == nullptr) {
    return std::nullopt;
  }
  const auto* sa = reinterpret_cast<const sockaddr_in*>(res->ai_addr);
  Endpoint ep{ntohl(sa->sin_addr.s_addr), port};
  freeaddrinfo(res);
  return ep;
}

UdpChannel::~UdpChannel() { close(); }

UdpChannel::UdpChannel(UdpChannel&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      local_port_(other.local_port_),
      faults_(std::move(other.faults_)),
      gro_enabled_(other.gro_enabled_.load()),
      gso_ok_(other.gso_ok_.load()),
      gather_scratch_(std::move(other.gather_scratch_)),
      sent_(other.sent_.load()),
      send_calls_(other.send_calls_.load()),
      recv_calls_(other.recv_calls_.load()),
      gso_sends_(other.gso_sends_.load()),
      kernel_rx_drops_(other.kernel_rx_drops_.load()) {}

UdpChannel& UdpChannel::operator=(UdpChannel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    local_port_ = other.local_port_;
    faults_ = std::move(other.faults_);
    gro_enabled_ = other.gro_enabled_.load();
    gso_ok_ = other.gso_ok_.load();
    gather_scratch_ = std::move(other.gather_scratch_);
    sent_ = other.sent_.load();
    send_calls_ = other.send_calls_.load();
    recv_calls_ = other.recv_calls_.load();
    gso_sends_ = other.gso_sends_.load();
    kernel_rx_drops_ = other.kernel_rx_drops_.load();
  }
  return *this;
}

bool UdpChannel::open(std::uint16_t port, bool reuse_port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return false;
  if (reuse_port) {
    const int one = 1;
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
      close();
      return false;
    }
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    close();
    return false;
  }
  socklen_t len = sizeof sa;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    close();
    return false;
  }
  local_port_ = ntohs(sa.sin_port);
#if defined(SO_RXQ_OVFL)
  // Best effort: without it kernel_rx_drops() simply stays 0.
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof one);
#endif
  kernel_rx_drops_.store(0, std::memory_order_relaxed);
  // UDTR_NO_GSO is the operational kill-switch (and the CI fallback job):
  // with it set every send takes the plain sendmmsg path from the start.
  gso_ok_.store(std::getenv("UDTR_NO_GSO") == nullptr,
                std::memory_order_relaxed);
  gro_enabled_.store(false, std::memory_order_relaxed);
  return true;
}

bool UdpChannel::attach_reuseport_steering(unsigned shards) {
  if (fd_ < 0 || shards < 2) return false;
#if defined(__linux__) && defined(SO_ATTACH_REUSEPORT_CBPF)
  // ld A <- payload[12..15] (big-endian — the UDT destination socket id);
  // A %= shards; ret A.  Loading past the end of a short datagram makes the
  // program return 0, so sub-header noise and raw probes land on shard 0.
  sock_filter code[] = {
      {BPF_LD | BPF_W | BPF_ABS, 0, 0, 12},
      {BPF_ALU | BPF_MOD | BPF_K, 0, 0, shards},
      {BPF_RET | BPF_A, 0, 0, 0},
  };
  sock_fprog prog{};
  prog.len = sizeof code / sizeof code[0];
  prog.filter = code;
  return ::setsockopt(fd_, SOL_SOCKET, SO_ATTACH_REUSEPORT_CBPF, &prog,
                      sizeof prog) == 0;
#else
  return false;
#endif
}

void UdpChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    local_port_ = 0;
    gro_enabled_.store(false, std::memory_order_relaxed);
  }
}

bool UdpChannel::offload_supported() { return UDTR_HAVE_UDP_OFFLOAD != 0; }

bool UdpChannel::gso_active() const {
  return offload_supported() && gso_ok_.load(std::memory_order_relaxed);
}

bool UdpChannel::enable_gro() {
#if UDTR_HAVE_UDP_OFFLOAD
  if (fd_ < 0 || faults_ != nullptr) return false;
  if (std::getenv("UDTR_NO_GSO") != nullptr) return false;
  const int one = 1;
  if (::setsockopt(fd_, SOL_UDP, UDP_GRO, &one, sizeof one) != 0) {
    return false;
  }
  gro_enabled_.store(true, std::memory_order_relaxed);
  return true;
#else
  return false;
#endif
}

bool UdpChannel::set_recv_timeout(std::chrono::microseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(timeout.count() % 1000000);
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0;
}

bool UdpChannel::set_buffer_sizes(int snd_bytes, int rcv_bytes) {
  const bool a = ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &snd_bytes,
                              sizeof snd_bytes) == 0;
  const bool b = ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcv_bytes,
                              sizeof rcv_bytes) == 0;
  return a && b;
}

namespace {
int granted_bytes(int fd, int opt) {
  int v = 0;
  socklen_t len = sizeof v;
  if (fd < 0 || ::getsockopt(fd, SOL_SOCKET, opt, &v, &len) != 0) return 0;
#if defined(__linux__)
  v /= 2;
#endif
  return v;
}
}  // namespace

int UdpChannel::rcvbuf_bytes() const { return granted_bytes(fd_, SO_RCVBUF); }

int UdpChannel::sndbuf_bytes() const { return granted_bytes(fd_, SO_SNDBUF); }

void UdpChannel::set_fault_injector(std::shared_ptr<FaultInjector> faults) {
  faults_ = std::move(faults);
}

std::uint64_t UdpChannel::datagrams_dropped() const {
  if (!faults_) return 0;
  const FaultStats s = faults_->stats(FaultDir::kSend);
  return s.dropped + s.outage_dropped;
}

std::int64_t UdpChannel::send_to(const Endpoint& dst,
                                 std::span<const std::uint8_t> data) {
  ++sent_;
  const sockaddr_in sa = dst.to_sockaddr();
  if (faults_) {
    faults_->on_send(data, [&](std::span<const std::uint8_t> d) {
      ++send_calls_;
      ::sendto(fd_, d.data(), d.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
    });
    return static_cast<std::int64_t>(data.size());
  }
  ++send_calls_;
  return ::sendto(fd_, data.data(), data.size(), 0,
                  reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
}

std::size_t UdpChannel::send_batch(
    const Endpoint& dst, std::span<const std::span<const std::uint8_t>> data) {
  if (data.empty()) return 0;
  sent_ += data.size();
  const sockaddr_in sa = dst.to_sockaddr();

  // The wire set defaults to the caller's datagrams; the injector may drop,
  // mutate or multiply entries (mutations are owned by `mutated` so the
  // spans stay alive until the syscall).
  std::vector<std::span<const std::uint8_t>> wire;
  std::vector<std::vector<std::uint8_t>> mutated;
  wire.reserve(data.size());
  if (faults_) {
    mutated.reserve(data.size());
    for (const auto& d : data) {
      faults_->on_send(d, [&](std::span<const std::uint8_t> out) {
        if (out.data() == d.data() && out.size() == d.size()) {
          wire.push_back(d);
        } else {
          mutated.emplace_back(out.begin(), out.end());
          wire.emplace_back(mutated.back().data(), mutated.back().size());
        }
      });
    }
    if (wire.empty()) return data.size();  // all swallowed: "left the host"
  } else {
    wire.assign(data.begin(), data.end());
  }

#if UDTR_HAVE_MMSG
  std::size_t done = 0;
  while (done < wire.size()) {
    constexpr std::size_t kChunk = 64;
    const std::size_t n = std::min(kChunk, wire.size() - done);
    std::array<mmsghdr, kChunk> msgs{};
    std::array<iovec, kChunk> iovs{};
    for (std::size_t i = 0; i < n; ++i) {
      iovs[i].iov_base = const_cast<std::uint8_t*>(wire[done + i].data());
      iovs[i].iov_len = wire[done + i].size();
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(&sa);
      msgs[i].msg_hdr.msg_namelen = sizeof sa;
    }
    ++send_calls_;
    const int sent = ::sendmmsg(fd_, msgs.data(), static_cast<unsigned>(n), 0);
    if (sent < 0) {
      if (errno == EINTR) continue;
      break;  // e.g. closed mid-send; partial batch already accounted
    }
    done += static_cast<std::size_t>(sent);
    if (static_cast<std::size_t>(sent) < n) continue;  // retry the remainder
  }
#else
  for (const auto& d : wire) {
    ++send_calls_;
    ::sendto(fd_, d.data(), d.size(), 0,
             reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  }
#endif
  return data.size();
}

bool UdpChannel::send_gso_run(const sockaddr_in& sa,
                              std::span<const TxDatagram> run,
                              std::size_t seg_bytes) {
#if UDTR_HAVE_UDP_OFFLOAD
  std::array<iovec, 2 * kGsoMaxSegments> iovs;
  std::size_t niov = 0;
  for (const auto& d : run) {
    iovs[niov++] = {const_cast<std::uint8_t*>(d.head.data()), d.head.size()};
    if (!d.body.empty()) {
      iovs[niov++] = {const_cast<std::uint8_t*>(d.body.data()),
                      d.body.size()};
    }
  }
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(std::uint16_t))] = {};
  msghdr msg{};
  msg.msg_name = const_cast<sockaddr_in*>(&sa);
  msg.msg_namelen = sizeof sa;
  msg.msg_iov = iovs.data();
  msg.msg_iovlen = niov;
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_UDP;
  cm->cmsg_type = UDP_SEGMENT;
  cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
  const auto seg16 = static_cast<std::uint16_t>(seg_bytes);
  std::memcpy(CMSG_DATA(cm), &seg16, sizeof seg16);
  for (;;) {
    ++send_calls_;
    if (::sendmsg(fd_, &msg, 0) >= 0) {
      ++gso_sends_;
      return true;
    }
    if (errno == EINTR) continue;
    // Transient pressure is ordinary UDP loss, not an offload problem.
    if (errno == ENOBUFS || errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    }
    return false;  // EINVAL / EOPNOTSUPP ...: the kernel refused UDP_SEGMENT
  }
#else
  (void)sa;
  (void)run;
  (void)seg_bytes;
  return false;
#endif
}

void UdpChannel::send_plain(const sockaddr_in& sa,
                            std::span<const TxDatagram> dgrams) {
#if UDTR_HAVE_MMSG
  std::size_t done = 0;
  while (done < dgrams.size()) {
    constexpr std::size_t kChunk = 64;
    const std::size_t n = std::min(kChunk, dgrams.size() - done);
    std::array<mmsghdr, kChunk> msgs{};
    std::array<iovec, 2 * kChunk> iovs{};
    for (std::size_t i = 0; i < n; ++i) {
      const TxDatagram& d = dgrams[done + i];
      iovec* iv = &iovs[2 * i];
      iv[0] = {const_cast<std::uint8_t*>(d.head.data()), d.head.size()};
      std::size_t niov = 1;
      if (!d.body.empty()) {
        iv[1] = {const_cast<std::uint8_t*>(d.body.data()), d.body.size()};
        niov = 2;
      }
      msgs[i].msg_hdr.msg_iov = iv;
      msgs[i].msg_hdr.msg_iovlen = niov;
      msgs[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(&sa);
      msgs[i].msg_hdr.msg_namelen = sizeof sa;
    }
    ++send_calls_;
    const int sent = ::sendmmsg(fd_, msgs.data(), static_cast<unsigned>(n), 0);
    if (sent < 0) {
      if (errno == EINTR) continue;
      break;
    }
    done += static_cast<std::size_t>(sent);
  }
#else
  for (const auto& d : dgrams) {
    std::array<iovec, 2> iovs{};
    iovs[0] = {const_cast<std::uint8_t*>(d.head.data()), d.head.size()};
    std::size_t niov = 1;
    if (!d.body.empty()) {
      iovs[1] = {const_cast<std::uint8_t*>(d.body.data()), d.body.size()};
      niov = 2;
    }
    msghdr msg{};
    msg.msg_name = const_cast<sockaddr_in*>(&sa);
    msg.msg_namelen = sizeof sa;
    msg.msg_iov = iovs.data();
    msg.msg_iovlen = niov;
    ++send_calls_;
    ::sendmsg(fd_, &msg, 0);
  }
#endif
}

std::size_t UdpChannel::send_gather(const Endpoint& dst,
                                    std::span<const TxDatagram> dgrams,
                                    bool allow_gso) {
  if (dgrams.empty()) return 0;
  sent_ += dgrams.size();
  const sockaddr_in sa = dst.to_sockaddr();

  if (faults_) {
    // The injector must see each logical datagram whole and individually
    // (pre-GSO), so the header/payload pair is linearized into reused
    // scratch — the one staging copy the fault path keeps, paid only when
    // faults are configured.
    std::lock_guard lk{gather_mu_};
    for (const auto& d : dgrams) {
      gather_scratch_.assign(d.head.begin(), d.head.end());
      gather_scratch_.insert(gather_scratch_.end(), d.body.begin(),
                             d.body.end());
      faults_->on_send(gather_scratch_,
                       [&](std::span<const std::uint8_t> out) {
                         ++send_calls_;
                         ::sendto(fd_, out.data(), out.size(), 0,
                                  reinterpret_cast<const sockaddr*>(&sa),
                                  sizeof sa);
                       });
    }
    return dgrams.size();
  }

  const bool use_gso = allow_gso && gso_active();
  std::size_t i = 0;
  std::size_t plain_start = 0;  // pending non-run datagrams [plain_start, i)
  while (i < dgrams.size()) {
    const std::size_t run =
        use_gso ? gso_run_length(dgrams, i) : std::size_t{1};
    if (run < 2) {
      ++i;
      continue;
    }
    // Flush the singles that precede the run so wire order is preserved.
    if (plain_start < i) {
      send_plain(sa, dgrams.subspan(plain_start, i - plain_start));
    }
    const auto seg = dgrams[i].head.size() + dgrams[i].body.size();
    if (!send_gso_run(sa, dgrams.subspan(i, run), seg)) {
      // Kernel refused: latch GSO off for this socket and resend the run
      // plainly.  Nothing was transmitted by the failed call.
      gso_ok_.store(false, std::memory_order_relaxed);
      send_plain(sa, dgrams.subspan(i, run));
    }
    i += run;
    plain_start = i;
  }
  if (plain_start < dgrams.size()) {
    send_plain(sa, dgrams.subspan(plain_start));
  }
  return dgrams.size();
}

// Accepts the raw datagram sitting in `raw`'s buffer (from slot `from`)
// into slot `slots[filled]`, running it through the recv-direction fault
// filter first.  Returns true if the datagram survived (and `filled` should
// advance).  `from == filled` is the common no-fault case and costs nothing.
bool UdpChannel::accept_raw(std::span<RecvSlot> slots, std::size_t filled,
                            std::size_t from, std::size_t bytes,
                            const Endpoint& src) {
  if (!faults_) {
    slots[filled].bytes = bytes;
    slots[filled].src = src;
    return true;
  }
  // The filter mutates the receive buffer in place; nothing is copied
  // unless earlier batch entries were swallowed and the survivor has to be
  // compacted forward into the next unfilled slot.
  auto delivered = faults_->filter_recv({slots[from].buf.data(), bytes},
                                        src.ip_host_order, src.port);
  if (!delivered) return false;  // swallowed by the net
  RecvSlot& dst = slots[filled];
  dst.bytes = std::min(dst.buf.size(), *delivered);
  if (from != filled) {
    std::memcpy(dst.buf.data(), slots[from].buf.data(), dst.bytes);
  }
  dst.src = src;
  return true;
}

UdpChannel::RecvBatchResult UdpChannel::recv_batch(std::span<RecvSlot> slots) {
  if (slots.empty()) return {RecvStatus::kTimeout, 0};

  // Datagrams the injector owes us (reorder releases, duplicates) come
  // first; they were "on the wire" before anything still in the kernel.
  std::size_t filled = 0;
  if (faults_) {
    while (filled < slots.size()) {
      auto owed = faults_->pop_ready_recv();
      if (!owed) break;
      RecvSlot& s = slots[filled];
      s.bytes = std::min(s.buf.size(), owed->bytes.size());
      std::memcpy(s.buf.data(), owed->bytes.data(), s.bytes);
      s.src = Endpoint{owed->src_ip, owed->src_port};
      s.gro_size = 0;
      ++filled;
    }
  }
  const bool have_owed = filled > 0;
  const std::size_t base = filled;

#if UDTR_HAVE_MMSG
  if (base < slots.size()) {
    constexpr std::size_t kChunk = 64;
    const std::size_t n = std::min(kChunk, slots.size() - base);
    std::array<mmsghdr, kChunk> msgs{};
    std::array<iovec, kChunk> iovs{};
    std::array<sockaddr_in, kChunk> addrs{};
    // Per-message control space for the UDP_GRO segment-size cmsg and the
    // SO_RXQ_OVFL drop counter.
    constexpr std::size_t kCtrlBytes =
        CMSG_SPACE(sizeof(int)) + CMSG_SPACE(sizeof(std::uint32_t));
    alignas(cmsghdr) std::array<std::array<char, kCtrlBytes>, kChunk> ctrls;
    for (std::size_t i = 0; i < n; ++i) {
      iovs[i].iov_base = slots[base + i].buf.data();
      iovs[i].iov_len = slots[base + i].buf.size();
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msgs[i].msg_hdr.msg_control = ctrls[i].data();
      msgs[i].msg_hdr.msg_controllen = ctrls[i].size();
    }
    // One syscall per wakeup: block (SO_RCVTIMEO-bounded, §4.8) until at
    // least one datagram arrives, then take everything already queued.
    // With owed datagrams in hand we must not block again — only top up.
    ++recv_calls_;
    const int got = ::recvmmsg(fd_, msgs.data(), static_cast<unsigned>(n),
                               have_owed ? MSG_DONTWAIT : MSG_WAITFORONE,
                               nullptr);
    if (got < 0 && !have_owed) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return {RecvStatus::kTimeout, 0};
      }
      return {RecvStatus::kError, 0};
    }
    for (int i = 0; i < std::max(got, 0); ++i) {
      std::size_t gro = 0;
      for (cmsghdr* cm = CMSG_FIRSTHDR(&msgs[i].msg_hdr); cm != nullptr;
           cm = CMSG_NXTHDR(&msgs[i].msg_hdr, cm)) {
#if defined(SO_RXQ_OVFL)
        if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SO_RXQ_OVFL) {
          std::uint32_t drops = 0;
          std::memcpy(&drops, CMSG_DATA(cm), sizeof drops);
          kernel_rx_drops_.store(drops, std::memory_order_relaxed);
        }
#endif
#if UDTR_HAVE_UDP_OFFLOAD
        if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO) {
          int v = 0;
          std::memcpy(&v, CMSG_DATA(cm), sizeof v);
          // The kernel reports the segment grid even for a lone datagram;
          // a value covering the whole payload means "not coalesced".
          if (v > 0 && static_cast<std::size_t>(v) < msgs[i].msg_len) {
            gro = static_cast<std::size_t>(v);
          }
        }
#endif
      }
      if (accept_raw(slots, filled, base + static_cast<std::size_t>(i),
                     msgs[i].msg_len, Endpoint::from_sockaddr(addrs[i]))) {
        slots[filled].gro_size = faults_ ? 0 : gro;
        ++filled;
      }
    }
  }
#else
  if (!have_owed) {
    // Portable path: one blocking bounded receive, then drain non-blocking.
    RecvSlot& first = slots[0];
    sockaddr_in sa{};
    socklen_t len = sizeof sa;
    ++recv_calls_;
    const ssize_t n = ::recvfrom(fd_, first.buf.data(), first.buf.size(), 0,
                                 reinterpret_cast<sockaddr*>(&sa), &len);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return {RecvStatus::kTimeout, 0};
      }
      return {RecvStatus::kError, 0};
    }
    if (accept_raw(slots, filled, 0, static_cast<std::size_t>(n),
                   Endpoint::from_sockaddr(sa))) {
      slots[filled].gro_size = 0;
      ++filled;
    }
  }
  while (filled < slots.size()) {
    RecvSlot& s = slots[filled];
    sockaddr_in sa{};
    socklen_t len = sizeof sa;
    ++recv_calls_;
    const ssize_t n = ::recvfrom(fd_, s.buf.data(), s.buf.size(),
                                 MSG_DONTWAIT,
                                 reinterpret_cast<sockaddr*>(&sa), &len);
    if (n < 0) break;
    if (accept_raw(slots, filled, filled, static_cast<std::size_t>(n),
                   Endpoint::from_sockaddr(sa))) {
      slots[filled].gro_size = 0;
      ++filled;
    }
  }
#endif
  // Traffic arrived even if the injector swallowed all of it: report a
  // datagram wakeup (possibly with count 0), not a timeout, so the caller's
  // timer pass runs with fresh timing either way.
  return {RecvStatus::kDatagram, filled};
}

RecvResult UdpChannel::recv_from(Endpoint& src, std::span<std::uint8_t> buf) {
  if (faults_) {
    if (auto owed = faults_->pop_ready_recv()) {
      const std::size_t n = std::min(buf.size(), owed->bytes.size());
      std::memcpy(buf.data(), owed->bytes.data(), n);
      src = Endpoint{owed->src_ip, owed->src_port};
      return {RecvStatus::kDatagram, n};
    }
  }
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  ++recv_calls_;
  const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                               reinterpret_cast<sockaddr*>(&sa), &len);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return {RecvStatus::kTimeout, 0};
    }
    return {RecvStatus::kError, 0};
  }
  src = Endpoint::from_sockaddr(sa);
  if (faults_) {
    // In-place filtering: the delivered bytes are already where they belong.
    auto delivered = faults_->filter_recv(
        {buf.data(), static_cast<std::size_t>(n)}, src.ip_host_order,
        src.port);
    if (!delivered) return {RecvStatus::kTimeout, 0};  // swallowed by the net
    return {RecvStatus::kDatagram, std::min(buf.size(), *delivered)};
  }
  return {RecvStatus::kDatagram, static_cast<std::size_t>(n)};
}

UdpChannel::RxState::~RxState() {
  if (slab) {
    for (int id : slab_ids) {
      if (id >= 0) slab->release(id);
    }
  }
}

UdpChannel::RecvBatchResult UdpChannel::rx_round(RxState& st, RxSinkFn sink,
                                                 void* ctx) {
  const std::size_t batch = std::max<std::size_t>(st.batch, 1);
  if (st.slots.size() != batch) {
    st.slots.resize(batch);
    st.slab_ids.assign(batch, -1);
  }
  // Arm every slot: a refcounted slab slot when one is free (zero-copy
  // hand-off to the dispatch layer), the private arena otherwise.  Slots
  // stay armed across rounds; only delivered ones are released and re-armed.
  for (std::size_t i = 0; i < batch; ++i) {
    if (st.slab_ids[i] < 0 && st.slab) st.slab_ids[i] = st.slab->acquire();
    if (st.slab_ids[i] >= 0) {
      st.slots[i].buf = {st.slab->data(st.slab_ids[i]),
                         st.slab->slot_bytes()};
    } else {
      if (st.arena.size() < batch * st.slot_bytes) {
        st.arena.resize(batch * st.slot_bytes);
      }
      st.slots[i].buf = {st.arena.data() + i * st.slot_bytes, st.slot_bytes};
    }
    st.slots[i].bytes = 0;
    st.slots[i].gro_size = 0;
  }
  const RecvBatchResult res = recv_batch({st.slots.data(), batch});
  for (std::size_t i = 0; i < res.count; ++i) {
    const RecvSlot& s = st.slots[i];
    RxDelivery d;
    d.data = {s.buf.data(), s.bytes};
    d.src = s.src;
    d.gro_size = s.gro_size;
    d.slab = st.slab_ids[i] >= 0 ? st.slab.get() : nullptr;
    d.slab_slot = st.slab_ids[i];
    sink(ctx, d);
    if (st.slab_ids[i] >= 0) {
      st.slab->release(st.slab_ids[i]);  // sink add_ref'd if it kept the slot
      st.slab_ids[i] = -1;
    }
  }
  return res;
}

}  // namespace udtr::udt
