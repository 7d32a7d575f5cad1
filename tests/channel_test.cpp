#include "udt/channel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <thread>
#include <vector>

#include "udt/buffers.hpp"
#include "udt/fault.hpp"

namespace udtr::udt {
namespace {

TEST(Endpoint, ResolvesLocalhost) {
  const auto ep = Endpoint::resolve("127.0.0.1", 9000);
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->ip_host_order, 0x7F000001u);
  EXPECT_EQ(ep->port, 9000);
}

TEST(Endpoint, SockaddrRoundTrip) {
  const Endpoint ep{0x7F000001u, 12345};
  EXPECT_EQ(Endpoint::from_sockaddr(ep.to_sockaddr()), ep);
}

TEST(UdpChannel, OpensEphemeralPort) {
  UdpChannel ch;
  ASSERT_TRUE(ch.open(0));
  EXPECT_TRUE(ch.is_open());
  EXPECT_GT(ch.local_port(), 0);
}

TEST(UdpChannel, SendReceiveDatagram) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  const Endpoint to{0x7F000001u, b.local_port()};
  EXPECT_EQ(a.send_to(to, msg), 5);
  std::vector<std::uint8_t> buf(64);
  Endpoint src;
  const RecvResult r = b.recv_from(src, buf);
  EXPECT_EQ(r.status, RecvStatus::kDatagram);
  EXPECT_EQ(r.bytes, 5u);
  EXPECT_EQ(src.port, a.local_port());
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), buf.begin()));
}

TEST(UdpChannel, RecvTimesOutCleanly) {
  UdpChannel ch;
  ASSERT_TRUE(ch.open(0));
  ch.set_recv_timeout(std::chrono::milliseconds{50});
  std::vector<std::uint8_t> buf(64);
  Endpoint src;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ch.recv_from(src, buf).status, RecvStatus::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds{40});
}

// Regression: a genuine zero-length datagram used to be indistinguishable
// from a timeout (both returned 0).
TEST(UdpChannel, ZeroLengthDatagramIsNotATimeout) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const Endpoint to{0x7F000001u, b.local_port()};
  EXPECT_EQ(a.send_to(to, {}), 0);
  std::vector<std::uint8_t> buf(64);
  Endpoint src;
  const RecvResult r = b.recv_from(src, buf);
  EXPECT_EQ(r.status, RecvStatus::kDatagram);
  EXPECT_EQ(r.bytes, 0u);
  EXPECT_EQ(src.port, a.local_port());
  // ... and with nothing pending, the next receive really is a timeout.
  b.set_recv_timeout(std::chrono::milliseconds{50});
  EXPECT_EQ(b.recv_from(src, buf).status, RecvStatus::kTimeout);
}

TEST(UdpChannel, LossInjectorDropsOnlyLargeDatagrams) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  // Drop all data-sized datagrams; control-sized ones pass.
  a.set_fault_injector(make_loss_injector(1.0, 7, /*data_min_bytes=*/32));
  b.set_recv_timeout(std::chrono::milliseconds{50});
  const Endpoint to{0x7F000001u, b.local_port()};

  const std::vector<std::uint8_t> big(100, 0xAB);
  const std::vector<std::uint8_t> small(16, 0xCD);
  a.send_to(to, big);    // dropped
  a.send_to(to, small);  // control-sized: passes
  std::vector<std::uint8_t> buf(256);
  Endpoint src;
  RecvResult r = b.recv_from(src, buf);
  EXPECT_EQ(r.status, RecvStatus::kDatagram);
  EXPECT_EQ(r.bytes, 16u);
  EXPECT_EQ(b.recv_from(src, buf).status, RecvStatus::kTimeout);
  EXPECT_EQ(a.datagrams_dropped(), 1u);
}

TEST(UdpChannel, InjectorDuplicatesDatagrams) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  FaultConfig cfg;
  cfg.send.dup_p = 1.0;
  cfg.seed = 3;
  a.set_fault_injector(std::make_shared<FaultInjector>(cfg));
  b.set_recv_timeout(std::chrono::milliseconds{200});
  const Endpoint to{0x7F000001u, b.local_port()};
  const std::vector<std::uint8_t> msg{9, 9, 9};
  a.send_to(to, msg);
  std::vector<std::uint8_t> buf(64);
  Endpoint src;
  EXPECT_EQ(b.recv_from(src, buf).bytes, 3u);
  EXPECT_EQ(b.recv_from(src, buf).bytes, 3u);  // the duplicate
  EXPECT_EQ(a.fault_injector()->stats(FaultDir::kSend).duplicated, 1u);
}

TEST(UdpChannel, InjectorReordersHeldDatagram) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  FaultConfig cfg;
  // Deterministic reordering: every data-sized datagram is held until two
  // later sends overtake it; control-sized datagrams pass straight through.
  cfg.send.reorder_p = 1.0;
  cfg.send.reorder_hold = 2;
  cfg.send.data_only = true;
  cfg.send.data_min_bytes = 32;
  cfg.seed = 4;
  auto inj = std::make_shared<FaultInjector>(cfg);
  a.set_fault_injector(inj);
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const Endpoint to{0x7F000001u, b.local_port()};
  const std::vector<std::uint8_t> big(100, 0xAA);  // held
  const std::vector<std::uint8_t> s1{1};           // overtakes
  const std::vector<std::uint8_t> s2{2};           // overtakes + releases
  a.send_to(to, big);
  a.send_to(to, s1);
  a.send_to(to, s2);
  std::vector<std::uint8_t> buf(256);
  Endpoint src;
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 3; ++i) {
    const RecvResult r = b.recv_from(src, buf);
    ASSERT_EQ(r.status, RecvStatus::kDatagram);
    sizes.push_back(r.bytes);
  }
  // The big datagram left first but arrives last.
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 100}));
  EXPECT_EQ(inj->stats(FaultDir::kSend).reordered, 1u);
}

TEST(UdpChannel, InjectorOutageDropsEverything) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  auto inj = std::make_shared<FaultInjector>(FaultConfig{});
  a.set_fault_injector(inj);
  b.set_recv_timeout(std::chrono::milliseconds{50});
  const Endpoint to{0x7F000001u, b.local_port()};
  inj->schedule_outage(std::chrono::milliseconds{0},
                       std::chrono::milliseconds{100});
  const std::vector<std::uint8_t> msg{1, 2, 3};
  a.send_to(to, msg);
  std::vector<std::uint8_t> buf(8);
  Endpoint src;
  EXPECT_EQ(b.recv_from(src, buf).status, RecvStatus::kTimeout);
  std::this_thread::sleep_for(std::chrono::milliseconds{120});
  a.send_to(to, msg);  // outage over: goes through
  b.set_recv_timeout(std::chrono::milliseconds{500});
  EXPECT_EQ(b.recv_from(src, buf).bytes, 3u);
  EXPECT_EQ(inj->stats(FaultDir::kSend).outage_dropped, 1u);
}

TEST(UdpChannel, InjectorCorruptionFlipsExactlyOneBit) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  FaultConfig cfg;
  cfg.recv.corrupt_p = 1.0;
  cfg.seed = 11;
  b.set_fault_injector(std::make_shared<FaultInjector>(cfg));
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const Endpoint to{0x7F000001u, b.local_port()};
  const std::vector<std::uint8_t> msg(32, 0x00);
  a.send_to(to, msg);
  std::vector<std::uint8_t> buf(64);
  Endpoint src;
  const RecvResult r = b.recv_from(src, buf);
  ASSERT_EQ(r.bytes, 32u);
  int set_bits = 0;
  for (std::size_t i = 0; i < r.bytes; ++i) {
    set_bits += __builtin_popcount(buf[i]);
  }
  EXPECT_EQ(set_bits, 1);  // all zeros in, exactly one flipped bit out
}

// --- batched I/O ------------------------------------------------------------

std::vector<UdpChannel::RecvSlot> make_slots(std::vector<std::uint8_t>& arena,
                                             std::size_t count,
                                             std::size_t cap) {
  arena.assign(count * cap, 0);
  std::vector<UdpChannel::RecvSlot> slots(count);
  for (std::size_t i = 0; i < count; ++i) {
    slots[i].buf = std::span{arena.data() + i * cap, cap};
  }
  return slots;
}

TEST(UdpChannelBatch, SendRecvBatchRoundTripsByteExactly) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const Endpoint to{0x7F000001u, b.local_port()};

  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<std::span<const std::uint8_t>> views;
  for (std::uint8_t i = 0; i < 12; ++i) {
    msgs.emplace_back(std::size_t{20} + i, i);  // distinct sizes and fill
    views.emplace_back(msgs.back().data(), msgs.back().size());
  }
  EXPECT_EQ(a.send_batch(to, views), 12u);
  const std::uint64_t syscalls = a.send_syscalls();
  EXPECT_GE(syscalls, 1u);
  EXPECT_LE(syscalls, 12u);  // batched: ideally 1 on Linux

  std::vector<std::uint8_t> arena;
  auto slots = make_slots(arena, 16, 256);
  std::size_t got = 0;
  while (got < 12) {
    const auto r = b.recv_batch(std::span{slots}.subspan(got));
    ASSERT_EQ(r.status, RecvStatus::kDatagram);
    ASSERT_GT(r.count, 0u);
    got += r.count;
  }
  ASSERT_EQ(got, 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(slots[i].bytes, msgs[i].size());
    EXPECT_EQ(slots[i].src.port, a.local_port());
    EXPECT_TRUE(std::equal(msgs[i].begin(), msgs[i].end(),
                           slots[i].buf.begin()))
        << "datagram " << i << " corrupted in batch transit";
  }
}

TEST(UdpChannelBatch, RoundTripsByteExactlyWithFaultInjectorActive) {
  // The acceptance case: batch paths must route every datagram through the
  // injector individually and still deliver content byte-exactly when no
  // mutation fires (all probabilities zero but the injector installed on
  // both directions).
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  auto send_inj = std::make_shared<FaultInjector>(FaultConfig{});
  auto recv_inj = std::make_shared<FaultInjector>(FaultConfig{});
  a.set_fault_injector(send_inj);
  b.set_fault_injector(recv_inj);
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const Endpoint to{0x7F000001u, b.local_port()};

  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<std::span<const std::uint8_t>> views;
  for (std::uint8_t i = 0; i < 10; ++i) {
    msgs.emplace_back(std::size_t{40} + 7 * i, static_cast<std::uint8_t>(
                                                   0xA0 + i));
    views.emplace_back(msgs.back().data(), msgs.back().size());
  }
  EXPECT_EQ(a.send_batch(to, views), 10u);

  std::vector<std::uint8_t> arena;
  auto slots = make_slots(arena, 16, 256);
  std::size_t got = 0;
  while (got < 10) {
    const auto r = b.recv_batch(std::span{slots}.subspan(got));
    ASSERT_EQ(r.status, RecvStatus::kDatagram);
    got += r.count;
  }
  ASSERT_EQ(got, 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(slots[i].bytes, msgs[i].size());
    EXPECT_TRUE(std::equal(msgs[i].begin(), msgs[i].end(),
                           slots[i].buf.begin()));
  }
  // Every datagram was seen individually by both injectors.
  EXPECT_EQ(send_inj->stats(FaultDir::kSend).seen, 10u);
  EXPECT_EQ(recv_inj->stats(FaultDir::kRecv).seen, 10u);
}

TEST(UdpChannelBatch, InjectorDropsApplyPerDatagramAcrossABatch) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  FaultConfig cfg;
  // Deterministic per-datagram filter: drop data-sized datagrams, pass
  // control-sized ones — inside one batch.
  cfg.send.drop_p = 1.0;
  cfg.send.data_only = true;
  cfg.send.data_min_bytes = 32;
  cfg.seed = 5;
  auto inj = std::make_shared<FaultInjector>(cfg);
  a.set_fault_injector(inj);
  b.set_recv_timeout(std::chrono::milliseconds{200});
  const Endpoint to{0x7F000001u, b.local_port()};

  const std::vector<std::uint8_t> big(100, 0xEE);
  const std::vector<std::uint8_t> small(16, 0x11);
  const std::array<std::span<const std::uint8_t>, 4> batch{
      std::span<const std::uint8_t>{big}, std::span<const std::uint8_t>{small},
      std::span<const std::uint8_t>{big}, std::span<const std::uint8_t>{small}};
  // send_batch reports all accepted — from the sender's view they left.
  EXPECT_EQ(a.send_batch(to, batch), 4u);
  EXPECT_EQ(inj->stats(FaultDir::kSend).dropped, 2u);

  std::vector<std::uint8_t> arena;
  auto slots = make_slots(arena, 8, 256);
  std::size_t got = 0;
  while (got < 2) {
    const auto r = b.recv_batch(std::span{slots}.subspan(got));
    ASSERT_EQ(r.status, RecvStatus::kDatagram);
    got += r.count;
  }
  EXPECT_EQ(got, 2u);  // only the control-sized pair survived
  EXPECT_EQ(slots[0].bytes, 16u);
  EXPECT_EQ(slots[1].bytes, 16u);
  EXPECT_EQ(b.recv_batch(slots).status, RecvStatus::kTimeout);
}

TEST(UdpChannelBatch, RecvBatchDeliversInjectorOwedDuplicates) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  FaultConfig cfg;
  cfg.recv.dup_p = 1.0;  // every received datagram owes a duplicate
  cfg.seed = 9;
  auto inj = std::make_shared<FaultInjector>(cfg);
  b.set_fault_injector(inj);
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const Endpoint to{0x7F000001u, b.local_port()};

  const std::vector<std::uint8_t> msg{5, 6, 7, 8};
  a.send_to(to, msg);

  std::vector<std::uint8_t> arena;
  auto slots = make_slots(arena, 4, 64);
  std::size_t got = 0;
  while (got < 2) {
    const auto r = b.recv_batch(std::span{slots}.subspan(got));
    ASSERT_EQ(r.status, RecvStatus::kDatagram);
    got += r.count;
  }
  // Original and owed duplicate, both byte-exact, both with the source.
  EXPECT_EQ(got, 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(slots[i].bytes, 4u);
    EXPECT_EQ(slots[i].src.port, a.local_port());
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), slots[i].buf.begin()));
  }
  EXPECT_EQ(inj->ready_recv_count(), 0u);
}

TEST(UdpChannelBatch, RecvBatchTimesOutCleanly) {
  UdpChannel ch;
  ASSERT_TRUE(ch.open(0));
  ch.set_recv_timeout(std::chrono::milliseconds{50});
  std::vector<std::uint8_t> arena;
  auto slots = make_slots(arena, 4, 64);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = ch.recv_batch(slots);
  EXPECT_EQ(r.status, RecvStatus::kTimeout);
  EXPECT_EQ(r.count, 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds{40});
}

// --- rx_round under receive faults -------------------------------------------

// Deterministic payload for datagram i of a run: length and bytes are pure
// functions of (seed, i).
std::vector<std::uint8_t> seeded_payload(std::uint64_t seed, std::size_t i) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + i * 0xBF58476D1CE4E5B9ull;
  const auto next = [&x] {
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  };
  const std::size_t len = 24 + static_cast<std::size_t>(next() % 480);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(next());
  return p;
}

void collect_sink(void* ctx, const UdpChannel::RxDelivery& d) {
  static_cast<std::vector<std::vector<std::uint8_t>>*>(ctx)->emplace_back(
      d.data.begin(), d.data.end());
}

// Order-preserving receive faults (drop / corrupt / truncate) through the
// slab-backed rx_round: the delivered stream must be byte-identical to what
// a same-seeded injector makes of the sent stream datagram by datagram —
// per-datagram fault semantics survive recvmmsg batching and slab arming.
TEST(UdpChannel, RxRoundFaultedStreamMatchesInjectorReference) {
  FaultConfig fc;
  fc.recv.drop_p = 0.2;
  fc.recv.corrupt_p = 0.1;
  fc.recv.truncate_p = 0.1;
  fc.seed = 42;
  constexpr std::size_t kCount = 240;
  constexpr std::size_t kBatch = 8;

  UdpChannel tx;
  UdpChannel rx;
  ASSERT_TRUE(tx.open(0));
  ASSERT_TRUE(rx.open(0));
  rx.set_recv_timeout(std::chrono::milliseconds{10});
  auto inj = std::make_shared<FaultInjector>(fc);
  rx.set_fault_injector(inj);
  UdpChannel::RxState st;
  st.slab = std::make_shared<RecvSlab>(2048, 64);
  st.batch = kBatch;
  st.slot_bytes = 1024;

  std::vector<std::vector<std::uint8_t>> got;
  const Endpoint dst{0x7F000001u, rx.local_port()};
  for (std::size_t base = 0; base < kCount; base += kBatch) {
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<UdpChannel::TxDatagram> dgrams;
    payloads.reserve(kBatch);  // spans below point into these vectors
    for (std::size_t i = base; i < base + kBatch; ++i) {
      payloads.push_back(seeded_payload(fc.seed, i));
      dgrams.push_back({{payloads.back().data(), payloads.back().size()}, {}, false});
    }
    ASSERT_EQ(tx.send_gather(dst, dgrams), dgrams.size());
    // Drain between small batches so the socket buffer never overflows:
    // a kernel drop would break the comparison.
    while (rx.rx_round(st, &collect_sink, &got).status !=
           RecvStatus::kTimeout) {
    }
  }

  FaultInjector ref{fc};
  std::vector<std::vector<std::uint8_t>> want;
  for (std::size_t i = 0; i < kCount; ++i) {
    auto p = seeded_payload(fc.seed, i);
    if (auto n = ref.filter_recv(p, 0x7F000001u, tx.local_port())) {
      p.resize(*n);
      want.push_back(std::move(p));
    }
  }
  ASSERT_GT(want.size(), 100u);  // most of 240 survive a 20% drop
  EXPECT_EQ(got, want);
  EXPECT_EQ(inj->stats(FaultDir::kRecv).seen, kCount);
  EXPECT_EQ(rx.kernel_rx_drops(), 0u);
}

// TSan target: the offload latches (gso_ok_, gro_enabled_) are written by
// a first send probing UDP_SEGMENT and read/written by a first receive
// enabling GRO, concurrently.  The assertion is the absence of a data-race
// report.
TEST(UdpChannel, OffloadLatchesRaceFreeAcrossFirstSendAndFirstRecv) {
  UdpChannel a;
  UdpChannel b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  a.set_recv_timeout(std::chrono::milliseconds{5});
  b.set_recv_timeout(std::chrono::milliseconds{5});
  const Endpoint to_b{0x7F000001u, b.local_port()};

  std::thread sender([&] {
    std::vector<std::uint8_t> payload(256, 0xAB);
    std::vector<UdpChannel::TxDatagram> run(
        4, UdpChannel::TxDatagram{{payload.data(), payload.size()}, {}, false});
    for (int i = 0; i < 50; ++i) {
      (void)a.send_gather(to_b, run, true);  // first call probes GSO
      (void)a.gso_active();
    }
  });
  std::thread receiver([&] {
    (void)b.enable_gro();  // flips gro_enabled_ while sends are in flight
    std::vector<std::uint8_t> buf(4096);
    Endpoint src;
    for (int i = 0; i < 50; ++i) {
      (void)b.recv_from(src, buf);
      (void)b.gro_enabled();
    }
  });
  sender.join();
  receiver.join();
}

// --- kernel receive-queue drops (SO_RXQ_OVFL) --------------------------------

// Drains everything queued on `ch` through recv_batch; returns the count.
std::size_t drain(UdpChannel& ch) {
  std::vector<std::uint8_t> arena;
  auto slots = make_slots(arena, 16, 2048);
  std::size_t n = 0;
  for (;;) {
    const auto r = ch.recv_batch(slots);
    if (r.status != RecvStatus::kDatagram) return n;
    n += r.count;
  }
}

TEST(UdpChannel, KernelRxDropsCountsReceiveQueueOverflow) {
  UdpChannel tx;
  UdpChannel rx;
  ASSERT_TRUE(tx.open(0));
  ASSERT_TRUE(rx.open(0));
  rx.set_recv_timeout(std::chrono::milliseconds{20});
  ASSERT_TRUE(rx.set_buffer_sizes(4096, 4096));  // kernel clamps to its min
  EXPECT_GT(rx.rcvbuf_bytes(), 0);
  EXPECT_LE(rx.rcvbuf_bytes(), 4096);
  const Endpoint dst{0x7F000001u, rx.local_port()};

  // A burst into a queue nobody reads: loopback delivers synchronously, so
  // when send_batch returns the overflow has already been dropped.
  const std::vector<std::uint8_t> payload(1000, 0x5A);
  constexpr std::size_t kBurst = 64;
  const std::vector<std::span<const std::uint8_t>> burst(kBurst, payload);
  ASSERT_EQ(tx.send_batch(dst, burst), kBurst);
  const std::size_t queued = drain(rx);
  ASSERT_GT(queued, 0u);
  ASSERT_LT(queued, kBurst);
  // Everything queued before the overflow was stamped with the count at
  // its enqueue time; the first datagram queued after it carries the drops.
  ASSERT_EQ(tx.send_to(dst, payload), 1000);
  ASSERT_EQ(drain(rx), 1u);
  EXPECT_EQ(rx.kernel_rx_drops(), kBurst - queued);
}

TEST(UdpChannel, KernelRxDropsStaysZeroOnACleanExchange) {
  UdpChannel tx;
  UdpChannel rx;
  ASSERT_TRUE(tx.open(0));
  ASSERT_TRUE(rx.open(0));
  rx.set_recv_timeout(std::chrono::milliseconds{20});
  const Endpoint dst{0x7F000001u, rx.local_port()};
  const std::vector<std::uint8_t> payload(1000, 0x5A);
  const std::vector<std::span<const std::uint8_t>> burst(8, payload);
  ASSERT_EQ(tx.send_batch(dst, burst), 8u);
  EXPECT_EQ(drain(rx), 8u);
  EXPECT_EQ(rx.kernel_rx_drops(), 0u);
}

TEST(UdpChannel, MoveTransfersOwnership) {
  UdpChannel a;
  ASSERT_TRUE(a.open(0));
  const auto port = a.local_port();
  UdpChannel b{std::move(a)};
  EXPECT_TRUE(b.is_open());
  EXPECT_EQ(b.local_port(), port);
  EXPECT_FALSE(a.is_open());  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace udtr::udt
