// Zero-copy datapath coverage: SndBuffer chunk pinning across unlocked
// sends, RecvSlab reference-counted slot ownership moving into RcvBuffer,
// the overlapped user buffer under out-of-order arrival, the scatter-gather
// channel send (two-iovec and GSO-run forms), GRO grid parsing, and a
// byte-exact socket round trip under reordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "udt/buffers.hpp"
#include "udt/channel.hpp"
#include "udt/packet.hpp"
#include "udt/socket.hpp"

namespace udtr::udt {
namespace {

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::mt19937_64 rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

// --- SndBuffer pinning -----------------------------------------------------

TEST(SndBufferPin, AckDuringPinParksStorageUntilUnpin) {
  SndBuffer sb{100, 10000};
  std::vector<std::uint8_t> data(500);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_EQ(sb.add(data), 500u);

  // Capture the spans a sender syscall would hold as iovecs.
  const auto span0 = *sb.chunk(0);
  const auto span1 = *sb.chunk(1);
  sb.pin(0, 3);

  // An ACK lands mid-syscall: the chunks leave the ring, but their storage
  // must survive until unpin() — the kernel may still be reading it.
  sb.ack_up_to(2);
  EXPECT_FALSE(sb.chunk(0).has_value());
  EXPECT_FALSE(sb.chunk(1).has_value());
  EXPECT_TRUE(std::equal(data.begin(), data.begin() + 100, span0.begin()));
  EXPECT_TRUE(std::equal(data.begin() + 100, data.begin() + 200,
                         span1.begin()));

  EXPECT_TRUE(sb.pinned_below(3));
  EXPECT_FALSE(sb.pinned_below(0));
  EXPECT_TRUE(sb.unpin());
  EXPECT_FALSE(sb.pinned_below(3));
  EXPECT_FALSE(sb.unpin());  // idempotent: nothing left pinned
}

TEST(SndBufferPin, UnpinRecyclesStorageParkedByAck) {
  // Parked storage must stay out of the free list while the pin holds it,
  // and return to it (so add() reuses it instead of allocating) on unpin.
  SndBuffer sb{100, 10000};
  ASSERT_EQ(sb.add(pattern(200, 0xCD)), 200u);
  const std::uint8_t* parked0 = sb.chunk(0)->data();
  const std::uint8_t* parked1 = sb.chunk(1)->data();
  sb.pin(0, 2);
  sb.ack_up_to(2);  // both chunks parked under the pin
  ASSERT_EQ(sb.add(pattern(100, 0x11)), 100u);
  const std::uint8_t* fresh = sb.chunk(2)->data();
  EXPECT_NE(fresh, parked0);
  EXPECT_NE(fresh, parked1);
  EXPECT_EQ(parked0[0], 0xCD);  // still readable by the in-flight syscall

  EXPECT_TRUE(sb.unpin());
  // Same-size allocations made now would land on the parked blocks had
  // unpin() freed them instead of recycling them.
  const auto decoy0 = pattern(100, 0x33);
  const auto decoy1 = pattern(100, 0x44);
  ASSERT_EQ(sb.add(pattern(200, 0x22)), 200u);
  const std::uint8_t* reused3 = sb.chunk(3)->data();
  const std::uint8_t* reused4 = sb.chunk(4)->data();
  EXPECT_TRUE((reused3 == parked0 && reused4 == parked1) ||
              (reused3 == parked1 && reused4 == parked0));
}

TEST(SndBufferPin, AckOutsidePinRangeNeedsNoParking) {
  SndBuffer sb{100, 10000};
  ASSERT_EQ(sb.add(pattern(300, 0xAB)), 300u);
  sb.pin(2, 3);        // the syscall only covers chunk 2
  sb.ack_up_to(2);     // chunks 0-1 are outside the pin: plain recycle
  EXPECT_TRUE(sb.pinned_below(3));
  EXPECT_TRUE(sb.unpin());
  EXPECT_EQ(sb.chunk(2)->size(), 100u);
}

// --- RecvSlab ownership ----------------------------------------------------

TEST(RecvSlab, AcquireExhaustionAndRefCounting) {
  RecvSlab slab{256, 2};
  EXPECT_EQ(slab.free_count(), 2u);
  const int a = slab.acquire();
  const int b = slab.acquire();
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_EQ(slab.acquire(), -1);  // exhausted: callers fall back to copying

  slab.add_ref(a);    // a parked payload reference
  slab.release(a);    // the receiver's own reference drops...
  EXPECT_EQ(slab.free_count(), 0u);  // ...but the payload ref holds the slot
  slab.release(a);    // last reference: slot returns
  EXPECT_EQ(slab.free_count(), 1u);
  slab.release(b);
  EXPECT_EQ(slab.free_count(), 2u);
}

TEST(RcvBufferSlots, StoreRefParksSlabSlotUntilRead) {
  RecvSlab slab{256, 4};
  RcvBuffer rb{100, 64};

  const auto a = pattern(100, 0x11);
  const auto b = pattern(100, 0x22);
  const int sb_ = slab.acquire();  // out-of-order packet arrives first
  ASSERT_GE(sb_, 0);
  std::memcpy(slab.data(sb_), b.data(), b.size());
  ASSERT_TRUE(rb.store_ref(1, {slab.data(sb_), b.size()}, &slab, sb_));
  slab.release(sb_);  // receiver thread done parsing the slot
  EXPECT_EQ(slab.free_count(), 3u);  // parked payload still owns it

  const int sa = slab.acquire();
  ASSERT_GE(sa, 0);
  std::memcpy(slab.data(sa), a.data(), a.size());
  ASSERT_TRUE(rb.store_ref(0, {slab.data(sa), a.size()}, &slab, sa));
  slab.release(sa);
  EXPECT_EQ(rb.contiguous_end(), 2);

  std::vector<std::uint8_t> out(200);
  EXPECT_EQ(rb.read(out), 200u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), out.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), out.begin() + 100));
  // Every slot is back in the free list once the reader consumed them.
  EXPECT_EQ(slab.free_count(), 4u);
}

TEST(RcvBufferSlots, UserBufferWithOutOfOrderSlabArrivals) {
  RecvSlab slab{256, 4};
  RcvBuffer rb{100, 64};
  std::vector<std::uint8_t> user(250);
  EXPECT_EQ(rb.register_user_buffer(user), 0u);

  // Packet 1 overtakes packet 0: it must park (by reference) in the ring
  // even though the user buffer is armed.
  const auto a = pattern(100, 0x31);
  const auto b = pattern(100, 0x32);
  const int sb_ = slab.acquire();
  ASSERT_GE(sb_, 0);
  std::memcpy(slab.data(sb_), b.data(), b.size());
  ASSERT_TRUE(rb.store_ref(1, {slab.data(sb_), b.size()}, &slab, sb_));
  slab.release(sb_);
  EXPECT_EQ(rb.user_buffer_filled(), 0u);

  // The gap fills: packet 0 goes straight to the user buffer, and the
  // parked packet 1 drains right behind it, releasing its slab slot.
  const int sa = slab.acquire();
  ASSERT_GE(sa, 0);
  std::memcpy(slab.data(sa), a.data(), a.size());
  ASSERT_TRUE(rb.store_ref(0, {slab.data(sa), a.size()}, &slab, sa));
  slab.release(sa);

  EXPECT_EQ(rb.user_buffer_filled(), 200u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), user.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), user.begin() + 100));
  EXPECT_EQ(slab.free_count(), 4u);
  EXPECT_EQ(rb.release_user_buffer(), 200u);
}

// --- scatter-gather channel send -------------------------------------------

TEST(ZeroCopyChannel, SendGatherScattersHeadAndBody) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const Endpoint to{0x7F000001u, b.local_port()};

  // Distinct head/body storage per datagram, varying sizes (no GSO run).
  std::vector<std::vector<std::uint8_t>> heads, bodies;
  std::vector<UdpChannel::TxDatagram> dgrams;
  for (std::uint8_t i = 0; i < 6; ++i) {
    heads.push_back(pattern(16, static_cast<std::uint8_t>(0xA0 + i)));
    bodies.push_back(pattern(std::size_t{40} + 13u * i,
                             static_cast<std::uint8_t>(0xB0 + i)));
  }
  for (std::size_t i = 0; i < heads.size(); ++i) {
    dgrams.push_back({heads[i], bodies[i], false});
  }
  EXPECT_EQ(a.send_gather(to, dgrams), dgrams.size());

  for (std::size_t i = 0; i < dgrams.size(); ++i) {
    Endpoint src;
    std::vector<std::uint8_t> buf(2048);
    const auto r = b.recv_from(src, buf);
    ASSERT_EQ(r.status, RecvStatus::kDatagram) << "datagram " << i;
    ASSERT_EQ(r.bytes, 16u + bodies[i].size());
    EXPECT_TRUE(std::equal(heads[i].begin(), heads[i].end(), buf.begin()));
    EXPECT_TRUE(std::equal(bodies[i].begin(), bodies[i].end(),
                           buf.begin() + 16));
  }
}

TEST(ZeroCopyChannel, GsoRunArrivesAsIndividualDatagrams) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const Endpoint to{0x7F000001u, b.local_port()};

  // An equal-size run: eligible for one UDP_SEGMENT super-datagram.  The
  // receiver is not GRO-enabled, so the kernel must resegment — wire
  // behavior identical to six plain sends.
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<UdpChannel::TxDatagram> dgrams;
  for (std::uint8_t i = 0; i < 6; ++i) {
    msgs.push_back(make_payload(100, 100 + i));
    dgrams.push_back({{msgs.back().data(), 16},
                      {msgs.back().data() + 16, 84},
                      false});
  }
  EXPECT_EQ(a.send_gather(to, dgrams), 6u);
  if (UdpChannel::offload_supported() && a.gso_active()) {
    EXPECT_GE(a.gso_super_datagrams(), 1u);
  }

  for (std::size_t i = 0; i < 6; ++i) {
    Endpoint src;
    std::vector<std::uint8_t> buf(2048);
    const auto r = b.recv_from(src, buf);
    ASSERT_EQ(r.status, RecvStatus::kDatagram) << "datagram " << i;
    ASSERT_EQ(r.bytes, 100u);
    EXPECT_TRUE(std::equal(msgs[i].begin(), msgs[i].end(), buf.begin()))
        << "datagram " << i << " corrupted through the GSO path";
  }
}

TEST(ZeroCopyChannel, GroGridParsesBackToLogicalDatagrams) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  b.set_recv_timeout(std::chrono::milliseconds{500});
  const Endpoint to{0x7F000001u, b.local_port()};
  const bool gro = b.enable_gro();  // may be refused off-Linux

  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<UdpChannel::TxDatagram> dgrams;
  for (std::uint8_t i = 0; i < 8; ++i) {
    msgs.push_back(make_payload(120, 200 + i));
    dgrams.push_back({{msgs.back().data(), 16},
                      {msgs.back().data() + 16, 104},
                      false});
  }
  EXPECT_EQ(a.send_gather(to, dgrams), 8u);

  // Whether the kernel coalesced (gro_size > 0) or not, walking the
  // segment grid must reproduce the logical datagrams byte-exactly.
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<std::uint8_t> arena(4 * 65535);
  std::vector<UdpChannel::RecvSlot> slots(4);
  while (got.size() < 8) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i].buf = std::span{arena.data() + i * 65535, 65535};
    }
    const auto r = b.recv_batch(slots);
    ASSERT_EQ(r.status, RecvStatus::kDatagram);
    for (std::size_t i = 0; i < r.count; ++i) {
      for_each_datagram(
          {slots[i].buf.data(), slots[i].bytes}, slots[i].gro_size,
          [&](std::span<const std::uint8_t> pkt) {
            got.emplace_back(pkt.begin(), pkt.end());
          });
    }
  }
  ASSERT_EQ(got.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i], msgs[i]) << "logical datagram " << i;
  }
  (void)gro;
}

TEST(ZeroCopyChannel, InjectorSeesEachGatheredDatagramIndividually) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open(0));
  ASSERT_TRUE(b.open(0));
  b.set_recv_timeout(std::chrono::milliseconds{200});
  const Endpoint to{0x7F000001u, b.local_port()};

  FaultConfig cfg;
  cfg.send.drop_p = 0.5;
  cfg.seed = 7;
  auto faults = std::make_shared<FaultInjector>(cfg);
  a.set_fault_injector(faults);
  // The injector owns per-datagram semantics: GRO must refuse while one is
  // installed on the receive side.
  b.set_fault_injector(faults);
  EXPECT_FALSE(b.enable_gro());

  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<UdpChannel::TxDatagram> dgrams;
  for (int i = 0; i < 200; ++i) {
    msgs.push_back(make_payload(100, 300 + static_cast<std::uint64_t>(i)));
    dgrams.push_back({{msgs.back().data(), 16},
                      {msgs.back().data() + 16, 84},
                      false});
  }
  EXPECT_EQ(a.send_gather(to, dgrams), 200u);
  // ~50% forward loss: the injector mutated the stream per logical
  // datagram, pre-GSO — not per syscall or per super-datagram.
  const auto dropped = faults->stats(FaultDir::kSend).dropped;
  EXPECT_GT(dropped, 50u);
  EXPECT_LT(dropped, 150u);

  std::size_t received = 0;
  Endpoint src;
  std::vector<std::uint8_t> buf(2048);
  while (b.recv_from(src, buf).status == RecvStatus::kDatagram) ++received;
  EXPECT_EQ(received, 200u - dropped);
}

// --- end-to-end: overlapped receive under reordering, and parity -----------

struct Pair {
  std::unique_ptr<Socket> listener, client, server;
};

Pair make_pair_opts(SocketOptions server_opts, SocketOptions client_opts) {
  Pair p;
  p.listener = Socket::listen(0, server_opts);
  EXPECT_NE(p.listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return p.listener->accept(std::chrono::seconds{10});
  });
  p.client =
      Socket::connect("127.0.0.1", p.listener->local_port(), client_opts);
  p.server = accepted.get();
  EXPECT_NE(p.client, nullptr);
  EXPECT_NE(p.server, nullptr);
  return p;
}

std::vector<std::uint8_t> pump(Socket& from, Socket& to,
                               const std::vector<std::uint8_t>& payload) {
  auto send_done = std::async(std::launch::async, [&] {
    const std::size_t sent = from.send(payload);
    from.flush(std::chrono::seconds{60});
    return sent;
  });
  std::vector<std::uint8_t> received;
  // 64 KB >= 4*mss: every recv arms the overlapped user buffer, so
  // in-order slab payloads land in application memory directly while
  // reordered ones park by reference and drain behind the gap.
  std::vector<std::uint8_t> buf(1 << 16);
  while (received.size() < payload.size()) {
    const std::size_t n = to.recv(buf, std::chrono::seconds{15});
    if (n == 0) break;
    received.insert(received.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(send_done.get(), payload.size());
  return received;
}

TEST(ZeroCopySocket, OverlappedRecvByteExactUnderReordering) {
  FaultConfig cfg;
  cfg.send.reorder_p = 0.05;  // data direction: overtaking packets
  cfg.send.reorder_hold = 4;
  cfg.send.drop_p = 0.02;
  cfg.seed = 20260807;
  auto faults = std::make_shared<FaultInjector>(cfg);

  SocketOptions client;
  client.faults = faults;
  client.max_bandwidth_mbps = 80.0;
  Pair p = make_pair_opts({}, client);
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  const auto payload = make_payload(2 << 20, 99);
  const auto got = pump(*p.client, *p.server, payload);
  ASSERT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload);
  EXPECT_GT(faults->stats(FaultDir::kSend).reordered, 0u);
  p.client->close();
  p.server->close();
}

}  // namespace
}  // namespace udtr::udt
