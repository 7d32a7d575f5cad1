// Message mode (partial reliability): frame-preserving sendmsg/recvmsg on
// real sockets, per-message TTL expiry with kMsgDrop hole sealing, the
// in-order/out-of-order delivery rules, and the stream/message latch.  The
// buffer-level suite exercises the reassembly machinery deterministically;
// the socket-level suite runs the full loopback stack under injected faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "udt/buffers.hpp"
#include "udt/multiplexer.hpp"
#include "udt/packet.hpp"
#include "udt/socket.hpp"

namespace udtr::udt {
namespace {

// Deterministic message payload: [0:8) id, [8:16) size, then a pattern a
// verifier can regenerate from the id alone.
std::vector<std::uint8_t> make_msg(std::uint64_t id, std::size_t size) {
  EXPECT_GE(size, std::size_t{16});
  std::vector<std::uint8_t> v(size);
  for (int i = 0; i < 8; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(id >> (56 - 8 * i));
    v[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(size) >>
                                  (56 - 8 * i));
  }
  for (std::size_t i = 16; i < size; ++i) {
    v[i] = static_cast<std::uint8_t>(id * 31 + i * 7 + 3);
  }
  return v;
}

std::uint64_t msg_id(std::span<const std::uint8_t> m) {
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id = (id << 8) | m[static_cast<std::size_t>(i)];
  return id;
}

std::uint64_t msg_size_field(std::span<const std::uint8_t> m) {
  std::uint64_t s = 0;
  for (int i = 0; i < 8; ++i) {
    s = (s << 8) | m[static_cast<std::size_t>(8 + i)];
  }
  return s;
}

void expect_msg_intact(std::span<const std::uint8_t> m) {
  ASSERT_GE(m.size(), 16u);
  ASSERT_EQ(msg_size_field(m), m.size());
  const std::uint64_t id = msg_id(m);
  const auto expect = make_msg(id, m.size());
  EXPECT_TRUE(std::equal(m.begin(), m.end(), expect.begin()))
      << "corrupt payload in message " << id;
}

struct Pair {
  std::unique_ptr<Socket> listener;
  std::unique_ptr<Socket> client;
  std::unique_ptr<Socket> server;
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

// =========================================================================
// Buffer-level reassembly semantics (deterministic, no sockets).
// =========================================================================

constexpr int kMss = 100;

std::vector<std::uint8_t> bytes_of(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i);
  }
  return v;
}

TEST(MessageModeBuffer, SoloMessageDeliversImmediately) {
  RcvBuffer rb{kMss, 64};
  const auto payload = bytes_of(40, 1);
  EXPECT_FALSE(rb.msg_ready());
  ASSERT_TRUE(rb.store(0, payload, make_msg_word(MsgBoundary::kSolo, true, 1)));
  ASSERT_TRUE(rb.msg_ready());
  std::vector<std::uint8_t> out(256);
  EXPECT_EQ(rb.read_msg(out), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), out.begin()));
  EXPECT_FALSE(rb.msg_ready());
}

TEST(MessageModeBuffer, MultiPacketMessageCompletesOutOfArrivalOrder) {
  RcvBuffer rb{kMss, 64};
  const auto part0 = bytes_of(kMss, 10);
  const auto part1 = bytes_of(kMss, 20);
  const auto part2 = bytes_of(30, 30);
  // Last, First, Middle: ready only once the middle lands.
  ASSERT_TRUE(rb.store(2, part2, make_msg_word(MsgBoundary::kLast, true, 1)));
  EXPECT_FALSE(rb.msg_ready());
  ASSERT_TRUE(rb.store(0, part0, make_msg_word(MsgBoundary::kFirst, true, 1)));
  EXPECT_FALSE(rb.msg_ready());
  ASSERT_TRUE(rb.store(1, part1, make_msg_word(MsgBoundary::kMiddle, true, 1)));
  ASSERT_TRUE(rb.msg_ready());
  std::vector<std::uint8_t> out(512);
  EXPECT_EQ(rb.read_msg(out), part0.size() + part1.size() + part2.size());
  EXPECT_TRUE(std::equal(part0.begin(), part0.end(), out.begin()));
  EXPECT_TRUE(std::equal(part1.begin(), part1.end(),
                         out.begin() + static_cast<std::ptrdiff_t>(kMss)));
  EXPECT_TRUE(std::equal(part2.begin(), part2.end(),
                         out.begin() + static_cast<std::ptrdiff_t>(2 * kMss)));
}

TEST(MessageModeBuffer, OutOfOrderMessageBypassesEarlierHole) {
  RcvBuffer rb{kMss, 64};
  // Message 1 occupies 0..1 but only its first packet arrived; message 2
  // (in_order = false) at index 2 may overtake it.
  ASSERT_TRUE(rb.store(0, bytes_of(kMss, 1),
                       make_msg_word(MsgBoundary::kFirst, true, 1)));
  const auto m2 = bytes_of(50, 2);
  ASSERT_TRUE(rb.store(2, m2, make_msg_word(MsgBoundary::kSolo, false, 2)));
  ASSERT_TRUE(rb.msg_ready());
  std::vector<std::uint8_t> out(256);
  EXPECT_EQ(rb.read_msg(out), m2.size());
  EXPECT_TRUE(std::equal(m2.begin(), m2.end(), out.begin()));
  // Completing message 1 afterwards still delivers it.
  ASSERT_TRUE(rb.store(1, bytes_of(20, 3),
                       make_msg_word(MsgBoundary::kLast, true, 1)));
  ASSERT_TRUE(rb.msg_ready());
  EXPECT_EQ(rb.read_msg(out), static_cast<std::size_t>(kMss + 20));
}

TEST(MessageModeBuffer, InOrderMessageWaitsForFrontier) {
  RcvBuffer rb{kMss, 64};
  // Message 2 (in_order = true) is complete at index 2, but index 0..1
  // (message 1) has a hole: delivery must wait.
  ASSERT_TRUE(rb.store(2, bytes_of(50, 2),
                       make_msg_word(MsgBoundary::kSolo, true, 2)));
  EXPECT_FALSE(rb.msg_ready());
  // Sealing the hole (sender dropped message 1) releases it.
  rb.seal_range(0, 1);
  ASSERT_TRUE(rb.msg_ready());
  std::vector<std::uint8_t> out(256);
  EXPECT_EQ(rb.read_msg(out), 50u);
  // The ACK point advanced over the sealed hole.
  EXPECT_EQ(rb.contiguous_end(), 3);
}

TEST(MessageModeBuffer, SealDiscardsPartialMessage) {
  RcvBuffer rb{kMss, 64};
  // Packets 0 and 2 of a three-packet message arrived; the sender expires
  // it and seals 0..2.  The partial payload must never be delivered.
  ASSERT_TRUE(rb.store(0, bytes_of(kMss, 1),
                       make_msg_word(MsgBoundary::kFirst, true, 1)));
  ASSERT_TRUE(rb.store(2, bytes_of(30, 3),
                       make_msg_word(MsgBoundary::kLast, true, 1)));
  rb.seal_range(0, 2);
  EXPECT_FALSE(rb.msg_ready());
  EXPECT_EQ(rb.contiguous_end(), 3);
  // Later traffic flows normally past the sealed hole.
  const auto m2 = bytes_of(40, 9);
  ASSERT_TRUE(rb.store(3, m2, make_msg_word(MsgBoundary::kSolo, true, 2)));
  ASSERT_TRUE(rb.msg_ready());
  std::vector<std::uint8_t> out(256);
  EXPECT_EQ(rb.read_msg(out), m2.size());
  EXPECT_EQ(rb.contiguous_end(), 4);
}

TEST(MessageModeBuffer, SealPurgesCompletedButUndeliveredMessage) {
  RcvBuffer rb{kMss, 64};
  // The message is complete and queued, but the sender expired it before
  // the ACK landed: the seal must win, or expiry semantics would depend on
  // a race the application can observe.
  ASSERT_TRUE(rb.store(0, bytes_of(40, 1),
                       make_msg_word(MsgBoundary::kSolo, true, 1)));
  ASSERT_TRUE(rb.msg_ready());
  rb.seal_range(0, 0);
  EXPECT_FALSE(rb.msg_ready());
  std::vector<std::uint8_t> out(256);
  EXPECT_EQ(rb.read_msg(out), 0u);
}

TEST(MessageModeBuffer, ReadMsgTruncatesToCallerBuffer) {
  RcvBuffer rb{kMss, 64};
  ASSERT_TRUE(rb.store(0, bytes_of(kMss, 1),
                       make_msg_word(MsgBoundary::kFirst, true, 1)));
  ASSERT_TRUE(rb.store(1, bytes_of(60, 2),
                       make_msg_word(MsgBoundary::kLast, true, 1)));
  std::vector<std::uint8_t> out(25);
  EXPECT_EQ(rb.read_msg(out), 25u);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), bytes_of(kMss, 1).begin()));
  // The remainder is discarded, not re-delivered.
  EXPECT_FALSE(rb.msg_ready());
  EXPECT_EQ(rb.contiguous_end(), 2);
}

TEST(MessageModeBuffer, SndBufferMessageChunksAndDeadMarking) {
  SndBuffer sb{kMss, 16 * kMss};
  const auto msg = bytes_of(2 * kMss + 30, 5);
  ASSERT_EQ(sb.add_message(msg, 7, false), msg.size());
  ASSERT_EQ(sb.end_index(), 3);
  EXPECT_EQ(msg_boundary(sb.msg_word(0)), MsgBoundary::kFirst);
  EXPECT_EQ(msg_boundary(sb.msg_word(1)), MsgBoundary::kMiddle);
  EXPECT_EQ(msg_boundary(sb.msg_word(2)), MsgBoundary::kLast);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(msg_number(sb.msg_word(i)), 7u);
    EXPECT_FALSE(msg_in_order(sb.msg_word(i)));
    EXPECT_FALSE(sb.is_dead(i));
  }
  // A single packet message is Solo.
  const auto solo = bytes_of(10, 6);
  ASSERT_EQ(sb.add_message(solo, 8, true), solo.size());
  EXPECT_EQ(msg_boundary(sb.msg_word(3)), MsgBoundary::kSolo);
  EXPECT_TRUE(msg_in_order(sb.msg_word(3)));

  // TTL expiry: marking dead frees the bytes but keeps the indexes.
  const std::size_t before = sb.bytes();
  sb.mark_dead(0, 3);
  EXPECT_EQ(sb.bytes(), before - msg.size());
  EXPECT_TRUE(sb.is_dead(0));
  EXPECT_TRUE(sb.is_dead(2));
  EXPECT_FALSE(sb.is_dead(3));
  EXPECT_EQ(sb.end_index(), 4);  // ring untouched
  // All-or-nothing: a message that cannot fit is rejected outright.
  SndBuffer tiny{kMss, 2 * kMss};
  EXPECT_EQ(tiny.add_message(bytes_of(3 * kMss, 1), 1, true), 0u);
  EXPECT_EQ(tiny.end_index(), 0);
}

// =========================================================================
// Socket-level: full loopback stack.
// =========================================================================

TEST(MessageMode, BoundariesPreservedAcrossSizes) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  const int mss = SocketOptions{}.mss_bytes;
  const std::vector<std::size_t> sizes = {
      16, 100, static_cast<std::size_t>(mss),
      static_cast<std::size_t>(mss) + 1, 3 * static_cast<std::size_t>(mss) + 7,
      64 * 1024};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto m = make_msg(i, sizes[i]);
    ASSERT_EQ(p.client->sendmsg(m), m.size());
  }
  std::vector<std::uint8_t> buf(1 << 20);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = p.server->recvmsg(buf, std::chrono::seconds{10});
    ASSERT_EQ(n, sizes[i]) << "message " << i;  // boundary, not a byte soup
    expect_msg_intact(std::span{buf.data(), n});
    EXPECT_EQ(msg_id(std::span{buf.data(), n}), i);  // FIFO
  }
  EXPECT_EQ(p.client->perf().msgs_sent, sizes.size());
  EXPECT_EQ(p.server->perf().msgs_delivered, sizes.size());
  EXPECT_EQ(p.client->perf().msgs_dropped_ttl, 0u);
  // Port-global mirrors of the same counters.
  ASSERT_NE(p.client->multiplexer(), nullptr);
  EXPECT_EQ(p.client->multiplexer()->msgs_sent(), sizes.size());
  EXPECT_EQ(p.server->multiplexer()->msgs_delivered(), sizes.size());
  p.client->close();
  p.server->close();
}

void run_faulted_roundtrip(SocketOptions client_opts, std::size_t n_msgs) {
  FaultConfig cfg;
  cfg.send.drop_p = 0.05;
  cfg.recv.drop_p = 0.05;
  cfg.send.dup_p = 0.02;
  cfg.recv.dup_p = 0.02;
  cfg.send.reorder_p = 0.02;
  cfg.send.reorder_hold = 3;
  cfg.recv.reorder_p = 0.02;
  cfg.recv.reorder_hold = 3;
  cfg.seed = 0xC0FFEE;
  client_opts.faults = std::make_shared<FaultInjector>(cfg);
  Pair p = make_pair_opts({}, client_opts);
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  auto sender = std::async(std::launch::async, [&] {
    std::size_t ok = 0;
    for (std::size_t i = 0; i < n_msgs; ++i) {
      const auto m = make_msg(i, 500 + (i % 7) * 1200);
      // TTL 0: fully reliable — every message must survive the faults.
      ok += p.client->sendmsg(m) == m.size() ? 1 : 0;
    }
    return ok;
  });
  std::vector<std::uint8_t> buf(64 << 10);
  for (std::size_t i = 0; i < n_msgs; ++i) {
    const std::size_t n = p.server->recvmsg(buf, std::chrono::seconds{15});
    ASSERT_GT(n, 0u) << "stalled at message " << i;
    expect_msg_intact(std::span{buf.data(), n});
    EXPECT_EQ(msg_id(std::span{buf.data(), n}), i);  // in-order, exactly once
  }
  EXPECT_EQ(sender.get(), n_msgs);
  EXPECT_EQ(p.client->perf().msgs_dropped_ttl, 0u);
  EXPECT_EQ(p.server->perf().msgs_delivered, n_msgs);
  p.client->close();
  p.server->close();
}

TEST(MessageMode, ReliableRoundTripUnderDropDupReorder) {
  run_faulted_roundtrip({}, 120);
}

TEST(MessageMode, ReliableRoundTripUnderFaultsGsoOff) {
  SocketOptions opts;
  opts.gso = false;
  run_faulted_roundtrip(opts, 80);
}

// The acceptance scenario: finite TTL under loss + a burst outage.  A
// message sent entirely into the black hole is never delivered, survivors
// arrive intact and in order, the sealed holes never stall the connection,
// and no message vanishes unaccounted — it shows up in the receiver's
// delivery stream or in the sender's TTL-drop counter.  (The two can
// overlap for a boundary message: if it was fully received just before the
// outage and its ACK died in it, the sender must expire it — it cannot
// know better — while the receiver legitimately delivers what it already
// holds.  No protocol can close that race, so the test bounds the overlap
// instead of forbidding it.)
TEST(MessageMode, TtlExpiryDeliversExactSurvivors) {
  FaultConfig cfg;
  cfg.send.drop_p = 0.05;
  cfg.recv.drop_p = 0.05;
  cfg.seed = 97;
  auto faults = std::make_shared<FaultInjector>(cfg);
  SocketOptions client;
  client.faults = faults;
  client.min_exp_timeout_s = 0.05;  // fast kMsgDrop re-send on EXP
  Pair p = make_pair_opts({}, client);
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  // A 250 ms black hole starting mid-burst: messages sent into it expire
  // (TTL 80 ms) long before connectivity returns.
  const auto t0 = std::chrono::steady_clock::now();
  faults->schedule_outage(std::chrono::milliseconds{150},
                          std::chrono::milliseconds{250});

  constexpr std::size_t kMsgs = 50;
  constexpr std::chrono::milliseconds kTtl{80};
  // Ids whose send landed strictly inside the hole with the whole TTL still
  // inside it too: none of their packets ever reached the wire-side peer,
  // so delivery is flat-out impossible and expiry is certain.
  std::set<std::uint64_t> in_hole;
  for (std::size_t i = 0; i < kMsgs; ++i) {
    const auto m = make_msg(i, 4000);  // 3 packets each
    ASSERT_EQ(p.client->sendmsg(m, kTtl), m.size());
    const auto since_t0 = std::chrono::steady_clock::now() - t0;
    if (since_t0 > std::chrono::milliseconds{160} &&
        since_t0 < std::chrono::milliseconds{300}) {
      in_hole.insert(i);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  // Let expiries, kMsgDrop re-sends and the sealing ACKs settle before the
  // application looks.
  std::this_thread::sleep_for(std::chrono::milliseconds{1200});

  std::vector<std::uint8_t> buf(64 << 10);
  std::set<std::uint64_t> delivered;
  std::uint64_t last_id = 0;
  bool first = true;
  for (;;) {
    const std::size_t n =
        p.server->recvmsg(buf, std::chrono::milliseconds{300});
    if (n == 0) break;
    const std::span<const std::uint8_t> m{buf.data(), n};
    expect_msg_intact(m);
    const std::uint64_t id = msg_id(m);
    EXPECT_TRUE(delivered.insert(id).second) << "duplicate message " << id;
    if (!first) {
      EXPECT_GT(id, last_id) << "out-of-order delivery";
    }
    first = false;
    last_id = id;
  }

  const PerfStats cs = p.client->perf();
  EXPECT_GT(cs.msgs_dropped_ttl, 0u) << "outage produced no expiries";
  EXPECT_GT(delivered.size(), 0u) << "no survivors at all";
  EXPECT_GE(in_hole.size(), 5u) << "burst missed the outage window";
  // Expired-in-the-hole messages are never delivered.
  for (const std::uint64_t id : in_hole) {
    EXPECT_FALSE(delivered.contains(id))
        << "message " << id << " was sent into the black hole yet delivered";
  }
  // Nothing vanishes: every message is delivered or counted as a TTL drop
  // (or, for at most a few outage-boundary messages, both — see above).
  EXPECT_GE(delivered.size() + cs.msgs_dropped_ttl, kMsgs);
  EXPECT_LE(delivered.size() + cs.msgs_dropped_ttl, kMsgs + 4)
      << "lost-ACK overlap should be a boundary effect, not the norm";
  EXPECT_GT(cs.msg_drop_ctrl_sent, 0u);
  EXPECT_GT(p.server->perf().msg_drop_ctrl_recv, 0u);

  // The sealed holes must not have wedged anything: a fresh fully-reliable
  // message still round-trips.
  const auto tail = make_msg(kMsgs, 5000);
  ASSERT_EQ(p.client->sendmsg(tail), tail.size());
  const std::size_t n = p.server->recvmsg(buf, std::chrono::seconds{10});
  ASSERT_EQ(n, tail.size());
  expect_msg_intact(std::span{buf.data(), n});
  EXPECT_EQ(p.client->state(), ConnState::kEstablished);
  p.client->close();
  p.server->close();
}

TEST(MessageMode, StreamAndMessageNeverInterleave) {
  // Stream-latched socket rejects sendmsg.
  Pair a = make_pair_opts({}, {});
  ASSERT_NE(a.client, nullptr);
  const std::vector<std::uint8_t> bytes(100, 0x42);
  ASSERT_EQ(a.client->send(bytes), bytes.size());
  EXPECT_EQ(a.client->sendmsg(make_msg(0, 100)), 0u);
  a.client->close();
  a.server->close();

  // Message-latched socket rejects stream writes on BOTH stream entry
  // points — a partial send() splicing bytes between the packets of an
  // in-flight multi-packet message would poison its reassembly.
  Pair b = make_pair_opts({}, {});
  ASSERT_NE(b.client, nullptr);
  ASSERT_EQ(b.client->sendmsg(make_msg(0, 5000)), 5000u);
  EXPECT_EQ(b.client->send(bytes), 0u);
  EXPECT_EQ(b.client->send_overlapped(bytes, std::chrono::seconds{1}), 0u);
  // The message path is unharmed.
  std::vector<std::uint8_t> buf(16 << 10);
  const std::size_t n = b.server->recvmsg(buf, std::chrono::seconds{10});
  ASSERT_EQ(n, 5000u);
  expect_msg_intact(std::span{buf.data(), n});
  b.client->close();
  b.server->close();
}

TEST(MessageMode, StreamTrafficUnaffectedByMessageMachinery) {
  // A plain stream transfer with the message machinery compiled in: byte
  // stream intact, no message counters moving (wire word1 stays zero).
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.client, nullptr);
  std::vector<std::uint8_t> payload(512 << 10);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  auto sent = std::async(std::launch::async, [&] {
    const std::size_t n = p.client->send(payload);
    p.client->flush(std::chrono::seconds{30});
    return n;
  });
  std::vector<std::uint8_t> got;
  std::vector<std::uint8_t> buf(64 << 10);
  while (got.size() < payload.size()) {
    const std::size_t n = p.server->recv(buf, std::chrono::seconds{10});
    if (n == 0) break;
    got.insert(got.end(), buf.begin(), buf.begin() + static_cast<long>(n));
  }
  EXPECT_EQ(sent.get(), payload.size());
  EXPECT_EQ(got, payload);
  EXPECT_EQ(p.client->perf().msgs_sent, 0u);
  EXPECT_EQ(p.server->perf().msgs_delivered, 0u);
  EXPECT_EQ(p.client->perf().msg_drop_ctrl_sent, 0u);
  p.client->close();
  p.server->close();
}

TEST(MessageMode, GuardsRejectEmptyOversizedAndTruncate) {
  SocketOptions client;
  client.max_msg_pkts = 2;
  Pair p = make_pair_opts({}, client);
  ASSERT_NE(p.client, nullptr);

  const int mss = client.mss_bytes;
  EXPECT_EQ(p.client->sendmsg({}), 0u);  // empty
  EXPECT_EQ(p.client->sendmsg(make_msg(0, 3 * static_cast<std::size_t>(mss))),
            0u);  // over max_msg_pkts
  // Rejections latch nothing and count nothing.
  EXPECT_EQ(p.client->perf().msgs_sent, 0u);

  // recvmsg truncation: excess bytes are discarded, message consumed.
  const auto m = make_msg(1, 1000);
  ASSERT_EQ(p.client->sendmsg(m), m.size());
  std::vector<std::uint8_t> small(100);
  EXPECT_EQ(p.server->recvmsg(small, std::chrono::seconds{10}), 100u);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), m.begin()));
  EXPECT_EQ(p.server->recvmsg(small, std::chrono::milliseconds{200}), 0u);
  // Empty out never consumes.
  ASSERT_EQ(p.client->sendmsg(m), m.size());
  EXPECT_EQ(p.server->recvmsg({}, std::chrono::milliseconds{100}), 0u);
  std::vector<std::uint8_t> big(4096);
  EXPECT_EQ(p.server->recvmsg(big, std::chrono::seconds{10}), m.size());
  p.client->close();
  p.server->close();
}

}  // namespace
}  // namespace udtr::udt
