// Real-socket fault injection and connection-lifecycle hardening: the
// loopback stack under combined drop / reorder / outage, peer death and EXP
// escalation, crafted hostile control packets, and graceful shutdown.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "udt/multiplexer.hpp"
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

std::vector<std::uint8_t> pump(Socket& from, Socket& to,
                               const std::vector<std::uint8_t>& payload,
                               std::chrono::seconds per_recv_timeout =
                                   std::chrono::seconds{15}) {
  auto send_done = std::async(std::launch::async, [&] {
    const std::size_t sent = from.send(payload);
    from.flush(std::chrono::seconds{60});
    return sent;
  });
  std::vector<std::uint8_t> received;
  std::vector<std::uint8_t> buf(1 << 16);
  while (received.size() < payload.size()) {
    const std::size_t n = to.recv(buf, per_recv_timeout);
    if (n == 0) break;
    received.insert(received.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(send_done.get(), payload.size());
  return received;
}

// --- the acceptance scenario: combined faults, exact delivery --------------

TEST(SocketFault, TransferExactUnderDropReorderAndBurstOutage) {
  FaultConfig cfg;
  cfg.send.drop_p = 0.10;     // 10% loss client -> server (data AND control)
  cfg.recv.drop_p = 0.10;     // 10% loss server -> client (ACKs, NAKs)
  cfg.send.reorder_p = 0.02;  // plus reordering both directions
  cfg.send.reorder_hold = 3;
  cfg.recv.reorder_p = 0.02;
  cfg.recv.reorder_hold = 3;
  cfg.seed = 20040807;
  auto faults = std::make_shared<FaultInjector>(cfg);

  SocketOptions client;
  client.faults = faults;
  // Cap the rate so the transfer spans the outage instead of finishing in
  // a few milliseconds of loopback burst.
  client.max_bandwidth_mbps = 60.0;
  Pair p = make_pair_opts({}, client);
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  // One 200 ms burst outage, hitting mid-transfer.
  faults->schedule_outage(std::chrono::milliseconds{100},
                          std::chrono::milliseconds{200});

  const auto payload = make_payload(2 << 20, 42);
  const auto got = pump(*p.client, *p.server, payload);
  EXPECT_EQ(got.size(), payload.size());  // no loss, no duplication
  EXPECT_EQ(got, payload);                // ... and byte-exact
  EXPECT_GT(faults->stats(FaultDir::kSend).dropped, 0u);
  EXPECT_GT(faults->stats(FaultDir::kRecv).dropped, 0u);
  EXPECT_GT(faults->stats(FaultDir::kSend).outage_dropped +
                faults->stats(FaultDir::kRecv).outage_dropped,
            0u);
  EXPECT_EQ(p.client->state(), ConnState::kEstablished);
  p.client->close();
  p.server->close();
}

// --- peer death: EXP escalation to kBroken ---------------------------------

TEST(SocketFault, PeerVanishBreaksSenderWithinExpBudget) {
  auto faults = std::make_shared<FaultInjector>(FaultConfig{});
  SocketOptions client;
  client.faults = faults;
  client.min_exp_timeout_s = 0.05;
  client.max_exp_timeouts = 5;
  client.snd_buffer_bytes = 128 << 10;  // small, so send() must block
  Pair p = make_pair_opts({}, client);
  ASSERT_NE(p.client, nullptr);

  // Warm up so the client has a measured RTT (otherwise the EXP base uses
  // the conservative 100 ms prior and the budget below quadruples).
  const auto warmup = make_payload(64 << 10, 6);
  ASSERT_EQ(pump(*p.client, *p.server, warmup), warmup);

  // Then the peer vanishes: nothing gets in or out any more.
  faults->set_black_hole(true);

  // Escalation budget: base 0.05 s with factors 1,2,4,8,16,16 before the
  // 6th timeout exceeds max_exp_timeouts=5 -> ~2.35 s.  Generous ceiling.
  const auto payload = make_payload(1 << 20, 7);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t sent = p.client->send(payload);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_LT(sent, payload.size());  // did NOT pretend everything went out
  EXPECT_LT(elapsed, std::chrono::seconds{10});
  EXPECT_EQ(p.client->state(), ConnState::kBroken);
  EXPECT_EQ(p.client->last_error(), SocketError::kConnectionBroken);
  EXPECT_TRUE(p.client->broken());

  // Further operations fail fast instead of hanging.
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_EQ(p.client->send(payload), 0u);
  std::vector<std::uint8_t> buf(1024);
  EXPECT_EQ(p.client->recv(buf, std::chrono::seconds{30}), 0u);
  EXPECT_FALSE(p.client->flush(std::chrono::seconds{30}));
  EXPECT_LT(std::chrono::steady_clock::now() - t1, std::chrono::seconds{2});

  p.client->close();
  EXPECT_EQ(p.client->state(), ConnState::kBroken);  // close keeps the verdict
  p.server->close();
}

TEST(SocketFault, ExpBackoffFactorIsCappedAt16) {
  // With the cap, 7 timeouts take 0.05*(1+2+4+8+16+16+16) ~= 3.15 s; without
  // it they would take 0.05*(1+2+4+8+16+32+64) ~= 6.35 s.  The wall-clock
  // bound is the observable difference.
  auto faults = std::make_shared<FaultInjector>(FaultConfig{});
  SocketOptions client;
  client.faults = faults;
  client.min_exp_timeout_s = 0.05;
  client.max_exp_timeouts = 6;
  client.snd_buffer_bytes = 128 << 10;
  Pair p = make_pair_opts({}, client);
  ASSERT_NE(p.client, nullptr);

  const auto warmup = make_payload(64 << 10, 66);
  ASSERT_EQ(pump(*p.client, *p.server, warmup), warmup);

  faults->set_black_hole(true);
  const auto payload = make_payload(1 << 20, 8);
  const auto t0 = std::chrono::steady_clock::now();
  (void)p.client->send(payload);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(p.client->state(), ConnState::kBroken);
  EXPECT_GE(elapsed, std::chrono::milliseconds{2500});
  EXPECT_LT(elapsed, std::chrono::milliseconds{5500});
  p.client->close();
  p.server->close();
}

// --- EXP timer semantics ----------------------------------------------------

TEST(SocketFault, IdleConnectionSendsKeepalivesAndCountsNoTimeouts) {
  SocketOptions opts;
  opts.min_exp_timeout_s = 0.1;
  Pair p = make_pair_opts(opts, opts);
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  std::this_thread::sleep_for(std::chrono::milliseconds{800});

  const PerfStats cs = p.client->perf();
  const PerfStats ss = p.server->perf();
  // Nothing was ever unacknowledged: no timeout may be counted (§3.5) ...
  EXPECT_EQ(cs.timeouts, 0u);
  EXPECT_EQ(ss.timeouts, 0u);
  // ... but the idle link is kept warm.
  EXPECT_GT(cs.keepalives_sent + ss.keepalives_sent, 0u);
  EXPECT_EQ(p.client->state(), ConnState::kEstablished);
  EXPECT_EQ(p.server->state(), ConnState::kEstablished);
  EXPECT_EQ(p.client->consecutive_exp_timeouts(), 0);
  p.client->close();
  p.server->close();
}

TEST(SocketFault, ExpEscalationUnwindsWhenPeerRecovers) {
  auto faults = std::make_shared<FaultInjector>(FaultConfig{});
  SocketOptions client;
  client.faults = faults;
  client.min_exp_timeout_s = 0.05;
  client.max_bandwidth_mbps = 40.0;
  Pair p = make_pair_opts({}, client);
  ASSERT_NE(p.client, nullptr);

  // A 300 ms outage starting almost immediately: with data in flight the
  // EXP timer must escalate (0.05 s + 0.1 s waits fit inside the outage)...
  faults->schedule_outage(std::chrono::milliseconds{50},
                          std::chrono::milliseconds{300});
  const auto payload = make_payload(1 << 20, 9);
  const auto got = pump(*p.client, *p.server, payload);

  // ... yet the transfer completes exactly once the link returns, and the
  // first control packet through resets the escalation.
  EXPECT_EQ(got, payload);
  EXPECT_GE(p.client->perf().timeouts, 1u);
  EXPECT_EQ(p.client->consecutive_exp_timeouts(), 0);
  EXPECT_EQ(p.client->state(), ConnState::kEstablished);
  EXPECT_EQ(p.client->last_error(), SocketError::kNone);
  p.client->close();
  p.server->close();
}

// --- hostile / corrupt control traffic --------------------------------------

// Sends one crafted control packet from a raw channel to `dst_port`.
void send_raw_ctrl(UdpChannel& raw, std::uint16_t dst_port, CtrlType type,
                   std::uint32_t dst_socket,
                   std::span<const std::uint32_t> payload_words) {
  std::vector<std::uint8_t> pkt(kHeaderBytes + 4 * payload_words.size());
  CtrlHeader hdr;
  hdr.type = type;
  hdr.dst_socket = dst_socket;
  write_ctrl_header(pkt, hdr);
  write_words(std::span{pkt}.subspan(kHeaderBytes), payload_words);
  raw.send_to(Endpoint{0x7F000001u, dst_port}, pkt);
}

TEST(SocketFault, CorruptNakCannotTriggerRetransmitStorm) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.client, nullptr);

  // Complete a clean transfer so the send window is fully acknowledged.
  const auto payload = make_payload(100 << 10, 10);
  EXPECT_EQ(pump(*p.client, *p.server, payload), payload);
  const std::uint64_t retrans_before = p.client->perf().retransmitted;

  UdpChannel raw;
  ASSERT_TRUE(raw.open(0));
  const std::uint32_t id = p.client->id();
  const std::uint16_t port = p.client->local_port();

  // Inverted range [100, 50], far-future range, far-past range, and an
  // oversized payload of 1000 singletons.
  send_raw_ctrl(raw, port, CtrlType::kNak, id,
                std::array<std::uint32_t, 2>{100U | 0x80000000U, 50U});
  send_raw_ctrl(raw, port, CtrlType::kNak, id,
                std::array<std::uint32_t, 2>{0x80000000U | 500000U, 500100U});
  std::vector<std::uint32_t> storm(1000);
  for (std::size_t i = 0; i < storm.size(); ++i) {
    storm[i] = static_cast<std::uint32_t>(1000000 + i);
  }
  send_raw_ctrl(raw, port, CtrlType::kNak, id, storm);

  std::this_thread::sleep_for(std::chrono::milliseconds{300});

  const PerfStats cs = p.client->perf();
  EXPECT_EQ(cs.retransmitted, retrans_before);  // no storm
  EXPECT_GT(cs.invalid_nak_ranges, 0u);
  EXPECT_EQ(p.client->state(), ConnState::kEstablished);

  // The connection still works.
  const auto payload2 = make_payload(50 << 10, 11);
  EXPECT_EQ(pump(*p.client, *p.server, payload2), payload2);
  p.client->close();
  p.server->close();
}

TEST(SocketFault, WrongDstSocketAndUnknownTypesAreRejected) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.server, nullptr);

  UdpChannel raw;
  ASSERT_TRUE(raw.open(0));
  const std::uint16_t port = p.server->local_port();

  // Wrong destination socket id on a well-formed ACK.
  std::array<std::uint32_t, AckPayload::kWords> ack_words{};
  send_raw_ctrl(raw, port, CtrlType::kAck, p.server->id() + 1, ack_words);
  // Unknown control type with the right id.
  std::vector<std::uint8_t> pkt(kHeaderBytes);
  store_be32(pkt.data(), 0x80000000U | (9U << 16));  // type 9: not a thing
  store_be32(pkt.data() + 12, p.server->id());
  raw.send_to(Endpoint{0x7F000001u, port}, pkt);
  // Truncated ACK (right id, half a payload).
  std::array<std::uint32_t, 2> short_words{};
  send_raw_ctrl(raw, port, CtrlType::kAck, p.server->id(), short_words);

  std::this_thread::sleep_for(std::chrono::milliseconds{200});
  // Wrong-destination datagrams die at the multiplexer's routing table
  // (unroutable), before any socket sees them; the unknown type and the
  // truncated ACK pass routing and die in the socket's validation layer.
  EXPECT_GE(p.server->perf().invalid_packets, 2u);
  ASSERT_NE(p.server->multiplexer(), nullptr);
  EXPECT_GE(p.server->multiplexer()->unroutable_datagrams(), 1u);
  EXPECT_EQ(p.server->state(), ConnState::kEstablished);
  p.client->close();
  p.server->close();
}

TEST(SocketFault, RandomDatagramBlastDoesNotKillTheConnection) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.server, nullptr);

  UdpChannel raw;
  ASSERT_TRUE(raw.open(0));
  const Endpoint to{0x7F000001u, p.server->local_port()};
  std::mt19937_64 rng{123};
  std::vector<std::uint8_t> junk;
  for (int i = 0; i < 2000; ++i) {
    junk.resize(rng() % 200);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    raw.send_to(to, junk);
  }

  // The connection shrugs it off and still moves data, exactly.
  const auto payload = make_payload(256 << 10, 12);
  EXPECT_EQ(pump(*p.client, *p.server, payload), payload);
  EXPECT_EQ(p.server->state(), ConnState::kEstablished);
  p.client->close();
  p.server->close();
}

// --- handshake under faults -------------------------------------------------

TEST(SocketFault, ConnectSurvivesListenerSideResponseLoss) {
  // Listener-side injection: half of everything the listener (and its
  // children) send is dropped, and client->listener requests are lossy too.
  // The handshake retry loop must still converge, and the accept loop must
  // keep serving rather than aborting on the noise.
  FaultConfig cfg;
  cfg.send.drop_p = 0.5;  // listener responses
  cfg.recv.drop_p = 0.3;  // client requests as seen by the listener
  cfg.seed = 424242;
  SocketOptions server_opts;
  server_opts.faults = std::make_shared<FaultInjector>(cfg);

  auto listener = Socket::listen(0, server_opts);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{10});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), {});
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  // The connection works (the children inherit the lossy channel, so this
  // also exercises data transfer under listener-side faults).
  const auto payload = make_payload(64 << 10, 15);
  EXPECT_EQ(pump(*client, *server, payload), payload);
  // The server side genuinely lost datagrams on the way to that byte-exact
  // transfer — the injector was live, not bypassed.
  EXPECT_GT(server_opts.faults->stats(FaultDir::kSend).dropped +
                server_opts.faults->stats(FaultDir::kRecv).dropped,
            0u);
  client->close();
  server->close();
}

TEST(SocketFault, ConnectRejectsHostileMssAndAcceptsValidResponse) {
  // A fake "listener" answers the first request with mss = 0, the second
  // with mss far above the proposal, and only then with an honest response.
  // The client must reject both hostile responses and connect on the third.
  UdpChannel fake;
  ASSERT_TRUE(fake.open(0));
  fake.set_recv_timeout(std::chrono::seconds{5});

  SocketOptions client_opts;
  client_opts.mss_bytes = 1456;
  auto server_thread = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> buf(2048);
    const std::array<std::uint32_t, 3> hostile_then_valid{
        0u, 1u << 20, static_cast<std::uint32_t>(client_opts.mss_bytes)};
    std::uint32_t answered = 0;
    Endpoint src;
    while (answered < hostile_then_valid.size()) {
      const RecvResult r = fake.recv_from(src, buf);
      if (r.status != RecvStatus::kDatagram || r.bytes < kHeaderBytes) {
        continue;
      }
      std::span<const std::uint8_t> pkt{buf.data(), r.bytes};
      const auto hdr = decode_ctrl_header(pkt);
      if (!hdr || hdr->type != CtrlType::kHandshake) continue;
      const auto req = decode_handshake_payload(pkt.subspan(kHeaderBytes));
      if (!req || req->request_type != 1) continue;

      HandshakePayload resp = *req;
      resp.request_type = 0;
      resp.mss_bytes = hostile_then_valid[answered];
      resp.socket_id = 77;
      resp.port = fake.local_port();
      // The encoder always writes the cookie-bearing form; send only its
      // 7-word prefix so the short-form decode stays covered.
      std::vector<std::uint8_t> out(kHeaderBytes +
                                    4 * HandshakePayload::kWordsWithCookie);
      CtrlHeader out_hdr;
      out_hdr.type = CtrlType::kHandshake;
      out_hdr.dst_socket = req->socket_id;
      write_ctrl_header(out, out_hdr);
      encode_handshake_payload(std::span{out}.subspan(kHeaderBytes), resp);
      fake.send_to(src, std::span{out}.first(kHeaderBytes +
                                             4 * HandshakePayload::kWords));
      ++answered;
    }
    return answered;
  });

  auto client =
      Socket::connect("127.0.0.1", fake.local_port(), client_opts);
  EXPECT_EQ(server_thread.get(), 3u);  // needed all three responses
  ASSERT_NE(client, nullptr);          // hostile MSS rejected, valid accepted
  client->close();
}

TEST(SocketFault, ConnectRefusesWhenOnlyHostileMssResponsesArrive) {
  // Every response is hostile (mss larger than proposed): connect must keep
  // retrying and give up cleanly, never adopt the bogus MSS.
  UdpChannel fake;
  ASSERT_TRUE(fake.open(0));
  fake.set_recv_timeout(std::chrono::milliseconds{200});

  std::atomic<bool> stop{false};
  auto server_thread = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> buf(2048);
    Endpoint src;
    while (!stop) {
      const RecvResult r = fake.recv_from(src, buf);
      if (r.status != RecvStatus::kDatagram || r.bytes < kHeaderBytes) {
        continue;
      }
      std::span<const std::uint8_t> pkt{buf.data(), r.bytes};
      const auto hdr = decode_ctrl_header(pkt);
      if (!hdr || hdr->type != CtrlType::kHandshake) continue;
      const auto req = decode_handshake_payload(pkt.subspan(kHeaderBytes));
      if (!req || req->request_type != 1) continue;
      HandshakePayload resp = *req;
      resp.request_type = 0;
      resp.mss_bytes = 1u << 24;  // absurd
      resp.socket_id = 99;
      resp.port = fake.local_port();
      // The encoder always writes the cookie-bearing form; send only its
      // 7-word prefix so the short-form decode stays covered.
      std::vector<std::uint8_t> out(kHeaderBytes +
                                    4 * HandshakePayload::kWordsWithCookie);
      CtrlHeader out_hdr;
      out_hdr.type = CtrlType::kHandshake;
      out_hdr.dst_socket = req->socket_id;
      write_ctrl_header(out, out_hdr);
      encode_handshake_payload(std::span{out}.subspan(kHeaderBytes), resp);
      fake.send_to(src, std::span{out}.first(kHeaderBytes +
                                             4 * HandshakePayload::kWords));
    }
  });

  // Shorten the retry budget via a tiny payload?  The retry count is fixed
  // (50 x 100 ms), so bound the test by running connect in a thread and
  // requiring a nullptr within the full budget.
  auto client = Socket::connect("127.0.0.1", fake.local_port(), {});
  EXPECT_EQ(client, nullptr);
  stop = true;
  server_thread.get();
}

// --- graceful shutdown ------------------------------------------------------

TEST(SocketFault, CloseMovesPeerToClosingAndUnblocksRecv) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  const auto payload = make_payload(64 << 10, 13);
  EXPECT_EQ(pump(*p.client, *p.server, payload), payload);

  p.client->close();
  EXPECT_EQ(p.client->state(), ConnState::kClosed);

  // The peer observes the shutdown (not a hang, not an error).
  std::vector<std::uint8_t> buf(1024);
  EXPECT_EQ(p.server->recv(buf, std::chrono::seconds{5}), 0u);
  EXPECT_EQ(p.server->state(), ConnState::kClosing);
  EXPECT_EQ(p.server->last_error(), SocketError::kNone);
  p.server->close();
  EXPECT_EQ(p.server->state(), ConnState::kClosed);
}

TEST(SocketFault, LingerDeliversTailOfStreamOnImmediateClose) {
  SocketOptions client;
  client.linger_s = 5.0;
  Pair p = make_pair_opts({}, client);
  ASSERT_NE(p.client, nullptr);

  // send() then close() immediately: linger must let the tail drain.
  const auto payload = make_payload(512 << 10, 14);
  auto recv_done = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> received;
    std::vector<std::uint8_t> buf(1 << 16);
    while (received.size() < payload.size()) {
      const std::size_t n = p.server->recv(buf, std::chrono::seconds{10});
      if (n == 0) break;
      received.insert(received.end(), buf.begin(), buf.begin() + n);
    }
    return received;
  });
  EXPECT_EQ(p.client->send(payload), payload.size());
  p.client->close();  // no explicit flush
  EXPECT_EQ(recv_done.get(), payload);
  p.server->close();
}

}  // namespace
}  // namespace udtr::udt
