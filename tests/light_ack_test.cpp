// Light ACKs (ack id 0): cumulative-point-only acknowledgments the receiver
// sends from its drain sites (recv / recvmsg / recvfile's take) so the
// sender recycles its buffers as the receiver consumes, not once per SYN.
// They free storage and nothing else: the congestion controller must keep
// seeing exactly the SYN-clocked full-ACK stream, and a light ACK must never
// move the advertised flow window.  Asserts on counters, not wall time.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "udt/channel.hpp"
#include "udt/congestion.hpp"
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

template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds deadline) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  return pred();
}

// Every cumulative point the controller was fed, in order.
struct AckLog {
  std::mutex mu;
  std::vector<udtr::SeqNo> points;

  std::vector<udtr::SeqNo> snapshot() {
    std::lock_guard lk{mu};
    return points;
  }
};

// Forwards every event to the stock UDT controller, recording on_ack.
class SpyCc final : public CongestionControl {
 public:
  SpyCc(std::unique_ptr<CongestionControl> inner, std::shared_ptr<AckLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  void set_now(double now_s) override { inner_->set_now(now_s); }
  void on_ack(const cc::AckInfo& info) override {
    {
      std::lock_guard lk{log_->mu};
      log_->points.push_back(info.ack_seq);
    }
    inner_->on_ack(info);
  }
  void on_nak(udtr::SeqNo biggest, udtr::SeqNo largest) override {
    inner_->on_nak(biggest, largest);
  }
  void on_timeout() override { inner_->on_timeout(); }
  void on_delay_warning() override { inner_->on_delay_warning(); }
  [[nodiscard]] double pkt_send_period_s() const override {
    return inner_->pkt_send_period_s();
  }
  [[nodiscard]] double window_packets() const override {
    return inner_->window_packets();
  }
  [[nodiscard]] double freeze_deadline_s() const override {
    return inner_->freeze_deadline_s();
  }
  [[nodiscard]] double last_rtt_s() const override {
    return inner_->last_rtt_s();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<CongestionControl> inner_;
  std::shared_ptr<AckLog> log_;
};

SocketOptions spied(std::shared_ptr<AckLog> log, SocketOptions o = {}) {
  o.congestion_factory = [log](const CcConfig& cfg) {
    return std::make_unique<SpyCc>(make_congestion("udt", cfg), log);
  };
  return o;
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

// client -> server through send()/recv() with a `read_bytes` receive buffer.
std::vector<std::uint8_t> pump(Socket& from, Socket& to,
                               const std::vector<std::uint8_t>& payload,
                               std::size_t read_bytes = std::size_t{1} << 20) {
  auto send_done = std::async(std::launch::async, [&] {
    const std::size_t sent = from.send(payload);
    from.flush(std::chrono::seconds{60});
    return sent;
  });
  std::vector<std::uint8_t> received;
  std::vector<std::uint8_t> buf(read_bytes);
  while (received.size() < payload.size()) {
    const std::size_t n = to.recv(buf, std::chrono::seconds{15});
    if (n == 0) break;
    received.insert(received.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(send_done.get(), payload.size());
  return received;
}

void send_ack_raw(UdpChannel& raw, std::uint16_t dst_port,
                  std::uint32_t dst_socket, std::uint32_t ack_id,
                  const std::array<std::uint32_t, AckPayload::kWords>& words) {
  std::array<std::uint8_t, kHeaderBytes + 4 * AckPayload::kWords> pkt{};
  CtrlHeader hdr;
  hdr.type = CtrlType::kAck;
  hdr.info = ack_id;
  hdr.dst_socket = dst_socket;
  write_ctrl_header(pkt, hdr);
  write_words(std::span{pkt}.subspan(kHeaderBytes), words);
  raw.send_to(Endpoint{0x7F000001u, dst_port}, pkt);
}

std::array<std::uint32_t, AckPayload::kWords> light_words(std::int32_t seq) {
  return {static_cast<std::uint32_t>(seq), 0, 0, 0, 0, 0};
}

std::array<std::uint32_t, AckPayload::kWords> full_words(std::int32_t seq) {
  // Plausible receiver statistics: 1 ms RTT, ample buffer, modest rates.
  return {static_cast<std::uint32_t>(seq), 1000, 500, 4096, 1000, 2000};
}

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

// (a) A real stream transfer with light ACKs flowing: the controller is fed
// one event per full ACK that carried a new point — never a light ACK —
// with strictly advancing points, and the final SYN ACK reaches it even
// when a light ACK already acknowledged everything.
TEST(LightAck, ControllerSeesOnlyFullAcksWithAdvancingPoints) {
  auto log = std::make_shared<AckLog>();
  Pair p = make_pair_opts({}, spied(log));
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  // Half the send buffer, so every packet is a full MSS but the tail.
  const auto payload = make_payload(8 << 20, 1);
  ASSERT_EQ(pump(*p.client, *p.server, payload), payload);
  const auto pkts = static_cast<std::int32_t>(ceil_div(payload.size(), 1456));
  ASSERT_TRUE(wait_until(
      [&] {
        const auto pts = log->snapshot();
        return !pts.empty() && pts.back().value() == pkts;
      },
      std::chrono::milliseconds{2000}))
      << "the last full ACK never reached the controller";

  const PerfStats cs = p.client->perf();
  const PerfStats ss = p.server->perf();
  EXPECT_GT(ss.light_acks_sent, 0u);
  EXPECT_GT(cs.light_acks_recv, 0u);
  EXPECT_LE(cs.light_acks_recv, ss.light_acks_sent);
  const auto pts = log->snapshot();
  EXPECT_EQ(pts.size(), cs.acks_recv - cs.stale_acks_dropped);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(udtr::SeqNo::cmp(pts[i], pts[i - 1]), 0) << "at " << i;
  }
  p.client->close();
  p.server->close();
}

// Fake peer: answers one handshake so a real client connects to it, then
// stays silent — every ACK the client sees is forged by the test.
struct FakePeer {
  UdpChannel ch;
  std::unique_ptr<Socket> client;
  std::int32_t isn = 0;
};

void connect_to_fake(FakePeer& f, SocketOptions opts) {
  ASSERT_TRUE(f.ch.open(0));
  f.ch.set_recv_timeout(std::chrono::seconds{5});
  auto server = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> buf(2048);
    Endpoint src;
    for (;;) {
      const RecvResult r = f.ch.recv_from(src, buf);
      if (r.status == RecvStatus::kTimeout) return false;
      if (r.status != RecvStatus::kDatagram || r.bytes < kHeaderBytes) {
        continue;
      }
      std::span<const std::uint8_t> pkt{buf.data(), r.bytes};
      const auto hdr = decode_ctrl_header(pkt);
      if (!hdr || hdr->type != CtrlType::kHandshake) continue;
      const auto req = decode_handshake_payload(pkt.subspan(kHeaderBytes));
      if (!req || req->request_type != kHsRequest) continue;
      f.isn = static_cast<std::int32_t>(req->initial_seq);
      HandshakePayload resp = *req;
      resp.request_type = kHsResponse;
      resp.socket_id = 77;
      resp.port = f.ch.local_port();
      std::array<std::uint8_t,
                 kHeaderBytes + 4 * HandshakePayload::kWordsWithCookie>
          out{};
      CtrlHeader out_hdr;
      out_hdr.type = CtrlType::kHandshake;
      out_hdr.dst_socket = req->socket_id;
      write_ctrl_header(out, out_hdr);
      encode_handshake_payload(std::span{out}.subspan(kHeaderBytes), resp);
      f.ch.send_to(src, out);
      return true;
    }
  });
  f.client = Socket::connect("127.0.0.1", f.ch.local_port(), opts);
  ASSERT_TRUE(server.get());
  ASSERT_NE(f.client, nullptr);
}

// (b) The controller's feed is gated on the last point IT was fed, not on
// snd_una: a SYN ACK whose point a light ACK already covered is still a
// controller event (else the §3.3 once-per-ACK increase would silently lose
// cadence), and light ACKs interleaved with full ACKs leave the fed count
// and points exactly those of the full ACKs.
TEST(LightAck, SynAckCoveredByLightAckStillFeedsController) {
  auto log = std::make_shared<AckLog>();
  FakePeer f;
  SocketOptions o;
  o.linger_s = 0.0;  // the fake peer never acknowledges the data for real
  connect_to_fake(f, spied(log, o));
  ASSERT_NE(f.client, nullptr);
  Socket& c = *f.client;
  const auto payload = make_payload(256 << 10, 2);
  ASSERT_EQ(c.send(payload), payload.size());
  ASSERT_TRUE(wait_until([&] { return c.perf().data_packets_sent >= 8; },
                         std::chrono::milliseconds{2000}));

  const auto port = c.local_port();
  const auto id = c.id();
  std::uint32_t next_id = 1;
  std::uint64_t lights = 0;
  std::uint64_t fulls = 0;
  const auto light = [&](std::int32_t point) {
    send_ack_raw(f.ch, port, id, 0, light_words(f.isn + point));
    ++lights;
    ASSERT_TRUE(
        wait_until([&] { return c.perf().light_acks_recv == lights; },
                   std::chrono::milliseconds{2000}));
  };
  const auto full = [&](std::int32_t point) {
    send_ack_raw(f.ch, port, id, next_id++, full_words(f.isn + point));
    ++fulls;
    ASSERT_TRUE(wait_until([&] { return c.perf().acks_recv == fulls; },
                           std::chrono::milliseconds{2000}));
  };
  const auto fed = [&] {
    std::vector<std::int32_t> v;
    for (const auto s : log->snapshot()) v.push_back(s.value() - f.isn);
    return v;
  };

  light(4);
  EXPECT_TRUE(fed().empty()) << "a light ACK reached the controller";
  full(4);  // covered by the light ACK, still a fresh controller event
  EXPECT_EQ(fed(), (std::vector<std::int32_t>{4}));
  light(6);
  light(8);
  full(8);
  EXPECT_EQ(fed(), (std::vector<std::int32_t>{4, 8}));
  light(5);  // behind snd_una: nothing
  full(8);   // duplicate full ACK: stale, withheld
  EXPECT_EQ(fed(), (std::vector<std::int32_t>{4, 8}));

  const PerfStats cs = c.perf();
  EXPECT_EQ(cs.acks_recv, 3u);
  EXPECT_EQ(cs.light_acks_recv, 4u);
  EXPECT_EQ(cs.stale_acks_dropped, 1u);
  EXPECT_EQ(cs.acks_sent + cs.light_acks_sent, 0u);  // it received nothing
  f.client->close();
}

// Fixed window, no pacing: takes the controller (and its SYN-clocked slow
// start) out of a test that is about buffer turnover alone.
class FixedWindowCc final : public CongestionControl {
 public:
  void set_now(double) override {}
  void on_ack(const cc::AckInfo&) override {}
  void on_nak(udtr::SeqNo, udtr::SeqNo) override {}
  void on_timeout() override {}
  [[nodiscard]] double pkt_send_period_s() const override { return 1e-6; }
  [[nodiscard]] double window_packets() const override { return 1024.0; }
  [[nodiscard]] double last_rtt_s() const override { return 0.001; }
  [[nodiscard]] const char* name() const override { return "fixed-window"; }
};

// (c) sendfile with a two-chunk reader ring and a 100 ms SYN.  A ring chunk
// recycles only once acknowledged, and the sender never has more than one
// ring outstanding past the last release, so full ACKs alone could turn the
// ring at most once per full ACK received (plus the first fill); with light
// ACKs it turns as fast as the receiver drains (42 turns against 2 full
// ACKs on a 4-core host).  The ring minus one chunk must exceed the 512 KiB
// light-ACK stride — after an ACK lands mid-chunk that is all the sender
// can put past it — so the chunks are 768 KiB; a smaller ring falls back
// to turning on the SYN clock.
TEST(LightAck, SendfileRingTurnsFasterThanTheSynClock) {
  const auto payload = make_payload(64 << 20, 3);
  const std::string src = ::testing::TempDir() + "udtr_light_ack_src.bin";
  const std::string dst = ::testing::TempDir() + "udtr_light_ack_dst.bin";
  {
    std::ofstream out{src, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    ASSERT_TRUE(out);
  }
  std::remove(dst.c_str());

  SocketOptions o;
  o.syn_s = 0.1;
  o.file_ring_chunks = 2;
  o.file_chunk_bytes = std::size_t{768} << 10;
  o.congestion_factory = [](const CcConfig&) {
    return std::make_unique<FixedWindowCc>();
  };
  Pair p = make_pair_opts(o, o);
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);
  auto sent = std::async(std::launch::async, [&] {
    return p.client->sendfile(src, 0, payload.size());
  });
  EXPECT_EQ(p.server->recvfile(dst, payload.size()), payload.size());
  EXPECT_EQ(sent.get(), payload.size());
  std::vector<std::uint8_t> got(payload.size());
  {
    std::ifstream in{dst, std::ios::binary};
    in.read(reinterpret_cast<char*>(got.data()),
            static_cast<std::streamsize>(got.size()));
    EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(got.size()));
  }
  EXPECT_TRUE(got == payload) << "destination file differs from the source";
  std::remove(src.c_str());
  std::remove(dst.c_str());

  const PerfStats cs = p.client->perf();
  const std::uint64_t turns =
      payload.size() / (o.file_chunk_bytes *
                        static_cast<std::uint64_t>(o.file_ring_chunks));
  EXPECT_GT(cs.light_acks_recv, turns);
  EXPECT_GT(turns, cs.acks_recv + 1)
      << "ring turns " << turns << " vs full ACKs " << cs.acks_recv;
  p.client->close();
  p.server->close();
}

// (d) A forged light ACK outside [snd_una, snd_next] changes nothing, and
// an in-window one advertising zero buffer never closes the window: light
// ACKs carry no flow-control or controller input at all.
TEST(LightAck, ForgedLightAckMovesNeitherWindowNorController) {
  auto log = std::make_shared<AckLog>();
  Pair p = make_pair_opts({}, spied(log));
  ASSERT_NE(p.client, nullptr);

  const auto payload = make_payload(100 << 10, 4);
  ASSERT_EQ(pump(*p.client, *p.server, payload), payload);
  std::this_thread::sleep_for(std::chrono::milliseconds{100});  // settle
  const PerfStats rest = p.client->perf();
  const std::size_t fed = log->snapshot().size();
  ASSERT_GT(rest.peer_window_pkts, 0.0);

  UdpChannel raw;
  ASSERT_TRUE(raw.open(0));
  std::array<std::uint32_t, AckPayload::kWords> wild{};
  wild[0] = 0x20000000u;  // far outside [snd_una, snd_next]
  wild[4] = 99999999;     // absurd statistics a light ACK must not carry
  wild[5] = 99999999;
  send_ack_raw(raw, p.client->local_port(), p.client->id(), 0, wild);
  // In-window (== snd_una after the fully acknowledged transfer; default
  // ISN 0) with a zero advertisement.
  const auto pkts = static_cast<std::int32_t>(ceil_div(payload.size(), 1456));
  send_ack_raw(raw, p.client->local_port(), p.client->id(), 0,
               light_words(pkts));
  ASSERT_TRUE(wait_until(
      [&] {
        return p.client->perf().light_acks_recv >= rest.light_acks_recv + 2;
      },
      std::chrono::milliseconds{2000}));

  const PerfStats after = p.client->perf();
  EXPECT_DOUBLE_EQ(after.peer_window_pkts, rest.peer_window_pkts);
  EXPECT_DOUBLE_EQ(after.send_period_us, rest.send_period_us);
  EXPECT_DOUBLE_EQ(after.window_pkts, rest.window_pkts);
  EXPECT_EQ(after.acks_recv, rest.acks_recv);
  EXPECT_EQ(after.stale_acks_dropped, rest.stale_acks_dropped);
  EXPECT_EQ(after.zero_window_probes, rest.zero_window_probes);
  EXPECT_EQ(log->snapshot().size(), fed);

  const auto payload2 = make_payload(64 << 10, 5);
  EXPECT_EQ(pump(*p.client, *p.server, payload2), payload2);
  EXPECT_EQ(p.client->perf().zero_window_probes, rest.zero_window_probes);
  p.client->close();
  p.server->close();
}

// (e) Zero-window close and reopen with light ACKs in play: a receive
// buffer a little larger than the light-ACK stride fills, the window closes,
// and draining reopens it; the transfer completes byte-exact.
TEST(LightAck, ZeroWindowClosesAndReopens) {
  SocketOptions server;
  server.rcv_buffer_pkts = 512;  // > 512 KiB / 1456 B: light ACKs can fire
  Pair p = make_pair_opts(server, {});
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  const auto payload = make_payload(4 << 20, 6);
  ASSERT_EQ(p.client->send(payload), payload.size());
  ASSERT_TRUE(wait_until(
      [&] {
        const PerfStats s = p.client->perf();
        return s.acks_recv > 0 && s.peer_window_pkts <= 0.0;
      },
      std::chrono::milliseconds{5000}))
      << "peer window never closed";

  auto flushed = std::async(std::launch::async, [&] {
    return p.client->flush(std::chrono::seconds{60});
  });
  std::vector<std::uint8_t> received;
  std::vector<std::uint8_t> buf(1 << 20);
  while (received.size() < payload.size()) {
    const std::size_t n = p.server->recv(buf, std::chrono::seconds{15});
    ASSERT_GT(n, 0u) << "stalled at " << received.size() << "/"
                     << payload.size() << " bytes";
    received.insert(received.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_TRUE(flushed.get());
  EXPECT_EQ(received, payload);
  EXPECT_GT(p.server->perf().light_acks_sent, 0u);
  EXPECT_GT(p.client->perf().peer_window_pkts, 0.0);
  EXPECT_EQ(p.client->state(), ConnState::kEstablished);
  p.client->close();
  p.server->close();
}

// A light ACK frees storage but never stretches the flow-control extent:
// the receiver's grant counts from the point of the full ACK that carried
// it.  A reader that consumes one packet at a time, far slower than the
// sender, lags the contiguous point by most of its buffer, so a sender
// that re-anchored the stale grant at each light ACK's point would overrun
// the receive buffer (arrivals past its end are dropped, NAKed and
// retransmitted).  On loss-free loopback nothing may be retransmitted.
TEST(LightAck, SlowReaderIsNeverOverrun) {
  SocketOptions server;
  server.rcv_buffer_pkts = 1024;
  Pair p = make_pair_opts(server, {});
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);

  const auto payload = make_payload(2 << 20, 7);
  auto send_done = std::async(std::launch::async, [&] {
    const std::size_t sent = p.client->send(payload);
    p.client->flush(std::chrono::seconds{60});
    return sent;
  });
  std::vector<std::uint8_t> received;
  std::vector<std::uint8_t> buf(1456);
  while (received.size() < payload.size()) {
    const std::size_t n = p.server->recv(buf, std::chrono::seconds{15});
    ASSERT_GT(n, 0u) << "stalled at " << received.size() << "/"
                     << payload.size() << " bytes";
    received.insert(received.end(), buf.begin(), buf.begin() + n);
    std::this_thread::sleep_for(std::chrono::microseconds{100});
  }
  EXPECT_EQ(send_done.get(), payload.size());
  EXPECT_EQ(received, payload);
  const PerfStats cs = p.client->perf();
  EXPECT_GT(cs.light_acks_recv, 0u);
  EXPECT_EQ(cs.retransmitted, 0u);
  EXPECT_EQ(cs.naks_recv, 0u);
  p.client->close();
  p.server->close();
}

}  // namespace
}  // namespace udtr::udt
