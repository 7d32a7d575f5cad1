// End-to-end tests of the real UDT socket library over loopback UDP:
// handshake, reliable stream transfer (with and without injected loss),
// file transfer, wraparound sequence numbers, and perfmon sanity.
#include "udt/socket.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <numeric>
#include <random>

namespace udtr::udt {
namespace {

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::mt19937_64 rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

// Runs a one-direction transfer and returns the received bytes.
std::vector<std::uint8_t> transfer(const std::vector<std::uint8_t>& payload,
                                   SocketOptions server_opts,
                                   SocketOptions client_opts) {
  auto listener = Socket::listen(0, server_opts);
  EXPECT_NE(listener, nullptr);
  const std::uint16_t port = listener->local_port();

  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{10});
  });
  auto client = Socket::connect("127.0.0.1", port, client_opts);
  EXPECT_NE(client, nullptr);
  auto server = accepted.get();
  EXPECT_NE(server, nullptr);
  if (!client || !server) return {};

  auto send_done = std::async(std::launch::async, [&] {
    const std::size_t sent = client->send(payload);
    client->flush(std::chrono::seconds{60});
    return sent;
  });

  std::vector<std::uint8_t> received;
  std::vector<std::uint8_t> buf(1 << 16);
  while (received.size() < payload.size()) {
    const std::size_t n = server->recv(buf, std::chrono::seconds{15});
    if (n == 0) break;
    received.insert(received.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(send_done.get(), payload.size());
  client->close();
  server->close();
  return received;
}

TEST(Socket, HandshakeEstablishesConnection) {
  auto listener = Socket::listen(0);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port());
  ASSERT_NE(client, nullptr);
  auto server = accepted.get();
  ASSERT_NE(server, nullptr);
  client->close();
  server->close();
}

TEST(Socket, ConnectToNobodyFails) {
  SocketOptions opts;
  auto s = Socket::connect("127.0.0.1", 1, opts);  // nothing listens there
  EXPECT_EQ(s, nullptr);
}

TEST(Socket, SmallMessageRoundTrip) {
  const auto payload = make_payload(100, 1);
  EXPECT_EQ(transfer(payload, {}, {}), payload);
}

TEST(Socket, MultiMegabyteTransferIsExact) {
  const auto payload = make_payload(4 << 20, 2);
  EXPECT_EQ(transfer(payload, {}, {}), payload);
}

TEST(Socket, TransferSurvivesInjectedLoss) {
  const auto payload = make_payload(1 << 20, 3);
  SocketOptions client;
  // 2% forward data loss.
  client.faults = make_loss_injector(0.02, 99, kHeaderBytes + 16);
  const auto got = transfer(payload, {}, client);
  EXPECT_EQ(got, payload);
}

TEST(Socket, TransferSurvivesHeavyLoss) {
  const auto payload = make_payload(256 << 10, 4);
  SocketOptions client;
  client.faults = make_loss_injector(0.15, 7, kHeaderBytes + 16);
  const auto got = transfer(payload, {}, client);
  EXPECT_EQ(got, payload);
}

TEST(Socket, SequenceWraparoundMidTransfer) {
  // Start the ISN just below 2^31 so the stream wraps within the first
  // few hundred packets.
  const auto payload = make_payload(1 << 20, 5);
  SocketOptions client;
  client.initial_seq = udtr::SeqNo::kMax - 100;
  const auto got = transfer(payload, {}, client);
  EXPECT_EQ(got, payload);
}

TEST(Socket, WraparoundWithLoss) {
  const auto payload = make_payload(512 << 10, 6);
  SocketOptions client;
  client.initial_seq = udtr::SeqNo::kMax - 50;
  client.faults = make_loss_injector(0.05, 3, kHeaderBytes + 16);
  const auto got = transfer(payload, {}, client);
  EXPECT_EQ(got, payload);
}

TEST(Socket, MssNegotiationPicksMinimum) {
  SocketOptions server;
  server.mss_bytes = 900;
  SocketOptions client;
  client.mss_bytes = 1456;
  const auto payload = make_payload(100 << 10, 7);
  EXPECT_EQ(transfer(payload, server, client), payload);
}

TEST(Socket, PerfStatsAreCoherent) {
  auto listener = Socket::listen(0);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port());
  ASSERT_NE(client, nullptr);
  auto server = accepted.get();
  ASSERT_NE(server, nullptr);

  const auto payload = make_payload(2 << 20, 8);
  auto send_done = std::async(std::launch::async, [&] {
    client->send(payload);
    client->flush(std::chrono::seconds{30});
  });
  std::vector<std::uint8_t> buf(1 << 16);
  std::size_t got = 0;
  // Forfeited pacing time is a running total: sampled mid-transfer it never
  // shrinks (how much a host forfeits depends on its speed, so no bound).
  double forfeit_us = 0.0;
  while (got < payload.size()) {
    const std::size_t n = server->recv(buf, std::chrono::seconds{10});
    if (n == 0) break;
    got += n;
    const double f = client->perf().pacing_forfeit_us;
    EXPECT_GE(f, forfeit_us);
    forfeit_us = f;
  }
  send_done.get();

  const PerfStats cs = client->perf();
  const PerfStats ss = server->perf();
  EXPECT_GE(cs.pacing_forfeit_us, forfeit_us);
  EXPECT_EQ(cs.bytes_sent, payload.size());
  EXPECT_EQ(ss.bytes_delivered, payload.size());
  EXPECT_GT(cs.data_packets_sent, payload.size() / 1456);
  EXPECT_GT(cs.acks_recv, 0u);
  EXPECT_GT(ss.acks_sent, 0u);
  // Loss-free loopback: the sender cannot receive more ACKs of either kind
  // than the receiver emitted.
  EXPECT_LE(cs.acks_recv, ss.acks_sent);
  EXPECT_LE(cs.light_acks_recv, ss.light_acks_sent);
  EXPECT_GE(ss.data_packets_recv, cs.data_packets_sent - cs.retransmitted
            ? 1u : 0u);
  EXPECT_GT(ss.rtt_ms, 0.0);
  EXPECT_LT(ss.rtt_ms, 200.0);
  client->close();
  server->close();
}

TEST(Socket, SendfileRecvfileRoundTrip) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "udtr_test";
  fs::create_directories(dir);
  const auto src = (dir / "src.bin").string();
  const auto dst = (dir / "dst.bin").string();
  const auto payload = make_payload(3 << 20, 9);
  {
    std::ofstream f{src, std::ios::binary};
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  }

  auto listener = Socket::listen(0);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port());
  ASSERT_NE(client, nullptr);
  auto server = accepted.get();
  ASSERT_NE(server, nullptr);

  auto send_done = std::async(std::launch::async, [&] {
    return client->sendfile(src, 0, payload.size());
  });
  const std::uint64_t received = server->recvfile(dst, payload.size());
  EXPECT_EQ(send_done.get(), payload.size());
  EXPECT_EQ(received, payload.size());

  std::ifstream f{dst, std::ios::binary};
  std::vector<std::uint8_t> got(payload.size());
  f.read(reinterpret_cast<char*>(got.data()),
         static_cast<std::streamsize>(got.size()));
  EXPECT_EQ(got, payload);
  client->close();
  server->close();
  fs::remove_all(dir);
}

TEST(Socket, SendfileWithOffset) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "udtr_test_off";
  fs::create_directories(dir);
  const auto src = (dir / "src.bin").string();
  const auto dst = (dir / "dst.bin").string();
  const auto payload = make_payload(1 << 20, 10);
  {
    std::ofstream f{src, std::ios::binary};
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  }
  constexpr std::uint64_t kOffset = 1000;
  const std::uint64_t len = payload.size() - kOffset;

  auto listener = Socket::listen(0);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port());
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  auto send_done = std::async(std::launch::async, [&] {
    return client->sendfile(src, kOffset, len);
  });
  EXPECT_EQ(server->recvfile(dst, len), len);
  EXPECT_EQ(send_done.get(), len);

  std::ifstream f{dst, std::ios::binary};
  std::vector<std::uint8_t> got(len);
  f.read(reinterpret_cast<char*>(got.data()),
         static_cast<std::streamsize>(got.size()));
  EXPECT_TRUE(std::equal(got.begin(), got.end(),
                         payload.begin() + kOffset));
  client->close();
  server->close();
  fs::remove_all(dir);
}

TEST(Socket, RecvTimesOutWithNoData) {
  auto listener = Socket::listen(0);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port());
  auto server = accepted.get();
  ASSERT_NE(server, nullptr);
  std::vector<std::uint8_t> buf(1024);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(server->recv(buf, std::chrono::milliseconds{200}), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds{150});
  client->close();
  server->close();
}

TEST(Socket, BidirectionalTransfer) {
  auto listener = Socket::listen(0);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port());
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  const auto up = make_payload(256 << 10, 11);
  const auto down = make_payload(256 << 10, 12);
  auto up_send = std::async(std::launch::async, [&] {
    client->send(up);
    client->flush(std::chrono::seconds{30});
  });
  auto down_send = std::async(std::launch::async, [&] {
    server->send(down);
    server->flush(std::chrono::seconds{30});
  });
  const auto drain = [](Socket& s, std::size_t want) {
    std::vector<std::uint8_t> all;
    std::vector<std::uint8_t> buf(1 << 16);
    while (all.size() < want) {
      const std::size_t n = s.recv(buf, std::chrono::seconds{10});
      if (n == 0) break;
      all.insert(all.end(), buf.begin(), buf.begin() + n);
    }
    return all;
  };
  auto down_got = std::async(std::launch::async,
                             [&] { return drain(*client, down.size()); });
  const auto up_got = drain(*server, up.size());
  up_send.get();
  down_send.get();
  EXPECT_EQ(up_got, up);
  EXPECT_EQ(down_got.get(), down);
  client->close();
  server->close();
}

TEST(Socket, CloseIsIdempotentAndUnblocksPeers) {
  auto listener = Socket::listen(0);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port());
  auto server = accepted.get();
  ASSERT_NE(server, nullptr);
  client->close();
  client->close();  // second close is a no-op
  // Server recv should observe the shutdown rather than hang.
  std::vector<std::uint8_t> buf(128);
  EXPECT_EQ(server->recv(buf, std::chrono::seconds{5}), 0u);
  server->close();
}

}  // namespace
}  // namespace udtr::udt
