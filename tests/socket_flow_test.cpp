// Socket tests for flow control and multi-connection scenarios.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <random>
#include <vector>

#include "udt/socket.hpp"

namespace udtr::udt {
namespace {

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::mt19937_64 rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

TEST(SocketFlow, TwoSequentialClientsOnOneListener) {
  auto listener = Socket::listen(0);
  ASSERT_NE(listener, nullptr);
  const auto port = listener->local_port();

  const auto pay_a = make_payload(256 << 10, 1);
  const auto pay_b = make_payload(256 << 10, 2);

  auto accept_a = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client_a = Socket::connect("127.0.0.1", port);
  auto server_a = accept_a.get();
  ASSERT_NE(client_a, nullptr);
  ASSERT_NE(server_a, nullptr);

  auto accept_b = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client_b = Socket::connect("127.0.0.1", port);
  auto server_b = accept_b.get();
  ASSERT_NE(client_b, nullptr);
  ASSERT_NE(server_b, nullptr);

  // Both connections transfer concurrently and independently.
  auto send_a = std::async(std::launch::async, [&] {
    client_a->send(pay_a);
    client_a->flush(std::chrono::seconds{30});
  });
  auto send_b = std::async(std::launch::async, [&] {
    client_b->send(pay_b);
    client_b->flush(std::chrono::seconds{30});
  });
  const auto drain = [](Socket& s, std::size_t want) {
    std::vector<std::uint8_t> all, buf(1 << 16);
    while (all.size() < want) {
      const std::size_t n = s.recv(buf, std::chrono::seconds{10});
      if (n == 0) break;
      all.insert(all.end(), buf.begin(), buf.begin() + n);
    }
    return all;
  };
  auto got_b = std::async(std::launch::async,
                          [&] { return drain(*server_b, pay_b.size()); });
  const auto got_a = drain(*server_a, pay_a.size());
  send_a.get();
  send_b.get();
  EXPECT_EQ(got_a, pay_a);
  EXPECT_EQ(got_b.get(), pay_b);
  client_a->close();
  client_b->close();
  server_a->close();
  server_b->close();
}

TEST(SocketFlow, SlowReaderThrottledByFlowControlNotBroken) {
  // Tiny receiver buffer + slow reader: the flow-control window in ACKs
  // must keep the sender from overrunning, and everything still arrives.
  SocketOptions opts;
  opts.rcv_buffer_pkts = 64;
  auto listener = Socket::listen(0, opts);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  const auto payload = make_payload(512 << 10, 3);
  auto send_done = std::async(std::launch::async, [&] {
    return client->send(payload);
  });
  std::vector<std::uint8_t> got;
  std::vector<std::uint8_t> buf(16 << 10);  // small reads
  while (got.size() < payload.size()) {
    const std::size_t n = server->recv(buf, std::chrono::seconds{20});
    if (n == 0) break;
    got.insert(got.end(), buf.begin(), buf.begin() + n);
    std::this_thread::sleep_for(std::chrono::microseconds{200});  // slow app
  }
  EXPECT_EQ(send_done.get(), payload.size());
  EXPECT_EQ(got, payload);
  client->close();
  server->close();
}

TEST(SocketFlow, WindowControlOffStillReliableUnderLoss) {
  // Fig. 7's "without FC" configuration on the real stack: more loss churn,
  // but the NAK machinery still delivers every byte.
  SocketOptions opts;
  opts.window_control = false;
  // Each end drops from its own seeded stream.
  opts.faults = make_loss_injector(0.03, 5, kHeaderBytes + 16);
  auto listener = Socket::listen(0, opts);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  opts.faults = make_loss_injector(0.03, 5, kHeaderBytes + 16);
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  const auto payload = make_payload(256 << 10, 6);
  auto send_done = std::async(std::launch::async, [&] {
    const std::size_t n = client->send(payload);
    client->flush(std::chrono::seconds{60});
    return n;
  });
  std::vector<std::uint8_t> got, buf(1 << 16);
  while (got.size() < payload.size()) {
    const std::size_t n = server->recv(buf, std::chrono::seconds{20});
    if (n == 0) break;
    got.insert(got.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(send_done.get(), payload.size());
  EXPECT_EQ(got, payload);
  client->close();
  server->close();
}

TEST(SocketFlow, MaxBandwidthCapIsRespected) {
  SocketOptions opts;
  opts.max_bandwidth_mbps = 50.0;
  auto listener = Socket::listen(0, opts);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  std::atomic<bool> stop{false};
  auto snd = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> block(1 << 20, 0x42);
    while (!stop) client->send(block);
  });
  auto rcv = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> buf(1 << 20);
    while (!stop) server->recv(buf, std::chrono::milliseconds{100});
  });
  std::this_thread::sleep_for(std::chrono::seconds{2});
  const double mbps =
      static_cast<double>(server->perf().bytes_delivered) * 8.0 / 2.0 / 1e6;
  stop = true;
  client->close();
  server->close();
  snd.get();
  rcv.get();
  // The invariant under test is the cap: delivery must never exceed it
  // (plus headroom for the 2 s sampling window's edges).  The floor is
  // only a liveness check — on an oversubscribed CI box the schedulable
  // rate is unbounded below (observed: ~1 Mb/s under 8x ctest load), so
  // it must not assert that pacing reaches the cap.
  EXPECT_LT(mbps, 60.0);
  EXPECT_GT(mbps, 0.5);
}

}  // namespace
}  // namespace udtr::udt
