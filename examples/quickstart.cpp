// Quickstart: the 60-second tour of the UDT socket API.
//
// Starts a listener, connects to it over loopback UDP, pushes 32 MB through
// the protocol, and prints the performance counters — the same flow as the
// first example in the README.
//
//   $ ./quickstart [megabytes]
#include <chrono>
#include <cstdio>
#include <future>
#include <random>
#include <vector>

#include "udt/socket.hpp"

int main(int argc, char** argv) {
  using namespace udtr::udt;
  const std::size_t megabytes =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 32;
  const std::size_t total = megabytes << 20;

  // 1. Server: listen and accept.
  auto listener = Socket::listen(0);
  if (!listener) {
    std::fprintf(stderr, "listen failed\n");
    return 1;
  }
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });

  // 2. Client: connect.
  auto client = Socket::connect("127.0.0.1", listener->local_port());
  auto server = accepted.get();
  if (!client || !server) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  std::printf("connected: client :%u -> server :%u\n", client->local_port(),
              server->local_port());

  // 3. Transfer: one thread sends, the main thread receives.
  std::vector<std::uint8_t> payload(total);
  std::mt19937_64 rng{42};
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());

  const auto t0 = std::chrono::steady_clock::now();
  auto sender = std::async(std::launch::async, [&] {
    client->send(payload);
    client->flush(std::chrono::seconds{120});
  });

  std::vector<std::uint8_t> buf(1 << 20);
  std::size_t received = 0;
  while (received < total) {
    const std::size_t n = server->recv(buf, std::chrono::seconds{10});
    if (n == 0) break;
    received += n;
  }
  sender.get();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  // 4. Inspect the protocol's performance counters.
  const PerfStats cs = client->perf();
  const PerfStats ss = server->perf();
  std::printf("transferred %zu MB in %.2f s  =>  %.1f Mb/s\n", megabytes,
              secs, static_cast<double>(received) * 8.0 / secs / 1e6);
  std::printf("sender:   %llu data pkts, %llu retransmitted, %llu ACKs in "
              "(+%llu light), %llu NAKs in\n",
              (unsigned long long)cs.data_packets_sent,
              (unsigned long long)cs.retransmitted,
              (unsigned long long)cs.acks_recv,
              (unsigned long long)cs.light_acks_recv,
              (unsigned long long)cs.naks_recv);
  std::printf("receiver: %llu data pkts, RTT %.2f ms, est. capacity %.0f "
              "Mb/s, window %.0f pkts\n",
              (unsigned long long)ss.data_packets_recv, ss.rtt_ms,
              ss.capacity_mbps, cs.window_pkts);

  client->close();
  server->close();
  return received == total ? 0 : 2;
}
