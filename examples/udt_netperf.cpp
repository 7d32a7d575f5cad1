// udt_netperf: memory-to-memory throughput tool over the real socket
// library, in the spirit of the testbed measurements in §5.1 — including a
// live one-line-per-second performance trace like Figs. 11/12.
//
//   ./udt_netperf [--seconds N] [--mss BYTES] [--loss P] [--cap MBPS]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "udt/multiplexer.hpp"
#include "udt/socket.hpp"

int main(int argc, char** argv) {
  using namespace udtr::udt;
  double seconds = 5.0;
  int mss = 1456;
  double loss = 0.0;
  double cap_mbps = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const double v = std::atof(argv[i + 1]);
    if (flag == "--seconds") seconds = v;
    else if (flag == "--mss") mss = static_cast<int>(v);
    else if (flag == "--loss") loss = v;
    else if (flag == "--cap") cap_mbps = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 64;
    }
  }

  SocketOptions opts;
  opts.mss_bytes = mss;
  opts.max_bandwidth_mbps = cap_mbps;
  // --loss drops that fraction of each end's outbound data packets, each
  // end from its own seeded stream.
  const auto with_loss = [&](SocketOptions o) {
    if (loss > 0.0) o.faults = make_loss_injector(loss, 1, kHeaderBytes + 16);
    return o;
  };

  auto listener = Socket::listen(0, with_loss(opts));
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client =
      Socket::connect("127.0.0.1", listener->local_port(), with_loss(opts));
  auto server = accepted.get();
  if (!client || !server) {
    std::fprintf(stderr, "connection failed\n");
    return 1;
  }

  std::atomic<bool> stop{false};
  auto send_thread = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> block(1 << 20, 0x5A);
    while (!stop) client->send(block);
  });
  auto recv_thread = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> buf(1 << 20);
    while (!stop) server->recv(buf, std::chrono::milliseconds{200});
  });

  // Socket buffers as the kernel granted them (it caps what the
  // multiplexer asks for at net.core.rmem_max / wmem_max).
  const auto rx_mux = server->multiplexer();
  std::printf("receiver port: rcvbuf %d B, sndbuf %d B granted\n",
              rx_mux->rcvbuf_bytes(), rx_mux->sndbuf_bytes());
  // forfeit(us): pacing schedule the sender gave up that second because
  // its rounds were released more than one batch late (host too slow).
  // kdrops: datagrams the receiver's kernel dropped on a full socket
  // queue (cumulative SO_RXQ_OVFL count) — loss no injector caused.
  std::printf("%6s %12s %10s %10s %10s %12s %12s %8s\n", "t(s)", "Mb/s",
              "rtx", "naks", "rtt(ms)", "period(us)", "forfeit(us)",
              "kdrops");
  std::uint64_t last_bytes = 0;
  double last_forfeit_us = 0.0;
  for (int t = 1; t <= static_cast<int>(seconds); ++t) {
    std::this_thread::sleep_for(std::chrono::seconds{1});
    const PerfStats p = server->perf();
    const PerfStats c = client->perf();
    const double mbps =
        static_cast<double>(p.bytes_delivered - last_bytes) * 8.0 / 1e6;
    last_bytes = p.bytes_delivered;
    std::printf("%6d %12.1f %10llu %10llu %10.2f %12.2f %12.0f %8llu\n", t,
                mbps, (unsigned long long)c.retransmitted,
                (unsigned long long)c.naks_recv, p.rtt_ms, c.send_period_us,
                c.pacing_forfeit_us - last_forfeit_us,
                (unsigned long long)rx_mux->kernel_rx_drops());
    last_forfeit_us = c.pacing_forfeit_us;
  }
  stop = true;
  client->close();
  server->close();
  send_thread.get();
  recv_thread.get();
  return 0;
}
