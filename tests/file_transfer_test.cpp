// Blast-mode file transfer: the pipelined zero-copy disk datapath
// (FileSource reader ring -> borrowed send buffer; RcvBuffer::take_stream ->
// FileSink write-behind), byte-exact under combined faults, the
// offset/length edge cases,
// ring-exhaustion backpressure, write-behind ordering under reorder, and the
// recvfile error contract (timeout vs truncation vs disk failure).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "udt/channel.hpp"
#include "udt/fault.hpp"
#include "udt/socket.hpp"

namespace udtr::udt {
namespace {

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::mt19937_64 rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "udtr_ft_" + name;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  ASSERT_TRUE(out);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) return {};
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::uint8_t> v(size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(size));
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

// Ships `payload` client -> server through sendfile/recvfile and returns the
// bytes that landed in the destination file.  Checks both return values.
std::vector<std::uint8_t> round_trip(Pair& p, const std::string& tag,
                                     const std::vector<std::uint8_t>& payload) {
  const std::string src = temp_path(tag + "_src.bin");
  const std::string dst = temp_path(tag + "_dst.bin");
  write_file(src, payload);
  std::remove(dst.c_str());
  auto sent = std::async(std::launch::async, [&] {
    return p.client->sendfile(src, 0, payload.size());
  });
  const std::uint64_t received = p.server->recvfile(dst, payload.size());
  EXPECT_EQ(sent.get(), payload.size());
  EXPECT_EQ(received, payload.size());
  EXPECT_EQ(p.server->last_error(), SocketError::kNone);
  auto out = read_file(dst);
  std::remove(src.c_str());
  std::remove(dst.c_str());
  return out;
}

SocketOptions faulted_client(double bandwidth_mbps = 150.0) {
  FaultConfig cfg;
  cfg.send.drop_p = 0.05;
  cfg.recv.drop_p = 0.05;
  cfg.send.reorder_p = 0.02;
  cfg.send.reorder_hold = 3;
  cfg.recv.reorder_p = 0.02;
  cfg.recv.reorder_hold = 3;
  cfg.seed = 20040807;
  SocketOptions client;
  client.faults = std::make_shared<FaultInjector>(cfg);
  // Keep the transfer spanning enough SYN epochs for losses to actually
  // exercise retransmission instead of finishing in one loopback burst.
  client.max_bandwidth_mbps = bandwidth_mbps;
  return client;
}

// --- byte-exact round trips ------------------------------------------------

TEST(FileTransfer, PipelinedRoundTripExactUnderFaults) {
  Pair p = make_pair_opts({}, faulted_client());
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);
  // Deliberately not a packet-size multiple: the final take_stream is a
  // partial-tail copy and the last chunk is short.
  const auto payload = make_payload((4 << 20) + 12345, 1);
  EXPECT_EQ(round_trip(p, "pipe_faults", payload), payload);
  p.client->close();
  p.server->close();
}

// --- offset / length edge cases --------------------------------------------

TEST(FileTransfer, OffsetPastEofSendsNothing) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.client, nullptr);
  const std::string src = temp_path("off_eof_src.bin");
  write_file(src, make_payload(4096, 5));
  EXPECT_EQ(p.client->sendfile(src, 8192, 1 << 20), 0u);
  EXPECT_EQ(p.client->sendfile(src, 4096, 1 << 20), 0u);  // exactly at EOF
  std::remove(src.c_str());
  p.client->close();
  p.server->close();
}

TEST(FileTransfer, LengthBeyondFileSendsOnlyAvailable) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.client, nullptr);
  const auto payload = make_payload((1 << 20) + 555, 6);
  const std::string src = temp_path("len_over_src.bin");
  const std::string dst = temp_path("len_over_dst.bin");
  write_file(src, payload);
  std::remove(dst.c_str());
  auto sent = std::async(std::launch::async, [&] {
    return p.client->sendfile(src, 0, std::uint64_t{1} << 40);
  });
  const std::uint64_t received = p.server->recvfile(dst, payload.size());
  EXPECT_EQ(sent.get(), payload.size());
  EXPECT_EQ(received, payload.size());
  EXPECT_EQ(read_file(dst), payload);
  std::remove(src.c_str());
  std::remove(dst.c_str());
  p.client->close();
  p.server->close();
}

TEST(FileTransfer, ZeroLengthCreatesEmptyDestination) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.client, nullptr);
  const std::string src = temp_path("zero_src.bin");
  const std::string dst = temp_path("zero_dst.bin");
  write_file(src, make_payload(4096, 7));
  write_file(dst, make_payload(100, 8));  // stale content to truncate
  EXPECT_EQ(p.client->sendfile(src, 0, 0), 0u);
  EXPECT_EQ(p.server->recvfile(dst, 0), 0u);
  EXPECT_EQ(p.server->last_error(), SocketError::kNone);
  EXPECT_EQ(read_file(dst).size(), 0u);  // created/emptied, legacy contract
  std::remove(src.c_str());
  std::remove(dst.c_str());
  p.client->close();
  p.server->close();
}

TEST(FileTransfer, MissingSourceReportsFileIoError) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.client, nullptr);
  EXPECT_EQ(p.client->sendfile(temp_path("no_such_file.bin"), 0, 1 << 20), 0u);
  EXPECT_EQ(p.client->last_error(), SocketError::kFileIo);
  p.client->close();
  p.server->close();
}

// --- reader-ring exhaustion backpressure -----------------------------------

// A two-chunk 128 KB ring feeding a 40 Mb/s wire: the disk side laps the
// network side within the first ring fill, so the reader spends the whole
// transfer blocked on recycled chunks.  Exactness shows the backpressure
// path never loses, reuses, or reorders a chunk.
TEST(FileTransfer, ReaderRingExhaustionBackpressuresExactly) {
  SocketOptions client;
  client.max_bandwidth_mbps = 40.0;
  client.file_chunk_bytes = 64 << 10;
  client.file_ring_chunks = 2;
  Pair p = make_pair_opts({}, client);
  ASSERT_NE(p.client, nullptr);
  const auto payload = make_payload((2 << 20) + 4321, 9);
  EXPECT_EQ(round_trip(p, "ring_exhaust", payload), payload);
  p.client->close();
  p.server->close();
}

// --- write-behind ordering under reorder faults ----------------------------

// Reordered arrival + a throttled disk writer: take_stream drains the
// reassembled stream while the sink queue stays near its cap, so writes
// land well behind the protocol.  The file must still be byte-exact — the
// write-behind queue preserves sequential offsets regardless of how the
// wire scrambled the packets.
TEST(FileTransfer, WriteBehindKeepsOrderUnderReorderFaults) {
  FaultConfig cfg;
  cfg.send.reorder_p = 0.15;
  cfg.send.reorder_hold = 5;
  cfg.seed = 1337;
  SocketOptions client;
  client.faults = std::make_shared<FaultInjector>(cfg);
  client.max_bandwidth_mbps = 200.0;
  SocketOptions server;
  server.file_disk_write_mbps = 120.0;  // slower than the wire: queue fills
  Pair p = make_pair_opts(server, client);
  ASSERT_NE(p.client, nullptr);
  const auto payload = make_payload((3 << 20) + 77, 10);
  EXPECT_EQ(round_trip(p, "write_behind", payload), payload);
  p.client->close();
  p.server->close();
}

// --- sendfile on a message-latched socket must not spin --------------------

// Regression: send() returns 0 on a message-latched socket, and the old
// sendfile loop retried that forever.  It must bail out promptly and
// report zero bytes delivered.
TEST(FileTransfer, SendfileOnMessageLatchedSocketBailsOut) {
  Pair p = make_pair_opts({}, {});
  ASSERT_NE(p.client, nullptr);
  const auto msg = make_payload(4096, 11);
  ASSERT_EQ(p.client->sendmsg(msg), msg.size());  // latches message mode
  const std::string src = temp_path("latched_src.bin");
  write_file(src, make_payload(1 << 20, 12));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(p.client->sendfile(src, 0, 1 << 20), 0u);
  // Far below the flush deadline — the old bug span here forever.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds{5});
  std::remove(src.c_str());
  p.client->close();
  p.server->close();
}

// --- recvfile error contract ------------------------------------------------

// No byte ever arrives: recvfile times out, reports kRecvTimeout, and the
// pre-existing destination file is untouched (the old path truncated it at
// open, before knowing whether the transfer would deliver anything).
TEST(FileTransfer, RecvTimeoutLeavesExistingFileIntact) {
  SocketOptions server;
  server.file_flush_timeout_s = 0.3;  // progress deadline, not 60 s
  Pair p = make_pair_opts(server, {});
  ASSERT_NE(p.server, nullptr);
  const std::string dst = temp_path("timeout_dst.bin");
  const auto precious = make_payload(8192, 13);
  write_file(dst, precious);
  const std::uint64_t got = p.server->recvfile(dst, 1 << 20);
  EXPECT_EQ(got, 0u);
  EXPECT_EQ(p.server->last_error(), SocketError::kRecvTimeout);
  EXPECT_EQ(read_file(dst), precious);  // not clobbered
  std::remove(dst.c_str());
  p.client->close();
  p.server->close();
}

// The peer delivers part of the file and then closes: recvfile returns the
// bytes that landed and reports kRecvTruncated — distinguishable from both
// a clean completion and a silent timeout.
TEST(FileTransfer, PeerCloseMidTransferReportsTruncation) {
  SocketOptions server;
  server.file_flush_timeout_s = 5.0;
  Pair p = make_pair_opts(server, {});
  ASSERT_NE(p.client, nullptr);
  const auto half = make_payload(1 << 20, 14);
  const std::string src = temp_path("trunc_src.bin");
  const std::string dst = temp_path("trunc_dst.bin");
  write_file(src, half);
  std::remove(dst.c_str());
  auto sender = std::async(std::launch::async, [&] {
    const auto n = p.client->sendfile(src, 0, half.size());
    p.client->close();  // graceful shutdown: only half of what was asked
    return n;
  });
  const std::uint64_t got = p.server->recvfile(dst, 2 << 20);
  EXPECT_EQ(sender.get(), half.size());
  EXPECT_EQ(got, half.size());
  EXPECT_EQ(p.server->last_error(), SocketError::kRecvTruncated);
  const auto landed = read_file(dst);
  ASSERT_EQ(landed.size(), half.size());  // preallocation trimmed back
  EXPECT_EQ(landed, half);
  std::remove(src.c_str());
  std::remove(dst.c_str());
  p.server->close();
}

// Unwritable destination surfaces kFileIo instead of silently dropping the
// payload (the lazy open fails on the first write-behind batch; the transfer
// stops instead of draining the peer into a black hole).
TEST(FileTransfer, UnwritableDestinationReportsFileIo) {
  SocketOptions server;
  server.file_flush_timeout_s = 5.0;
  Pair p = make_pair_opts(server, {});
  ASSERT_NE(p.client, nullptr);
  const auto payload = make_payload(256 << 10, 15);
  const std::string src = temp_path("nodir_src.bin");
  write_file(src, payload);
  auto sender = std::async(std::launch::async, [&] {
    return p.client->sendfile(src, 0, payload.size());
  });
  const std::string dst =
      ::testing::TempDir() + "udtr_ft_no_such_dir/x/y/dst.bin";
  p.server->recvfile(dst, payload.size());
  EXPECT_EQ(p.server->last_error(), SocketError::kFileIo);
  sender.wait();
  std::remove(src.c_str());
  p.client->close();
  p.server->close();
}

}  // namespace
}  // namespace udtr::udt
