// Loopback benchmark of the UDT library: four workloads driven through the
// public API from one process, end-to-end metrics from an untraced pass and
// per-module metrics from a traced pass.  README.md in this directory says
// why each workload exists and what each metric should move.
//
//   perfbench --workload <paced_1456|file_8960|lossy_1pct|msg_rpc>
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// Prints a metric table, then as the last line of stdout one JSON object
// with the keys correct, attempted, failed and metrics.  Exits 1 when any
// operation failed.  All traffic crosses IPv4 loopback, not a real link.
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "udt/fault.hpp"
#include "udt/multiplexer.hpp"
#include "udt/poller.hpp"
#include "udt/profiler.hpp"
#include "udt/socket.hpp"

namespace {

using namespace udtr::udt;
using perfbench::Failure;
using perfbench::Pattern;
using perfbench::Tally;
using perfbench::ratio;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBlock = std::size_t{1} << 20;   // stream send/recv unit
constexpr std::uint64_t kFileBytes = std::uint64_t{64} << 20;
constexpr std::size_t kRequestBytes = 256;
constexpr std::size_t kReplyBytes = 4096;
constexpr std::size_t kRpcHeader = 16;                 // u64 conn, u64 index
constexpr int kSetupRounds = 15;
constexpr double kWarmupS = 1.0;
constexpr auto kRpcTimeout = std::chrono::seconds{2};
constexpr auto kSampleEvery = std::chrono::milliseconds{50};
constexpr auto kSlice = std::chrono::milliseconds{500};

// --- workloads ---------------------------------------------------------------

enum class Kind { kStream, kFile, kRpc };

struct Workload {
  const char* name;
  Kind kind;
  int mss;
  double cap_mbps;  // 0 = uncapped
  double drop_p;    // sender outbound datagram loss
  int conns;
};

constexpr Workload kWorkloads[] = {
    {"paced_1456", Kind::kStream, 1456, 950.0, 0.0, 1},
    {"file_8960", Kind::kFile, 8960, 0.0, 0.0, 1},
    {"lossy_1pct", Kind::kStream, 1456, 0.0, 0.01, 1},
    {"msg_rpc", Kind::kRpc, 1456, 0.0, 0.0, 4},
};

// --- clocks ------------------------------------------------------------------

double seconds_of(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration duration_of(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double us_of(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double thread_cpu_s() { return rusage_cpu_s(RUSAGE_THREAD); }

// Seconds on a POSIX CPU-time clock, in ns resolution; 0 when unreadable.
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// CPU nanoseconds of every live thread of this process, by tid, from
// /proc/self/task/<tid>/schedstat (field 1: time on CPU).
std::map<int, std::uint64_t> thread_cpu_ns() {
  std::map<int, std::uint64_t> out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const std::string path =
        std::string{"/proc/self/task/"} + e->d_name + "/schedstat";
    if (FILE* f = std::fopen(path.c_str(), "r")) {
      unsigned long long ns = 0;
      if (std::fscanf(f, "%llu", &ns) == 1) out[std::atoi(e->d_name)] = ns;
      std::fclose(f);
    }
  }
  closedir(d);
  return out;
}

// --- host speed probe --------------------------------------------------------

// The host is shared, and its speed drifts by tens of percent over minutes
// (other guests on the same physical cores, steal time); process CPU
// seconds drift with it.  The probe times a fixed kernel shaped like the
// library's own work -- 64 KiB copies and one-MSS UDP datagrams over
// loopback -- every kProbeEvery, in thread CPU time, on a thread of its own
// that sends nothing through the library.  The CPU metrics are restated at
// kRefProbeUs, so a slower phase of the host does not read as a slower
// library.
constexpr auto kProbeEvery = std::chrono::milliseconds{20};
constexpr auto kProbeSpan = std::chrono::seconds{1};
// The kernel's median time on an idle host: 4-vCPU KVM guest, Intel Xeon
// (Sapphire Rapids) at 2.0 GHz.
constexpr double kRefProbeUs = 150.0;

class SpeedProbe {
 public:
  SpeedProbe() = default;
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;
  ~SpeedProbe() { stop(); }

  // Opens the probe's sockets and starts sampling; false when it could not.
  bool start() {
    tx_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    rx_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof a;
    if (tx_ < 0 || rx_ < 0 ||
        ::bind(rx_, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
        ::getsockname(rx_, reinterpret_cast<sockaddr*>(&a), &len) != 0 ||
        ::connect(tx_, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
      return false;
    }
    thread_ = std::thread([this] { loop(); });
    return pthread_getcpuclockid(thread_.native_handle(), &clock_) == 0;
  }

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    for (int* fd : {&tx_, &rx_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  // Median kernel time (us) of the samples taken in [t0, t1], the interval
  // first widened about its middle to at least kProbeSpan; 0 without
  // samples.
  [[nodiscard]] double median_us(Clock::time_point t0,
                                 Clock::time_point t1) const {
    if (t1 - t0 < kProbeSpan) {
      const auto pad = (kProbeSpan - (t1 - t0)) / 2;
      t0 -= pad;
      t1 += pad;
    }
    std::vector<double> v;
    {
      std::lock_guard lk{mu_};
      for (const auto& [t, us] : samples_) {
        if (t >= t0 && t <= t1) v.push_back(us);
      }
    }
    return perfbench::percentile(v, 0.5);
  }

  // CPU seconds the probe thread has used.
  [[nodiscard]] double cpu_s() const {
    return thread_.joinable() ? cpu_clock_s(clock_) : 0.0;
  }

 private:
  void loop() {
    std::vector<std::uint8_t> src(std::size_t{1} << 20, 0x5a);
    std::vector<std::uint8_t> dst(std::size_t{1} << 18);
    std::vector<std::uint8_t> dgram(1456, 0xa5), rbuf(2048);
    while (!stop_.load()) {
      std::this_thread::sleep_for(kProbeEvery);
      const double c0 = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
      for (std::size_t i = 0; i < 4; ++i) {
        std::memcpy(dst.data() + i * 65536, src.data() + i * 131072, 65536);
      }
      for (int i = 0; i < 16; ++i) {
        (void)::send(tx_, dgram.data(), dgram.size(), 0);
        (void)::recv(rx_, rbuf.data(), rbuf.size(), MSG_DONTWAIT);
      }
      const double us = (cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - c0) * 1e6;
      std::lock_guard lk{mu_};
      samples_.emplace_back(Clock::now(), us);
    }
  }

  int tx_ = -1, rx_ = -1;
  clockid_t clock_{};
  std::atomic<bool> stop_{false};
  std::thread thread_;
  mutable std::mutex mu_;
  std::vector<std::pair<Clock::time_point, double>> samples_;
};

double median(std::vector<double> v) { return perfbench::percentile(v, 0.5); }

// Process CPU seconds outside the speed probe.
double work_cpu_s(const SpeedProbe& probe) {
  return process_cpu_s() - probe.cpu_s();
}

// --- spans -------------------------------------------------------------------

// One span per public call the benchmark makes in a traced pass.  Spans of
// one operation (block, transfer, request) share `op`.
enum class SpanKind : std::uint8_t {
  kConnect, kSend, kRecv, kSendmsg, kRecvmsg, kPollWait, kSendfile,
  kRecvfile, kVerify, kCount,
};

constexpr const char* kSpanNames[] = {
    "connect", "send", "recv", "sendmsg", "recvmsg", "poll_wait",
    "sendfile", "recvfile", "verify",
};

struct Span {
  SpanKind kind;
  std::uint64_t op;
  Clock::time_point start;
  Clock::time_point end;
};

// Per-thread span buffer, kept in memory and written out after the run.
// Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  [[nodiscard]] bool on() const { return on_; }
  void add(SpanKind k, std::uint64_t op, Clock::time_point t0,
           Clock::time_point t1) {
    if (on_) spans_.push_back({k, op, t0, t1});
  }
  void merge(const SpanLog& o) {
    spans_.insert(spans_.end(), o.spans_.begin(), o.spans_.end());
  }
  [[nodiscard]] std::vector<double> durations_us(SpanKind k) const {
    std::vector<double> v;
    for (const auto& s : spans_) {
      if (s.kind == k) v.push_back(us_of(s.end - s.start));
    }
    return v;
  }
  void write_csv(const std::string& path, Clock::time_point epoch) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "kind,op,start_ns,end_ns\n");
    for (const auto& s : spans_) {
      std::fprintf(
          f, "%s,%llu,%lld,%lld\n", kSpanNames[static_cast<int>(s.kind)],
          static_cast<unsigned long long>(s.op),
          static_cast<long long>((s.start - epoch).count()),
          static_cast<long long>((s.end - epoch).count()));
    }
    std::fclose(f);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// Runs `work` as harness (not library) work: timed with RUSAGE_THREAD and
// logged as a verify span, in traced passes only.
template <class F>
auto harness_work(SpanLog& log, double& harness_cpu_s, std::uint64_t op,
                  F&& work) {
  if (!log.on()) return work();
  const double c0 = thread_cpu_s();
  const auto t0 = Clock::now();
  auto r = work();
  log.add(SpanKind::kVerify, op, t0, Clock::now());
  harness_cpu_s += thread_cpu_s() - c0;
  return r;
}

// --- library counters --------------------------------------------------------

constexpr std::size_t kUnits = static_cast<std::size_t>(ProfUnit::kCount);

struct ProfSnap {
  std::array<double, kUnits> ns{};
  std::array<double, kUnits> calls{};
  std::array<double, kUnits> bytes{};
};

constexpr std::size_t ix(ProfUnit u) { return static_cast<std::size_t>(u); }

ProfSnap diff(const ProfSnap& later, const ProfSnap& earlier) {
  ProfSnap d;
  for (std::size_t u = 0; u < kUnits; ++u) {
    d.ns[u] = later.ns[u] - earlier.ns[u];
    d.calls[u] = later.calls[u] - earlier.calls[u];
    d.bytes[u] = later.bytes[u] - earlier.bytes[u];
  }
  return d;
}

struct PerfSum {
  double sent = 0, recv = 0, retx = 0, acks_sent = 0, naks_sent = 0,
         delivered = 0, timeouts = 0;
};

// Library counters at one instant.  "snd" is the client side of every
// connection, "rcv" the server (accepted) side.
struct Snapshot {
  Clock::time_point t{};
  double cpu_s = 0;
  PerfSum snd, rcv;
  ProfSnap snd_prof, rcv_prof;
  double snd_syscalls = 0, rcv_syscalls = 0;
  double sweeps = 0, socket_sweeps = 0, unroutable = 0;
  double faults_dropped = 0;
  std::map<int, std::uint64_t> threads;
};

struct Conns {
  std::unique_ptr<Socket> listener;
  std::vector<std::unique_ptr<Socket>> clients;
  std::vector<std::unique_ptr<Socket>> servers;
  std::shared_ptr<FaultInjector> faults;

  void close_all() {
    for (auto& s : clients) s->close();
    for (auto& s : servers) s->close();
    if (listener) listener->close();
  }
};

void add_side(const std::vector<std::unique_ptr<Socket>>& socks, PerfSum& p,
              ProfSnap& prof) {
  for (const auto& s : socks) {
    const PerfStats st = s->perf();
    p.sent += static_cast<double>(st.data_packets_sent);
    p.recv += static_cast<double>(st.data_packets_recv);
    p.retx += static_cast<double>(st.retransmitted);
    p.acks_sent += static_cast<double>(st.acks_sent);
    p.naks_sent += static_cast<double>(st.naks_sent);
    p.delivered += static_cast<double>(st.bytes_delivered);
    p.timeouts += static_cast<double>(st.timeouts);
    for (std::size_t u = 0; u < kUnits; ++u) {
      const auto unit = static_cast<ProfUnit>(u);
      prof.ns[u] += static_cast<double>(s->profiler().nanos(unit));
      prof.calls[u] += static_cast<double>(s->profiler().calls(unit));
      prof.bytes[u] += static_cast<double>(s->profiler().bytes(unit));
    }
  }
}

Snapshot snapshot(const Conns& c, const SpeedProbe& probe) {
  Snapshot s;
  s.t = Clock::now();
  s.cpu_s = work_cpu_s(probe);
  add_side(c.clients, s.snd, s.snd_prof);
  add_side(c.servers, s.rcv, s.rcv_prof);
  const auto cm = c.clients.front()->multiplexer();
  const auto sm = c.servers.front()->multiplexer();
  if (cm && sm) {
    s.snd_syscalls = static_cast<double>(cm->send_syscalls());
    s.rcv_syscalls = static_cast<double>(sm->recv_syscalls());
    for (const auto& m : {cm, sm}) {
      s.sweeps += static_cast<double>(m->timer_sweep_calls());
      s.socket_sweeps += static_cast<double>(m->timer_socket_sweeps());
      s.unroutable += static_cast<double>(m->unroutable_datagrams());
    }
  }
  if (c.faults) {
    s.faults_dropped =
        static_cast<double>(c.faults->stats(FaultDir::kSend).dropped);
  }
  s.threads = thread_cpu_ns();
  return s;
}

// --- one pass ----------------------------------------------------------------

struct Pass {
  bool traced = false;
  Tally tally;
  SpanLog log{false};
  std::vector<double> setup_s;
  double harness_cpu_s = 0;
  // Measurement window.
  Snapshot before, after;
  double active_s = 0;  // time the measured work ran
  double cpu_s = 0;     // process CPU over active_s, probe excluded
  double probe_us = 0;  // speed probe median over the window
  std::uint64_t bytes = 0;  // verified payload delivered
  std::uint64_t ops = 0;
  std::vector<double> op_us;
  // The window cut into slices: kSlice of wall time for the stream and RPC
  // workloads, one transfer for file_8960.  The end-to-end metrics are
  // statistics over slices (see end_to_end), so a phase of outside load on
  // the host moves some slices, not the result.
  struct Slice {
    double s, cpu_s, bytes, ops;
    double probe_us;  // speed probe median around the slice
    double lat_us;    // median latency of the operations it completed; 0: none
  };
  std::vector<Slice> slices;
  // Traced extras.
  std::uint64_t recv_calls = 0, recv_bytes = 0;
  std::uint64_t poll_waits = 0, poll_events = 0;
  std::vector<double> send_period_us, window_pkts;
  std::vector<double> sendfile_s, recvfile_lag_s;
};

// Cuts a measurement window into kSlice-long slices; used by the thread that
// times the window.
class Slicer {
 public:
  explicit Slicer(const SpeedProbe& probe) : probe_(probe) {}
  void start(const Pass& p, Clock::time_point now, double bytes, double ops) {
    t_ = now;
    cpu_ = work_cpu_s(probe_);
    bytes_ = bytes;
    ops_ = ops;
    lat_ = p.op_us.size();
  }
  // Closes the current slice when it is kSlice old, or when `last` (then
  // dropping a remainder shorter than half a slice).
  void cut(Pass& p, Clock::time_point now, double bytes, double ops,
           bool last = false) {
    const auto age = now - t_;
    if (age < kSlice && !(last && age >= kSlice / 2)) return;
    const double cpu = work_cpu_s(probe_);
    std::vector<double> lat(p.op_us.begin() + static_cast<long>(lat_),
                            p.op_us.end());
    p.slices.push_back({seconds_of(age), cpu - cpu_, bytes - bytes_,
                        ops - ops_, probe_.median_us(t_, now), median(lat)});
    t_ = now;
    cpu_ = cpu;
    bytes_ = bytes;
    ops_ = ops;
    lat_ = p.op_us.size();
  }

 private:
  const SpeedProbe& probe_;
  Clock::time_point t_{};
  double cpu_ = 0, bytes_ = 0, ops_ = 0;
  std::size_t lat_ = 0;  // first op_us sample of the current slice
};

struct Env {
  const Workload& w;
  std::uint64_t seed;
  double seconds;
  std::string workdir;
  const Pattern& pat;
  const SpeedProbe& probe;
};

// Start and end of the measurement window: kWarmupS from now, then
// e.seconds long.
std::pair<Clock::time_point, Clock::time_point> window(const Env& e) {
  const auto start = Clock::now() + duration_of(kWarmupS);
  return {start, start + duration_of(e.seconds)};
}

SocketOptions base_options(const Workload& w, bool traced) {
  SocketOptions o;
  o.mss_bytes = w.mss;
  o.max_bandwidth_mbps = w.cap_mbps;
  o.enable_profiler = traced;
  return o;
}

std::string src_path(const Env& e) { return e.workdir + "/file_src.bin"; }
std::string dst_path(const Env& e) { return e.workdir + "/file_dst.bin"; }

bool write_source(const Env& e) {
  const std::string path = src_path(e);
  ::unlink(path.c_str());
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  bool ok = true;
  for (std::uint64_t off = 0; ok && off < kFileBytes; off += kBlock) {
    const auto span = e.pat.at(off, kBlock);
    ok = ::write(fd, span.data(), span.size()) ==
         static_cast<ssize_t>(span.size());
  }
  return ::close(fd) == 0 && ok;
}

// Opens a listener and `n` connections to it; one accept thread runs while
// this thread connects.  Returns nullopt when any step failed.
std::optional<Conns> open_conns(const Env& e, Pass& p,
                                std::shared_ptr<FaultInjector> faults) {
  Conns c;
  c.faults = std::move(faults);
  const SocketOptions srv = base_options(e.w, p.traced);
  SocketOptions cli = srv;
  cli.faults = c.faults;
  c.listener = Socket::listen(0, srv);
  if (!c.listener) return std::nullopt;
  std::thread acceptor([&] {
    for (int i = 0; i < e.w.conns; ++i) {
      auto s = c.listener->accept(std::chrono::seconds{10});
      if (!s) break;
      c.servers.push_back(std::move(s));
    }
  });
  for (int i = 0; i < e.w.conns; ++i) {
    const auto t0 = Clock::now();
    auto s = Socket::connect("127.0.0.1", c.listener->local_port(), cli);
    p.log.add(SpanKind::kConnect, static_cast<std::uint64_t>(i), t0,
              Clock::now());
    if (!s) break;
    c.clients.push_back(std::move(s));
  }
  acceptor.join();
  const bool ok = static_cast<int>(c.clients.size()) == e.w.conns &&
                  static_cast<int>(c.servers.size()) == e.w.conns;
  if (!ok) {
    c.close_all();
    return std::nullopt;
  }
  return c;
}

// kSetupRounds times: (file_8960) write the source file, open the listener
// and every connection.  Each round is timed; all but the last are torn
// down.
std::optional<Conns> setup(const Env& e, Pass& p) {
  std::shared_ptr<FaultInjector> faults;
  if (e.w.drop_p > 0.0) {
    FaultConfig fc;
    fc.send.drop_p = e.w.drop_p;
    fc.seed = e.seed ^ 0x5eedfa17ULL;
    faults = std::make_shared<FaultInjector>(fc);
  }
  std::optional<Conns> conns;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (conns) conns->close_all();
    conns.reset();
    const auto t0 = Clock::now();
    if (e.w.kind == Kind::kFile &&
        !p.tally.check(write_source(e), Failure::kSetup)) {
      return std::nullopt;
    }
    conns = open_conns(e, p, faults);
    p.setup_s.push_back(seconds_of(Clock::now() - t0));
    if (!p.tally.check(conns.has_value(), Failure::kSetup)) {
      return std::nullopt;
    }
  }
  return conns;
}

// --- stream workloads (paced_1456, lossy_1pct) -------------------------------

// One client sends 1 MiB blocks of the pattern; the receiving thread
// verifies every span, times the window and takes the counter snapshots.
// An operation is one 1 MiB block; its latency is the time the receiver
// waited for it since the previous block completed.
void run_stream(const Env& e, Pass& p, Conns& c) {
  Socket& client = *c.clients.front();
  Socket& server = *c.servers.front();
  std::atomic<bool> stop{false};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> measuring{false};
  const auto win = window(e);
  const Clock::time_point start = win.first, end = win.second;

  Tally rx_tally;
  SpanLog rx_log{p.traced};
  double rx_harness_cpu = 0;
  std::thread receiver([&] {
    std::vector<std::uint8_t> buf(kBlock);
    std::uint64_t off = 0, next_block = kBlock, bytes0 = 0;
    Clock::time_point last_block = Clock::now(), next_sample = start;
    Slicer slicer{e.probe};
    const auto blocks = [&] {
      return static_cast<double>(off) / static_cast<double>(kBlock);
    };
    int state = 0;  // 0 warm-up, 1 measuring, 2 done
    while (!(state == 2 && sender_done.load())) {
      const auto t0 = Clock::now();
      const std::size_t n = server.recv(buf, std::chrono::milliseconds{100});
      const auto t1 = Clock::now();
      if (state == 1) {
        rx_log.add(SpanKind::kRecv, off / kBlock, t0, t1);
        ++p.recv_calls;
        p.recv_bytes += n;
      }
      if (n == 0 && server.broken()) {
        rx_tally.fail(Failure::kBroken);
        stop = true;
        break;
      }
      if (n > 0) {
        const bool ok = harness_work(rx_log, rx_harness_cpu, off / kBlock, [&] {
          return e.pat.matches(off, {buf.data(), n});
        });
        rx_tally.check(ok, Failure::kMismatch);
        off += n;
        for (; off >= next_block; next_block += kBlock) {
          if (state == 1) {
            p.op_us.push_back(us_of(t1 - last_block));
            ++p.ops;
          }
          last_block = t1;
        }
      }
      if (state == 0 && t1 >= start) {
        p.before = snapshot(c, e.probe);
        slicer.start(p, t1, static_cast<double>(off), blocks());
        bytes0 = off;
        state = 1;
        measuring = true;
      } else if (state == 1 && t1 >= end) {
        slicer.cut(p, t1, static_cast<double>(off), blocks(), true);
        p.after = snapshot(c, e.probe);
        p.bytes = off - bytes0;
        state = 2;
        measuring = false;
        stop = true;
      } else if (state == 1) {
        slicer.cut(p, t1, static_cast<double>(off), blocks());
      }
      if (state == 1 && p.traced && t1 >= next_sample) {
        const PerfStats st = client.perf();
        p.send_period_us.push_back(st.send_period_us);
        p.window_pkts.push_back(st.window_pkts);
        next_sample = t1 + kSampleEvery;
      }
    }
  });

  for (std::uint64_t i = 0; !stop.load(); ++i) {
    const auto data = e.pat.at(i * kBlock, kBlock);
    const bool in_window = measuring.load();
    const auto t0 = Clock::now();
    const std::size_t n = client.send(data);
    if (in_window) p.log.add(SpanKind::kSend, i, t0, Clock::now());
    if (!p.tally.check(n == data.size(), Failure::kShortOp)) break;
  }
  sender_done = true;
  receiver.join();
  if (p.after.t < p.before.t) p.after = snapshot(c, e.probe);  // ended early
  p.tally.merge(rx_tally);
  p.log.merge(rx_log);
  p.harness_cpu_s += rx_harness_cpu;
  p.active_s = seconds_of(p.after.t - p.before.t);
  p.cpu_s = p.after.cpu_s - p.before.cpu_s;
}

// --- file_8960 ---------------------------------------------------------------

bool verify_file(const Env& e) {
  const int fd = ::open(dst_path(e).c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0 &&
            static_cast<std::uint64_t>(st.st_size) == kFileBytes;
  std::vector<std::uint8_t> buf(kBlock);
  for (std::uint64_t off = 0; ok && off < kFileBytes; off += kBlock) {
    const ssize_t n = ::pread(fd, buf.data(), kBlock, static_cast<off_t>(off));
    ok = n == static_cast<ssize_t>(kBlock) && e.pat.matches(off, buf);
  }
  ::close(fd);
  return ok;
}

// Repeated sendfile -> recvfile of the same source file.  An operation is
// one whole transfer, timed from its start until both calls returned; the
// destination is removed before each transfer and read back after it.
void run_file(const Env& e, Pass& p, Conns& c) {
  Socket& client = *c.clients.front();
  Socket& server = *c.servers.front();
  const std::string src = src_path(e), dst = dst_path(e);
  const auto transfer = [&](std::uint64_t op, bool measured) {
    ::unlink(dst.c_str());
    const double cpu0 = work_cpu_s(e.probe);
    const auto t0 = Clock::now();
    std::uint64_t got = 0;
    Clock::time_point t_recv{};
    std::thread receiver([&] {
      got = server.recvfile(dst, kFileBytes);
      t_recv = Clock::now();
    });
    const std::uint64_t sent = client.sendfile(src, 0, kFileBytes);
    const auto t_send = Clock::now();
    receiver.join();
    const double cpu1 = work_cpu_s(e.probe);
    p.tally.check(sent == kFileBytes, Failure::kShortOp);
    p.tally.check(got == kFileBytes, Failure::kShortOp);
    const bool ok = harness_work(p.log, p.harness_cpu_s, op,
                                 [&] { return verify_file(e); });
    p.tally.check(ok, Failure::kMismatch);
    if (!measured) return;
    p.log.add(SpanKind::kSendfile, op, t0, t_send);
    p.log.add(SpanKind::kRecvfile, op, t0, t_recv);
    const auto t_end = std::max(t_send, t_recv);
    p.op_us.push_back(us_of(t_end - t0));
    p.active_s += seconds_of(t_end - t0);
    p.cpu_s += cpu1 - cpu0;
    p.bytes += got;
    ++p.ops;
    p.slices.push_back({seconds_of(t_end - t0), cpu1 - cpu0,
                        static_cast<double>(got), 1.0,
                        e.probe.median_us(t0, t_end), us_of(t_end - t0)});
    if (p.traced) {
      p.sendfile_s.push_back(seconds_of(t_send - t0));
      p.recvfile_lag_s.push_back(seconds_of(t_recv - t_send));
      const PerfStats st = client.perf();
      p.send_period_us.push_back(st.send_period_us);
      p.window_pkts.push_back(st.window_pkts);
    }
  };
  transfer(0, false);  // warm-up: page cache, pipeline threads, CC state
  p.before = snapshot(c, e.probe);
  const auto t_start = Clock::now();
  for (std::uint64_t op = 1;
       seconds_of(Clock::now() - t_start) < e.seconds && p.tally.failed() == 0;
       ++op) {
    transfer(op, true);
  }
  p.after = snapshot(c, e.probe);
  ::unlink(dst.c_str());
}

// --- msg_rpc -----------------------------------------------------------------

std::uint64_t rpc_offset(std::uint64_t seed, std::uint64_t conn,
                         std::uint64_t index, std::uint64_t salt) {
  std::uint64_t s = seed ^ (conn << 56) ^ (index * 4) ^ salt;
  return Pattern::splitmix64(s) % Pattern::kPeriod;
}

void put_header(std::uint8_t* dst, std::uint64_t conn, std::uint64_t index) {
  std::memcpy(dst, &conn, 8);
  std::memcpy(dst + 8, &index, 8);
}

std::pair<std::uint64_t, std::uint64_t> get_header(const std::uint8_t* src) {
  std::uint64_t conn = 0, index = 0;
  std::memcpy(&conn, src, 8);
  std::memcpy(&index, src + 8, 8);
  return {conn, index};
}

// Fills `msg` with the header and the pattern body for (conn, index).
void fill_msg(const Env& e, std::span<std::uint8_t> msg, std::uint64_t conn,
              std::uint64_t index, std::uint64_t salt) {
  put_header(msg.data(), conn, index);
  const auto body =
      e.pat.at(rpc_offset(e.seed, conn, index, salt), msg.size() - kRpcHeader);
  std::memcpy(msg.data() + kRpcHeader, body.data(), body.size());
}

bool msg_matches(const Env& e, std::span<const std::uint8_t> msg,
                 std::size_t want, std::uint64_t conn, std::uint64_t index,
                 std::uint64_t salt) {
  if (msg.size() != want) return false;
  if (get_header(msg.data()) != std::make_pair(conn, index)) return false;
  return e.pat.matches(rpc_offset(e.seed, conn, index, salt),
                       msg.subspan(kRpcHeader));
}

constexpr std::uint64_t kReqSalt = 0x7265717565737400ULL;
constexpr std::uint64_t kRepSalt = 0x7265706c79000000ULL;

// Closed loop, one outstanding request per connection: the client thread
// drives every connection through one Poller, the echo thread serves them
// through another.  An operation is one request/reply round trip.
void run_rpc(const Env& e, Pass& p, Conns& c) {
  std::atomic<bool> stop{false};
  Tally echo_tally;
  SpanLog echo_log{p.traced};
  std::uint64_t echo_waits = 0, echo_events = 0;
  double echo_harness_cpu = 0;
  std::atomic<bool> measuring{false};

  std::thread echo([&] {
    Poller poller;
    for (auto& s : c.servers) poller.add(s.get(), kPollIn);
    std::vector<PollEvent> ev(c.servers.size());
    std::vector<std::uint8_t> buf(2 * kReplyBytes), reply(kReplyBytes);
    std::uint64_t op = 0;
    while (!stop.load()) {
      const bool in_window = measuring.load();
      const auto t0 = Clock::now();
      const std::size_t k = poller.wait_many(ev, std::chrono::milliseconds{20});
      if (in_window && p.traced) {
        echo_log.add(SpanKind::kPollWait, op, t0, Clock::now());
        ++echo_waits;
        echo_events += k;
      }
      for (std::size_t i = 0; i < k; ++i) {
        Socket& s = *ev[i].sock;
        if (s.broken()) {
          echo_tally.fail(Failure::kBroken);
          stop = true;
          break;
        }
        const auto r0 = Clock::now();
        const std::size_t n = s.recvmsg(buf, std::chrono::milliseconds{0});
        if (in_window) echo_log.add(SpanKind::kRecvmsg, op, r0, Clock::now());
        if (n < kRpcHeader) continue;  // spurious wakeup
        const auto hdr = get_header(buf.data());
        const std::uint64_t conn = hdr.first, index = hdr.second;
        const bool ok = harness_work(echo_log, echo_harness_cpu, op, [&] {
          const bool good = msg_matches(e, {buf.data(), n}, kRequestBytes,
                                        conn, index, kReqSalt);
          fill_msg(e, reply, conn, index, kRepSalt);
          return good;
        });
        echo_tally.check(ok, Failure::kMismatch);
        const auto s0 = Clock::now();
        const std::size_t sent = s.sendmsg(reply);
        if (in_window) echo_log.add(SpanKind::kSendmsg, op, s0, Clock::now());
        echo_tally.check(sent == reply.size(), Failure::kShortOp);
        ++op;
      }
    }
  });

  const std::size_t nconn = c.clients.size();
  Poller poller;
  std::map<Socket*, std::size_t> index_of;
  for (std::size_t i = 0; i < nconn; ++i) {
    poller.add(c.clients[i].get(), kPollIn);
    index_of[c.clients[i].get()] = i;
  }
  std::vector<std::uint64_t> next(nconn, 0);
  std::vector<Clock::time_point> sent_at(nconn);
  std::vector<bool> live(nconn, true);
  std::vector<std::uint8_t> req(kRequestBytes), buf(2 * kReplyBytes);
  std::uint64_t op = 0;
  const auto send_request = [&](std::size_t i) {
    fill_msg(e, req, i, next[i], kReqSalt);
    sent_at[i] = Clock::now();
    const std::size_t n = c.clients[i]->sendmsg(req);
    if (measuring.load()) {
      p.log.add(SpanKind::kSendmsg, op, sent_at[i], Clock::now());
    }
    live[i] = p.tally.check(n == req.size(), Failure::kShortOp);
  };
  for (std::size_t i = 0; i < nconn; ++i) send_request(i);

  const auto win = window(e);
  const Clock::time_point start = win.first, end = win.second;
  std::vector<PollEvent> ev(nconn);
  auto next_sample = start;
  Slicer slicer{e.probe};
  int state = 0;  // 0 warm-up, 1 measuring, 2 done
  while (state != 2 && !stop.load()) {
    const auto t0 = Clock::now();
    const std::size_t k = poller.wait_many(ev, std::chrono::milliseconds{20});
    const auto t1 = Clock::now();
    if (state == 1 && p.traced) {
      p.log.add(SpanKind::kPollWait, op, t0, t1);
      ++p.poll_waits;
      p.poll_events += k;
    }
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = index_of.at(ev[j].sock);
      Socket& s = *c.clients[i];
      if (s.broken()) {
        if (live[i]) p.tally.fail(Failure::kBroken);
        live[i] = false;
        continue;
      }
      const auto r0 = Clock::now();
      const std::size_t n = s.recvmsg(buf, std::chrono::milliseconds{0});
      const auto r1 = Clock::now();
      if (state == 1) p.log.add(SpanKind::kRecvmsg, op, r0, r1);
      if (n == 0 || !live[i]) continue;
      const bool ok = harness_work(p.log, p.harness_cpu_s, op, [&] {
        return msg_matches(e, {buf.data(), n}, kReplyBytes, i, next[i],
                           kRepSalt);
      });
      p.tally.check(ok, Failure::kMismatch);
      if (state == 1) {
        p.op_us.push_back(us_of(r1 - sent_at[i]));
        ++p.ops;
        p.bytes += kRequestBytes + kReplyBytes;
      }
      ++next[i];
      ++op;
      send_request(i);
    }
    const auto now = Clock::now();
    for (std::size_t i = 0; i < nconn; ++i) {
      if (live[i] && now - sent_at[i] > kRpcTimeout) {
        p.tally.fail(Failure::kTimeout);
        live[i] = false;
      }
    }
    if (std::none_of(live.begin(), live.end(), [](bool l) { return l; })) {
      break;
    }
    const auto bytes = static_cast<double>(p.bytes);
    const auto ops = static_cast<double>(p.ops);
    if (state == 0 && now >= start) {
      p.before = snapshot(c, e.probe);
      slicer.start(p, now, bytes, ops);
      state = 1;
      measuring = true;
    } else if (state == 1 && now >= end) {
      slicer.cut(p, now, bytes, ops, true);
      p.after = snapshot(c, e.probe);
      state = 2;
    } else if (state == 1) {
      slicer.cut(p, now, bytes, ops);
    }
    if (state == 1 && p.traced && now >= next_sample) {
      const PerfStats st = c.clients.front()->perf();
      p.send_period_us.push_back(st.send_period_us);
      p.window_pkts.push_back(st.window_pkts);
      next_sample = now + kSampleEvery;
    }
  }
  stop = true;
  echo.join();
  if (state != 2) p.after = snapshot(c, e.probe);
  p.tally.merge(echo_tally);
  p.log.merge(echo_log);
  p.poll_waits += echo_waits;
  p.poll_events += echo_events;
  p.harness_cpu_s += echo_harness_cpu;
  p.active_s = seconds_of(p.after.t - p.before.t);
  p.cpu_s = p.after.cpu_s - p.before.cpu_s;
}

// Sets up, runs and tears down one pass.
Pass run_pass(const Env& e, bool traced) {
  Pass p;
  p.traced = traced;
  p.log = SpanLog{traced};
  auto conns = setup(e, p);
  if (!conns) return p;
  switch (e.w.kind) {
    case Kind::kStream: run_stream(e, p, *conns); break;
    case Kind::kFile: run_file(e, p, *conns); break;
    case Kind::kRpc: run_rpc(e, p, *conns); break;
  }
  p.probe_us = e.probe.median_us(p.before.t, p.after.t);
  conns->close_all();
  if (e.w.kind == Kind::kFile) ::unlink(src_path(e).c_str());
  return p;
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// CPU seconds restated at the reference host speed.
double ref_cpu_s(double cpu_s, double probe_us) {
  return perfbench::at_reference_speed(cpu_s, probe_us, kRefProbeUs);
}

double cpu_per_op_metric(const Env& e, const Pass& p) {
  // The CPU figure trace.overhead_pct compares: per RPC on msg_rpc, per GB
  // on the byte-moving workloads.
  const double cpu = ref_cpu_s(p.cpu_s, p.probe_us);
  return e.w.kind == Kind::kRpc
             ? ratio(cpu * 1e6, static_cast<double>(p.ops))
             : perfbench::cpu_s_per_gb(cpu, static_cast<double>(p.bytes));
}

// `f(slice)` over the pass's slices, skipping slices where `use` is false.
template <class F, class U>
std::vector<double> over_slices(const Pass& p, F&& f, U&& use) {
  std::vector<double> v;
  for (const auto& s : p.slices) {
    if (use(s)) v.push_back(f(s));
  }
  return v;
}

// The end-to-end metrics as statistics over slices.  Outside load on the
// shared host delays the library's wakeups, which only ever lowers a
// slice's goodput and raises its latency; the speed probe cannot undo
// that, so throughput is the upper decile over slices and latency the
// lower decile of the slices' medians: what the library sustains while the
// host lets it run.  A change to the library moves every slice, so it
// moves these too.  CPU is restated at the probe's reference speed per
// slice, which removes the host's drift, and is the interquartile mean.
std::vector<Metric> end_to_end(const Pass& p) {
  using S = Pass::Slice;
  const auto all = [](const S&) { return true; };
  auto goodput = over_slices(
      p, [](const S& s) { return perfbench::mbps(s.bytes, s.s); }, all);
  auto cpu_per_gb = over_slices(
      p,
      [](const S& s) {
        return perfbench::cpu_s_per_gb(ref_cpu_s(s.cpu_s, s.probe_us),
                                       s.bytes);
      },
      all);
  auto rate = over_slices(p, [](const S& s) { return ratio(s.ops, s.s); }, all);
  auto lat = over_slices(
      p, [](const S& s) { return s.lat_us; },
      [](const S& s) { return s.lat_us > 0; });
  auto cpu_per_op = over_slices(
      p,
      [](const S& s) {
        return ratio(ref_cpu_s(s.cpu_s, s.probe_us) * 1e6, s.ops);
      },
      all);
  return {
      {"goodput_mbps", perfbench::percentile(goodput, 0.9), "Mb/s"},
      {"cpu_s_per_gb", perfbench::interquartile_mean(cpu_per_gb), "s/GB"},
      {"rpc_per_s", perfbench::percentile(rate, 0.9), "1/s"},
      {"rpc_p50_us", perfbench::percentile(lat, 0.1), "us"},
      {"cpu_us_per_rpc", perfbench::interquartile_mean(cpu_per_op), "us"},
      {"setup_s", median(p.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Env& e, const Pass& base, const Pass& p) {
  const Snapshot& a = p.before;
  const Snapshot& b = p.after;
  const ProfSnap snd = diff(b.snd_prof, a.snd_prof);
  const ProfSnap rcv = diff(b.rcv_prof, a.rcv_prof);
  const auto both_ns = [&](ProfUnit u) {
    return snd.ns[ix(u)] + rcv.ns[ix(u)];
  };
  const auto both_calls = [&](ProfUnit u) {
    return snd.calls[ix(u)] + rcv.calls[ix(u)];
  };
  // Data packets put on the wire by the client side (first transmissions
  // plus retransmissions) and data packets arriving at the server side.
  const double sent = b.snd.sent - a.snd.sent;
  const double retx = b.snd.retx - a.snd.retx;
  const double snd_pkts = sent + retx;
  const double rcv_pkts = b.rcv.recv - a.rcv.recv;
  const auto per_snd = [&](double x) { return ratio(x, snd_pkts); };
  const auto per_rcv = [&](double x) { return ratio(x, rcv_pkts); };
  const double wall = seconds_of(b.t - a.t);
  const double cpu = b.cpu_s - a.cpu_s;
  const auto p50 = [&](SpanKind k) { return median(p.log.durations_us(k)); };

  double busiest = 0;
  for (const auto& [tid, ns] : b.threads) {
    const auto it = a.threads.find(tid);
    const double d = static_cast<double>(
        ns - (it == a.threads.end() ? 0 : std::min(it->second, ns)));
    busiest = std::max(busiest, ratio(d * 1e-9, wall));
  }
  double prof_ns = 0;
  for (std::size_t u = 0; u < kUnits; ++u) {
    prof_ns += both_ns(static_cast<ProfUnit>(u));
  }
  std::vector<double> base_lat = base.op_us;
  constexpr auto kApp = ProfUnit::kAppInteraction;

  return {
      {"socket.send_us_p50", p50(SpanKind::kSend), "us"},
      {"socket.recv_us_p50", p50(SpanKind::kRecv), "us"},
      {"socket.recv_bytes_per_call",
       ratio(static_cast<double>(p.recv_bytes),
             static_cast<double>(p.recv_calls)),
       "B"},
      {"socket.sendmsg_us_p50", p50(SpanKind::kSendmsg), "us"},
      {"socket.recvmsg_us_p50", p50(SpanKind::kRecvmsg), "us"},
      {"socket.connect_us_p50", p50(SpanKind::kConnect), "us"},
      {"buffers.snd_app_ns_per_pkt", per_snd(snd.ns[ix(kApp)]), "ns"},
      {"buffers.rcv_app_ns_per_pkt", per_rcv(rcv.ns[ix(kApp)]), "ns"},
      {"buffers.snd_copy_bytes_per_pkt", per_snd(snd.bytes[ix(kApp)]), "B"},
      {"buffers.rcv_copy_bytes_per_pkt", per_rcv(rcv.bytes[ix(kApp)]), "B"},
      {"packet.pack_ns_per_pkt", per_snd(snd.ns[ix(ProfUnit::kPacking)]), "ns"},
      {"packet.unpack_ns_per_pkt", per_rcv(rcv.ns[ix(ProfUnit::kUnpacking)]),
       "ns"},
      {"channel.udpio_ns_per_pkt_snd", per_snd(snd.ns[ix(ProfUnit::kUdpIo)]),
       "ns"},
      {"channel.udpio_ns_per_pkt_rcv", per_rcv(rcv.ns[ix(ProfUnit::kUdpIo)]),
       "ns"},
      {"channel.syscalls_per_pkt_snd", per_snd(b.snd_syscalls - a.snd_syscalls),
       "count"},
      {"channel.syscalls_per_pkt_rcv", per_rcv(b.rcv_syscalls - a.rcv_syscalls),
       "count"},
      {"pacing.wait_ns_per_pkt", per_snd(snd.ns[ix(ProfUnit::kTiming)]), "ns"},
      {"pacing.cap_ratio",
       ratio(perfbench::mbps(static_cast<double>(p.bytes), p.active_s),
             e.w.cap_mbps),
       "ratio"},
      {"congestion.rate_measure_ns_per_pkt",
       per_rcv(both_ns(ProfUnit::kRateMeasure)), "ns"},
      {"congestion.send_period_us", median(p.send_period_us), "us"},
      {"congestion.window_pkts", median(p.window_pkts), "count"},
      {"loss_list.ns_per_event",
       ratio(both_ns(ProfUnit::kLossProcessing),
             both_calls(ProfUnit::kLossProcessing)),
       "ns"},
      {"ctrl.ns_per_pkt_snd", per_snd(snd.ns[ix(ProfUnit::kCtrlProcessing)]),
       "ns"},
      {"ctrl.ns_per_pkt_rcv", per_rcv(rcv.ns[ix(ProfUnit::kCtrlProcessing)]),
       "ns"},
      {"ctrl.naks_per_loss",
       ratio(b.rcv.naks_sent - a.rcv.naks_sent,
             b.faults_dropped - a.faults_dropped),
       "ratio"},
      {"ctrl.acks_per_s", ratio(b.rcv.acks_sent - a.rcv.acks_sent, p.active_s),
       "1/s"},
      {"reliability.retx_ratio", per_snd(retx), "ratio"},
      // Arrivals beyond the first transmissions: retransmissions of data
      // that had already arrived.
      {"reliability.dup_ratio", per_rcv(rcv_pkts - sent), "ratio"},
      {"reliability.exp_timeouts", b.snd.timeouts - a.snd.timeouts, "count"},
      {"timer_wheel.sweep_ns_per_call",
       ratio(both_ns(ProfUnit::kTimerSweep), both_calls(ProfUnit::kTimerSweep)),
       "ns"},
      {"timer_wheel.sweeps_per_s", ratio(b.sweeps - a.sweeps, wall), "1/s"},
      {"timer_wheel.socket_sweeps_per_s",
       ratio(b.socket_sweeps - a.socket_sweeps, wall), "1/s"},
      {"multiplexer.unroutable", b.unroutable - a.unroutable, "count"},
      {"poller.wait_us_p50", p50(SpanKind::kPollWait), "us"},
      {"poller.events_per_wait",
       ratio(static_cast<double>(p.poll_events),
             static_cast<double>(p.poll_waits)),
       "count"},
      {"file_pipeline.sendfile_s", median(p.sendfile_s), "s"},
      {"file_pipeline.recvfile_lag_s", median(p.recvfile_lag_s), "s"},
      {"harness.cpu_share", ratio(p.harness_cpu_s, cpu), "ratio"},
      {"proc.busiest_thread_util", busiest, "ratio"},
      {"trace.coverage", ratio(prof_ns * 1e-9, cpu - p.harness_cpu_s), "ratio"},
      {"trace.overhead_pct",
       perfbench::pct_change(cpu_per_op_metric(e, p),
                             cpu_per_op_metric(e, base)),
       "%"},
      // The untraced pass's latency tail and the sample count behind it.
      {"rpc.p99_us", perfbench::tail_value(base_lat), "us"},
      {"rpc.samples", static_cast<double>(base_lat.size()), "count"},
      {"rpc.tail_q", perfbench::tail_quantile(base_lat.size()), "ratio"},
      // The host's speed over the traced window, as the CPU metrics saw it.
      {"host.probe_us", p.probe_us, "us"},
  };
}

// --- output ------------------------------------------------------------------

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              t.correct() ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--workdir") workdir = v;
    else return usage();
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
      workdir.empty()) {
    return usage();
  }

  const Pattern pat{seed};
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name, static_cast<unsigned long long>(seed), seconds, trace);
  SpeedProbe probe;
  Tally tally;
  tally.check(probe.start(), Failure::kSetup);
  Env env{*w, seed, trace == 1 ? seconds / 2 : seconds, workdir, pat, probe};
  const Pass base = run_pass(env, false);
  tally.merge(base.tally);
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = end_to_end(base);
  } else {
    const auto epoch = Clock::now();
    const Pass traced = run_pass(env, true);
    tally.merge(traced.tally);
    metrics = per_layer(env, base, traced);
    traced.log.write_csv(workdir + "/spans-" + w->name + ".csv", epoch);
  }
  for (std::size_t f = 0; f < static_cast<std::size_t>(Failure::kCount); ++f) {
    if (tally.by_kind[f] > 0) {
      std::fprintf(stderr, "perfbench: %llu %s failure(s)\n",
                   static_cast<unsigned long long>(tally.by_kind[f]),
                   perfbench::failure_name(static_cast<Failure>(f)));
    }
  }
  print_result(tally, metrics);
  std::fflush(stdout);
  return tally.correct() ? 0 : 1;
}
