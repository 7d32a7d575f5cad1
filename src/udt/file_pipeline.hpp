// Pipelined zero-copy disk datapath for sendfile/recvfile (§4.7, Table 2).
//
// The paper's deployment result is disk-to-disk transfer at "nearly the disk
// I/O speed"; getting there requires the disk and the wire to overlap, and
// the payload bytes to move without staging copies:
//
//   FileSource (sender): a reader thread pread()s into a ring of 64
//   KB-aligned chunks sized in MSS multiples.  The
//   socket borrows each filled chunk straight into SndBuffer
//   (add_borrowed), so the gather/GSO wire path reads directly from the
//   file-read buffers; a chunk returns to the ring when every packet cut
//   from it is acknowledged and unpinned (the PR-3 pin/unpin discipline).
//   The ring running dry is backpressure on the disk reader, not an error.
//
//   FileSink (receiver): a write-behind thread drains payloads the socket
//   took from RcvBuffer *by reference* (RcvBuffer::Taken — moved slab
//   references, not copies) and writes them with gathered pwritev() calls
//   at sequential offsets.  The destination file is opened lazily on the first
//   payload — a transfer that dies before any byte arrives never touches an
//   existing file — then ftruncate-preallocated to the expected length and
//   trimmed back if the transfer ends short.  A bounded queue makes a slow
//   disk push back on the reassembly window (flow control) instead of
//   growing memory.
//
// Both stages take only their own leaf mutex; socket code may call into
// them with state_mu_ held (recycle) or not (next/enqueue — the blocking
// calls).  Neither stage ever calls back into the socket.
//
// DiskThrottle paces a stage to an injected disk rate so benches/tests can
// emulate the Table-2 disk bottleneck on a machine whose real disks (or
// page cache) are far faster.
#pragma once

#include <sys/uio.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "udt/buffers.hpp"

namespace udtr::udt {

// Paces a pipeline stage to `mbps` megabits per second of payload (0 = off).
class DiskThrottle {
 public:
  explicit DiskThrottle(double mbps)
      : bytes_per_s_(mbps > 0.0 ? mbps * 1e6 / 8.0 : 0.0) {}

  // Accounts `bytes` and sleeps just long enough to keep the cumulative
  // rate at or below the cap.
  void consume(std::size_t bytes) {
    if (bytes_per_s_ <= 0.0 || bytes == 0) return;
    if (total_ == 0) start_ = std::chrono::steady_clock::now();
    total_ += bytes;
    const auto due =
        start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(
                         static_cast<double>(total_) / bytes_per_s_));
    std::this_thread::sleep_until(due);
  }

 private:
  double bytes_per_s_;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t total_ = 0;
};

// Reader stage: file → chunk ring.  Construction opens the file and starts
// the reader thread; destruction stops and joins it.
class FileSource {
 public:
  struct Config {
    // Per-chunk capacity, rounded up to whole 64 KB units for the aligned
    // allocation; the fill length is then rounded *down* to a multiple of
    // `payload_quantum` (the socket's MSS) so chunk boundaries never cut a
    // short packet into the middle of a GSO run.
    std::size_t chunk_bytes = std::size_t{256} << 10;
    int ring_chunks = 16;
    int payload_quantum = 1456;
    double throttle_mbps = 0.0;
  };

  // One filled chunk, delivered in file order.  `data` stays valid until
  // recycle(id).
  struct Chunk {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    std::uint64_t offset = 0;  // absolute file offset of data[0]
    int id = -1;
  };

  FileSource(const std::string& path, std::uint64_t offset,
             std::uint64_t length, const Config& cfg);
  ~FileSource();
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  // False when the file could not be opened/stat'ed; nothing was started.
  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  // min(length, file size - offset) — what the transfer will actually move
  // (0 when `offset` is at or past EOF).
  [[nodiscard]] std::uint64_t planned_bytes() const { return planned_; }

  // Next filled chunk in file order; blocks up to `timeout`.  nullopt on
  // timeout (reader momentarily behind), end of data, or error — the caller
  // tells those apart with done()/io_error().
  std::optional<Chunk> next(std::chrono::milliseconds timeout);
  // Chunk `id` is no longer referenced anywhere: return it to the free ring.
  void recycle(int id);
  // No more chunks will ever come and none are pending delivery.
  [[nodiscard]] bool done();
  [[nodiscard]] bool io_error();

  // Unblocks the reader and any next() caller; idempotent.  The destructor
  // calls it, but a caller that still holds chunk memory borrowed elsewhere
  // must stop() only after those borrows are gone.
  void stop();

 private:
  void reader_loop();
  // One pread-based fill of chunk `id` at `off` for `want` bytes; returns
  // bytes read (< want means EOF), or SIZE_MAX on an I/O error.
  std::size_t fill_pread(int id, std::uint64_t off, std::size_t want);

  struct Filled {
    int id;
    std::uint64_t offset;
    std::size_t len;
  };

  int fd_ = -1;
  std::uint64_t offset_ = 0;
  std::uint64_t planned_ = 0;
  std::size_t alloc_bytes_ = 0;  // per chunk, 64 KB multiple
  std::size_t fill_bytes_ = 0;   // per chunk, payload_quantum multiple
  std::vector<std::uint8_t*> bufs_;
  Config cfg_;
  DiskThrottle throttle_;

  std::mutex mu_;
  std::condition_variable free_cv_;    // reader waits for recycled chunks
  std::condition_variable filled_cv_;  // next() waits for filled chunks
  std::vector<int> free_;
  std::deque<Filled> filled_;
  bool stop_ = false;
  bool eof_ = false;       // reader finished (planned bytes read or early EOF)
  bool io_error_ = false;
  std::thread reader_;
};

// Write-behind stage: taken payloads → file.  Construction starts the
// writer thread; finish() (or the destructor) drains and joins it.
class FileSink {
 public:
  struct Config {
    // Queued-but-unwritten payload bound; enqueue() blocks at the cap so a
    // slow disk backs up into the protocol's flow control.
    std::size_t queue_max_bytes = std::size_t{4} << 20;
    double throttle_mbps = 0.0;
  };

  // `expected_len` drives the ftruncate preallocation on first write (and
  // the trim-back if the transfer ends short).
  FileSink(std::string path, std::uint64_t expected_len, const Config& cfg);
  ~FileSink();
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  // Queues `items` for writing at the running sequential offset, blocking
  // while the write-behind queue is over its byte cap.  Slab references
  // inside are released (and owned storage freed) once written.  False when
  // the writer already hit a disk error — the items are then released
  // immediately and the transfer should stop.
  bool enqueue(std::vector<RcvBuffer::Taken>&& items);

  // Drains the queue, trims the preallocation to the bytes actually
  // written, closes the file and joins the writer.  `create_if_empty`
  // makes a clean zero-byte transfer still create/truncate the file (the
  // recvfile(path, 0) contract); a failed transfer that never
  // saw a byte leaves the path untouched either way.  True on a clean disk
  // close.  Idempotent.
  bool finish(bool create_if_empty);

  [[nodiscard]] std::uint64_t bytes_written();
  [[nodiscard]] bool io_error();

 private:
  void writer_loop();
  void release_items(std::vector<RcvBuffer::Taken>& items);
  // One gathered positional write of `total` bytes at `off`, looping over
  // short writes (consumes the iovec array as it advances).
  bool write_pwritev(struct iovec* iov, std::size_t nr, std::uint64_t off,
                     std::size_t total);
  bool open_output();  // lazy open + preallocation; writer thread only

  std::string path_;
  std::uint64_t expected_ = 0;
  Config cfg_;
  DiskThrottle throttle_;
  int fd_ = -1;  // writer thread only until joined

  std::mutex mu_;
  std::condition_variable space_cv_;  // enqueue waits for queue drain
  std::condition_variable work_cv_;   // writer waits for items / finish
  std::deque<std::vector<RcvBuffer::Taken>> queue_;
  std::size_t queued_bytes_ = 0;
  std::uint64_t written_ = 0;
  bool finishing_ = false;
  bool io_error_ = false;
  bool finished_ = false;
  std::thread writer_;
};

}  // namespace udtr::udt
