// FileSource / FileSink — the disk stages of the pipelined sendfile/recvfile
// datapath (see file_pipeline.hpp for the model).
#include "udt/file_pipeline.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace udtr::udt {

namespace {

// Chunk alignment (and allocation granularity): 64 KB keeps the buffers
// page-aligned and friendly to direct-ish I/O paths.
constexpr std::size_t kChunkAlign = std::size_t{64} << 10;
// Payloads gathered into one positional write (Linux IOV_MAX).
constexpr std::size_t kSinkIovMax = 1024;
constexpr std::size_t kReadError = std::numeric_limits<std::size_t>::max();

}  // namespace

// ------------------------------------------------------------ FileSource ---

FileSource::FileSource(const std::string& path, std::uint64_t offset,
                       std::uint64_t length, const Config& cfg)
    : cfg_(cfg), throttle_(cfg.throttle_mbps) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return;
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  offset_ = offset;
  planned_ =
      offset >= size ? 0 : std::min<std::uint64_t>(length, size - offset);
  const auto quantum =
      static_cast<std::size_t>(std::max(cfg.payload_quantum, 1));
  alloc_bytes_ = std::max(cfg.chunk_bytes, quantum);
  alloc_bytes_ = (alloc_bytes_ + kChunkAlign - 1) / kChunkAlign * kChunkAlign;
  // Fill in MSS multiples so a chunk boundary never cuts a short packet
  // into the middle of a GSO run (the last chunk's tail is the only short
  // packet of the whole transfer).
  fill_bytes_ = alloc_bytes_ / quantum * quantum;
  const int nchunks = std::clamp(cfg.ring_chunks, 2, 1024);
  bufs_.reserve(static_cast<std::size_t>(nchunks));
  for (int i = 0; i < nchunks; ++i) {
    auto* b = static_cast<std::uint8_t*>(
        std::aligned_alloc(kChunkAlign, alloc_bytes_));
    if (b == nullptr) {
      for (auto* p : bufs_) std::free(p);
      bufs_.clear();
      ::close(fd);
      return;
    }
    bufs_.push_back(b);
    free_.push_back(i);
  }
  fd_ = fd;
  if (planned_ == 0) {
    eof_ = true;
    return;
  }
  reader_ = std::thread([this] { reader_loop(); });
}

FileSource::~FileSource() {
  stop();
  if (reader_.joinable()) reader_.join();
  for (auto* b : bufs_) std::free(b);
  if (fd_ >= 0) ::close(fd_);
}

std::size_t FileSource::fill_pread(int id, std::uint64_t off,
                                   std::size_t want) {
  std::size_t got = 0;
  while (got < want) {
    const ssize_t n =
        ::pread(fd_, bufs_[static_cast<std::size_t>(id)] + got, want - got,
                static_cast<off_t>(off + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return kReadError;
    }
    if (n == 0) break;  // EOF before the planned end: the file shrank
    got += static_cast<std::size_t>(n);
  }
  return got;
}

void FileSource::reader_loop() {
  std::uint64_t off = offset_;
  const std::uint64_t end = offset_ + planned_;
  while (off < end) {
    // Block for a free chunk: ring exhaustion is the ACK clock's
    // backpressure on the disk reader.
    int id = -1;
    {
      std::unique_lock lk{mu_};
      free_cv_.wait(lk, [&] { return stop_ || !free_.empty(); });
      if (stop_) return;
      id = free_.back();
      free_.pop_back();
    }
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(fill_bytes_, end - off));
    const std::size_t got = fill_pread(id, off, want);
    const bool err = got == kReadError;
    // The throttle IS the emulated disk: data becomes available only at
    // disk rate, before it is handed to the wire.
    if (!err) throttle_.consume(got);
    std::lock_guard lk{mu_};
    if (err || got == 0) {
      free_.push_back(id);
    } else {
      filled_.push_back(Filled{id, off, got});
    }
    filled_cv_.notify_all();
    if (err || got < want) {
      if (err) io_error_ = true;
      eof_ = true;
      return;
    }
    off += want;
  }
  std::lock_guard lk{mu_};
  eof_ = true;
  filled_cv_.notify_all();
}

std::optional<FileSource::Chunk> FileSource::next(
    std::chrono::milliseconds timeout) {
  std::unique_lock lk{mu_};
  filled_cv_.wait_for(lk, timeout, [&] {
    return stop_ || io_error_ || eof_ || !filled_.empty();
  });
  if (filled_.empty()) return std::nullopt;
  const Filled f = filled_.front();
  filled_.pop_front();
  return Chunk{bufs_[static_cast<std::size_t>(f.id)], f.len, f.offset, f.id};
}

void FileSource::recycle(int id) {
  std::lock_guard lk{mu_};
  free_.push_back(id);
  free_cv_.notify_one();
}

bool FileSource::done() {
  std::lock_guard lk{mu_};
  return filled_.empty() && (eof_ || stop_ || io_error_);
}

bool FileSource::io_error() {
  std::lock_guard lk{mu_};
  return io_error_;
}

void FileSource::stop() {
  std::lock_guard lk{mu_};
  stop_ = true;
  free_cv_.notify_all();
  filled_cv_.notify_all();
}

// -------------------------------------------------------------- FileSink ---

FileSink::FileSink(std::string path, std::uint64_t expected_len,
                   const Config& cfg)
    : path_(std::move(path)),
      expected_(expected_len),
      cfg_(cfg),
      throttle_(cfg.throttle_mbps) {
  writer_ = std::thread([this] { writer_loop(); });
}

FileSink::~FileSink() { finish(false); }

void FileSink::release_items(std::vector<RcvBuffer::Taken>& items) {
  for (RcvBuffer::Taken& t : items) {
    if (t.slab != nullptr) {
      t.slab->release(t.slab_slot);
      t.slab = nullptr;
    }
  }
  items.clear();
}

bool FileSink::open_output() {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return false;
  // The destructive moment, deferred to the first received byte: truncate
  // whatever was there and preallocate the expected length in one call, so
  // a transfer that failed before any data arrived never touched the path
  // and the write-behind stream never grows the file page by page.
  if (::ftruncate(fd_, static_cast<off_t>(expected_)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool FileSink::write_pwritev(struct iovec* iov, std::size_t nr,
                             std::uint64_t off, std::size_t total) {
  std::size_t done = 0;
  std::size_t first = 0;
  while (done < total) {
    const ssize_t n = ::pwritev(fd_, iov + first, static_cast<int>(nr - first),
                                static_cast<off_t>(off + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
    // Short write: advance past fully-written vectors and trim the partial.
    auto adv = static_cast<std::size_t>(n);
    while (first < nr && adv >= iov[first].iov_len) {
      adv -= iov[first].iov_len;
      ++first;
    }
    if (first < nr && adv > 0) {
      iov[first].iov_base = static_cast<std::uint8_t*>(iov[first].iov_base) + adv;
      iov[first].iov_len -= adv;
    }
  }
  return true;
}

void FileSink::writer_loop() {
  std::uint64_t off = 0;
  std::vector<RcvBuffer::Taken> items;
  std::vector<struct iovec> iov(kSinkIovMax);
  while (true) {
    bool dead;
    {
      std::unique_lock lk{mu_};
      work_cv_.wait(lk, [&] { return !queue_.empty() || finishing_; });
      if (queue_.empty()) return;
      // Drain everything queued in one sweep: arrival-cadence enqueues are
      // often a handful of packets each, and writing them batch-by-batch
      // would mean a syscall (and a writer wakeup) per few KB.
      items = std::move(queue_.front());
      queue_.pop_front();
      while (!queue_.empty()) {
        auto& more = queue_.front();
        items.insert(items.end(), std::move_iterator{more.begin()},
                     std::move_iterator{more.end()});
        queue_.pop_front();
      }
      dead = io_error_;
    }
    std::size_t bytes = 0;
    for (const auto& t : items) bytes += t.len;
    bool ok = !dead;
    if (ok && fd_ < 0) ok = open_output();
    if (ok) {
      // Gather contiguous payloads into IOV_MAX-wide positional writes —
      // one kernel entry per ~1.5 MB of packet-sized slab references, not
      // one per packet.
      std::size_t next_item = 0;
      std::uint64_t o = off;
      while (ok && next_item < items.size()) {
        const std::size_t n = std::min(items.size() - next_item, kSinkIovMax);
        std::size_t vbytes = 0;
        for (std::size_t k = 0; k < n; ++k) {
          const RcvBuffer::Taken& t = items[next_item + k];
          iov[k].iov_base =
              const_cast<void*>(static_cast<const void*>(t.data));
          iov[k].iov_len = t.len;
          vbytes += t.len;
        }
        ok = write_pwritev(iov.data(), n, o, vbytes);
        next_item += n;
        o += vbytes;
      }
    }
    if (ok) throttle_.consume(bytes);
    release_items(items);
    {
      std::lock_guard lk{mu_};
      queued_bytes_ -= bytes;
      if (ok) {
        written_ += bytes;
      } else {
        io_error_ = true;
      }
      space_cv_.notify_all();
    }
    off += bytes;
  }
}

bool FileSink::enqueue(std::vector<RcvBuffer::Taken>&& items) {
  std::size_t bytes = 0;
  for (const auto& t : items) bytes += t.len;
  std::unique_lock lk{mu_};
  space_cv_.wait(lk, [&] {
    return io_error_ || finishing_ || queued_bytes_ < cfg_.queue_max_bytes;
  });
  if (io_error_ || finishing_) {
    lk.unlock();
    release_items(items);
    return false;
  }
  queued_bytes_ += bytes;
  queue_.push_back(std::move(items));
  work_cv_.notify_one();
  return true;
}

bool FileSink::finish(bool create_if_empty) {
  {
    std::lock_guard lk{mu_};
    finishing_ = true;
    work_cv_.notify_all();
    space_cv_.notify_all();
  }
  if (writer_.joinable()) writer_.join();
  std::lock_guard lk{mu_};
  if (finished_) return !io_error_;
  finished_ = true;
  if (fd_ >= 0) {
    // A short transfer leaves preallocated zeros past the data: trim.
    if (written_ < expected_ &&
        ::ftruncate(fd_, static_cast<off_t>(written_)) != 0) {
      io_error_ = true;
    }
    if (::close(fd_) != 0) io_error_ = true;
    fd_ = -1;
  } else if (create_if_empty && !io_error_) {
    // Clean zero-byte transfer: recvfile(path, 0) still creates/empties
    // the destination.
    const int fd =
        ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      io_error_ = true;
    } else {
      ::close(fd);
    }
  }
  return !io_error_;
}

std::uint64_t FileSink::bytes_written() {
  std::lock_guard lk{mu_};
  return written_;
}

bool FileSink::io_error() {
  std::lock_guard lk{mu_};
  return io_error_;
}

}  // namespace udtr::udt
