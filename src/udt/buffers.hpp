// Protocol buffers (paper §4.3, §4.6, Fig. 10).
//
// SndBuffer pre-packetizes application bytes into MSS-sized chunks indexed
// by an absolute packet index (the socket maps sequence numbers to indexes),
// so (re)transmission is a direct lookup.  Chunks live in a circular array
// and their byte storage is recycled through a free list, so the steady
// state allocates nothing per packet.  The zero-copy sender hands the kernel
// iovecs that point straight into these chunks while the socket lock is
// dropped; the pin/unpin API below keeps an ACK that races the syscall from
// freeing storage out from under the in-flight iovec.
//
// RcvBuffer is a ring of packet slots addressed by absolute index.  Because
// the slot of an arrival is computed from its sequence number, out-of-order
// data lands directly at its destination offset — the "speculation of next
// packet" technique costs nothing here beyond the ring addressing.  A slot
// either owns a copied payload (slab-starved fallback) or *references* the
// RecvSlab slot the datagram was received into, in which case the buffer
// holds a slab reference until the reader drains it — that is what makes the
// receive path copy-once.  The buffer also supports *user-buffer insertion* (overlapped
// IO): a reader may register its own buffer as a logical extension of the
// protocol buffer, and in-order arrivals are then copied directly into
// application memory, skipping the protocol-buffer staging copy.
//
// SndBuffer/RcvBuffer are plain single-threaded data structures; the socket
// core provides locking.  RecvSlab is internally synchronized because the
// receiver thread acquires slots while the application thread releases them.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

namespace udtr::udt {

class SndBuffer {
 public:
  // `capacity_bytes` bounds buffered-but-unacknowledged application data.
  SndBuffer(int mss_bytes, std::size_t capacity_bytes);

  // Appends application data, splitting it into <= MSS chunks.  Returns the
  // number of bytes accepted (0 when full); never splits across add() calls.
  std::size_t add(std::span<const std::uint8_t> data);

  // Overlapped-send path (§4.7): registers the caller's memory as chunks
  // WITHOUT copying.  The caller must keep `data` alive until every chunk is
  // acknowledged (the socket's send_overlapped blocks until then).
  std::size_t add_borrowed(std::span<const std::uint8_t> data);

  // --- message mode ----------------------------------------------------
  // Appends one whole message, all-or-nothing: returns 0 without buffering
  // anything unless every chunk fits.  Each chunk carries the wire word1
  // (boundary flags + o bit + message number) the sender will stamp into
  // its data header.
  std::size_t add_message(std::span<const std::uint8_t> data,
                          std::uint32_t msg_no, bool in_order);
  // Wire word1 for the chunk at `index`; 0 for stream chunks / out of range.
  [[nodiscard]] std::uint32_t msg_word(std::int64_t index) const;
  // A dead chunk belongs to a TTL-expired message: its payload is gone and
  // the sender must never (re)transmit it.  The slot itself stays in the
  // ring so index arithmetic and cumulative ACKs are undisturbed.
  [[nodiscard]] bool is_dead(std::int64_t index) const;
  void mark_dead(std::int64_t first, std::int64_t end);

  // Chunk for the given absolute packet index; nullopt if out of range.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> chunk(
      std::int64_t index) const;

  // Releases every chunk before `index` (cumulative acknowledgment).  While
  // a pin covers an index, its storage is parked instead of recycled.
  void ack_up_to(std::int64_t index);

  // Converts every borrowed view in [first, end) into buffer-owned storage
  // (one copy per chunk).  Escape hatch for a pipelined sendfile whose flush
  // deadline passed with ring chunks still unacknowledged: after disowning,
  // the caller's memory is referenced only by already-in-flight pins, so it
  // may be reclaimed as soon as those drain instead of waiting for the peer.
  void disown_views(std::int64_t first, std::int64_t end);

  // --- zero-copy send pinning ------------------------------------------
  // The sender pins [first, end) before dropping the socket lock to pass
  // iovecs into those chunks to the kernel.  An ACK that lands while the
  // syscall is in flight still advances base_index_, but the pinned
  // chunks' storage is parked rather than freed, so the in-flight iovecs
  // stay valid.  One range at most: only the socket's tx round pins, and
  // it unpins (with the lock re-held) before its next round.  unpin()
  // recycles the parked storage and returns whether a pin was active — the
  // caller uses that to wake overlapped senders blocked on pinned_below().
  void pin(std::int64_t first, std::int64_t end);
  bool unpin();
  // True while the pin could still reference a chunk below `end`.
  // Overlapped sends must not return to the caller (whose memory the
  // chunks borrow) until this clears.
  [[nodiscard]] bool pinned_below(std::int64_t end) const {
    return pin_first_ < pin_end_ && pin_first_ < end;
  }

  [[nodiscard]] std::int64_t first_index() const { return base_index_; }
  [[nodiscard]] std::int64_t end_index() const {
    return base_index_ + static_cast<std::int64_t>(count_);
  }
  [[nodiscard]] std::size_t chunk_count() const { return count_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] std::size_t free_bytes() const {
    return capacity_bytes_ - bytes_;
  }

 private:
  // A chunk either owns its bytes (copied in by add) or views caller memory
  // (add_borrowed).
  struct Chunk {
    std::vector<std::uint8_t> owned;
    std::span<const std::uint8_t> view;
    std::uint32_t msg_word = 0;  // wire word1; 0 = stream chunk
    bool dead = false;           // TTL-expired message chunk: never transmit
    [[nodiscard]] std::span<const std::uint8_t> bytes() const {
      return owned.empty() ? view
                           : std::span<const std::uint8_t>{owned.data(),
                                                           owned.size()};
    }
  };

  void push_chunk(Chunk&& c);
  void recycle(std::vector<std::uint8_t>&& storage);
  [[nodiscard]] std::size_t ring_pos(std::int64_t index) const {
    return (head_ + static_cast<std::size_t>(index - base_index_)) %
           ring_.size();
  }

  int mss_;
  std::size_t capacity_bytes_;
  // One buffer's worth of chunks: what recycle() retains so bursty ACK
  // releases never force add() to allocate.
  std::size_t free_store_cap_ = 0;
  std::int64_t base_index_ = 0;  // index of the chunk at ring_[head_]
  std::vector<Chunk> ring_;      // circular; grows amortized, never per-packet
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
  // Recycled chunk storage: add() reuses these instead of allocating.
  std::vector<std::vector<std::uint8_t>> free_store_;
  // The in-flight pinned range [pin_first_, pin_end_); empty when unpinned.
  std::int64_t pin_first_ = 0;
  std::int64_t pin_end_ = 0;
  // Storage of chunks released while pinned; recycled by unpin().
  std::vector<std::vector<std::uint8_t>> parked_;
  [[nodiscard]] bool pin_covers(std::int64_t index) const {
    return index >= pin_first_ && index < pin_end_;
  }
  // Parks `storage` while the pin covers `index`, recycles it otherwise.
  void release_storage(std::int64_t index, std::vector<std::uint8_t>&& storage);
};

// Preallocated arena of fixed-size receive slots shared between the channel
// (which receives datagrams into free slots) and the RcvBuffer (which keeps
// a reference per payload still parked in a slot).  Reference counted: the
// receiver thread holds one reference while it parses a slot, each stored
// payload holds one, and the slot returns to the free list when the last
// drops.  Exhaustion is not an error — acquire() returns -1 and callers fall
// back to the copying path, trading a memcpy for bounded memory.
class RecvSlab {
 public:
  RecvSlab(std::size_t slot_bytes, std::size_t slot_count);

  // Claims a free slot with refcount 1; -1 when exhausted.
  [[nodiscard]] int acquire();
  void add_ref(int slot);
  void release(int slot);

  [[nodiscard]] std::uint8_t* data(int slot) {
    return arena_.get() + static_cast<std::size_t>(slot) * slot_bytes_;
  }
  [[nodiscard]] std::size_t slot_bytes() const { return slot_bytes_; }
  [[nodiscard]] std::size_t slot_count() const { return slot_count_; }
  [[nodiscard]] std::size_t free_count() const;

 private:
  std::size_t slot_bytes_;
  std::size_t slot_count_;
  // Default-initialized (not zero-filled): a slot is always written by a
  // receive before anything reads it, and leaving the arena untouched keeps
  // its pages out of RSS until traffic actually uses them.
  std::unique_ptr<std::uint8_t[]> arena_;
  std::vector<int> refs_;
  std::vector<int> free_;
  mutable std::mutex mu_;
};

class RcvBuffer {
 public:
  RcvBuffer(int mss_bytes, std::int32_t capacity_pkts);
  ~RcvBuffer();
  RcvBuffer(const RcvBuffer&) = delete;
  RcvBuffer& operator=(const RcvBuffer&) = delete;

  // Stores the payload of packet `index`, copying it into owned slot
  // storage.  Returns false if the index falls outside the receivable
  // window (behind the read cursor or beyond the ring) or is a duplicate.
  // In-order data destined for a registered user buffer bypasses the ring
  // entirely.
  bool store(std::int64_t index, std::span<const std::uint8_t> payload,
             std::uint32_t msg_word = 0);

  // Zero-copy variant: parks `payload` BY REFERENCE.  The bytes live in
  // `slab` slot `slot` and the buffer takes a slab reference (released when
  // the reader consumes the slot), so the caller may drop its own reference
  // after the call.  The overlapped fast path still copies straight into
  // the user buffer and takes no reference.  Same return contract as
  // store().
  bool store_ref(std::int64_t index, std::span<const std::uint8_t> payload,
                 RecvSlab* slab, int slot, std::uint32_t msg_word = 0);

  // Copies contiguous received data into `out`; returns bytes copied.
  std::size_t read(std::span<std::uint8_t> out);

  // One payload popped by take_stream: the view stays valid for as long as
  // the Taken lives, because the backing storage moved with it — either one
  // slab reference (the holder must slab->release(slab_slot) when done) or
  // the slot's owned vector.  A partial take at the tail of a bounded
  // request is the one case that copies (into `owned`, no slab ref).
  struct Taken {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    RecvSlab* slab = nullptr;
    int slab_slot = -1;
    std::vector<std::uint8_t> owned;
  };
  // By-reference stream drain (the write-behind half of the file pipeline):
  // pops up to `max_bytes` of contiguous stream data, transferring payload
  // ownership out of the ring — no memcpy in steady state — and advances the
  // read cursor so the flow-control window reopens immediately, before the
  // bytes ever touch a disk.  Returns bytes appended to `out`.
  std::size_t take_stream(std::size_t max_bytes, std::vector<Taken>& out);

  // Payload bytes handed out of the ring by reference (take_stream's
  // zero-copy transfers); the structural counter bench/tests assert on.
  [[nodiscard]] std::uint64_t taken_ref_bytes() const {
    return taken_ref_bytes_;
  }

  // --- message mode ----------------------------------------------------
  // store/store_ref take the packet's wire word1 (`msg_word`, 0 = stream).
  // A slot whose message completes joins the ready queue: immediately for
  // in_order=false messages, once everything before it was delivered or
  // sealed for in_order=true ones.  Delivery and sealing mark slots
  // `consumed`; the frontier (read_index_) advances over consumed slots, so
  // a sealed hole never blocks later messages.
  [[nodiscard]] bool msg_ready() const { return !ready_.empty(); }
  // Pops the next complete message into `out` (excess bytes are discarded);
  // returns bytes copied, 0 when no message is ready.
  std::size_t read_msg(std::span<std::uint8_t> out);
  // Seals [first, last] (inclusive): the sender gave up on these packets
  // (kMsgDrop), so mark them consumed — discarding any partially-arrived
  // payload of the expired message — and advance past the hole.
  void seal_range(std::int64_t first, std::int64_t last);

  // --- overlapped IO ---------------------------------------------------
  // Registers `buf` as the logical extension of the protocol buffer.  Any
  // already-buffered contiguous data is drained into it immediately;
  // subsequent in-order arrivals are written directly.  Returns bytes
  // filled so far.
  std::size_t register_user_buffer(std::span<std::uint8_t> buf);
  // Bytes delivered into the registered buffer so far.
  [[nodiscard]] std::size_t user_buffer_filled() const { return user_filled_; }
  [[nodiscard]] bool user_buffer_done() const {
    return user_buf_.empty() || user_filled_ == user_buf_.size();
  }
  // Unregisters (e.g. on timeout); returns bytes that were filled.
  std::size_t release_user_buffer();

  // First index not yet received (ACK position).
  [[nodiscard]] std::int64_t contiguous_end() const { return contig_; }
  // One past the largest index the ring can currently accept.
  [[nodiscard]] std::int64_t window_end() const {
    return read_index_ + capacity_;
  }
  // Free slots, in packets, for the flow-control feedback in ACKs.
  [[nodiscard]] std::int32_t avail_packets() const;
  // Contiguous bytes ready for read().
  [[nodiscard]] std::size_t readable_bytes() const;

  // Copy accounting for the Table-3 bytes-per-packet column: payload bytes
  // memcpy'd into ring slot storage (the copy zero-copy mode deletes) and
  // payload bytes memcpy'd into application memory (the one copy that
  // always remains).
  [[nodiscard]] std::uint64_t ring_copied_bytes() const {
    return ring_copied_bytes_;
  }
  [[nodiscard]] std::uint64_t user_copied_bytes() const {
    return user_copied_bytes_;
  }

 private:
  struct Slot {
    std::vector<std::uint8_t> data;     // owned copy (store / fallback)
    const std::uint8_t* ext = nullptr;  // borrowed view into a slab slot
    std::size_t ext_len = 0;
    RecvSlab* slab = nullptr;
    int slab_slot = -1;
    bool filled = false;
    bool consumed = false;        // delivered message slot / sealed hole
    std::uint32_t msg_word = 0;   // wire word1; 0 = stream payload
    [[nodiscard]] const std::uint8_t* bytes() const {
      return ext != nullptr ? ext : data.data();
    }
    [[nodiscard]] std::size_t size() const {
      return ext != nullptr ? ext_len : data.size();
    }
  };
  [[nodiscard]] Slot& slot(std::int64_t index) {
    return slots_[static_cast<std::size_t>(index % capacity_)];
  }
  // Materializes the slot ring on the first stored packet.  An idle socket
  // never allocates it: every read-side path early-outs while contig_ ==
  // read_index_ == 0, so the ring is only touched after a store.
  void ensure_slots() {
    if (slots_.empty()) slots_.resize(static_cast<std::size_t>(capacity_));
  }
  // Common admission + fast-path logic for store/store_ref; returns true if
  // the packet was fully consumed (rejected or delivered straight to the
  // user buffer), with `accepted` telling the two apart.
  bool store_common(std::int64_t index, std::span<const std::uint8_t> payload,
                    std::uint32_t msg_word, bool& accepted);
  // Returns the slot's storage to its owner (slab reference released,
  // vector capacity recycled into spare_) and marks it empty.
  void release_slot(Slot& s);
  // Storage-only release: the slot keeps its filled/consumed/msg_word flags
  // (a delivered or sealed message slot stays "occupied" until the frontier
  // passes it, but its payload bytes are no longer needed).
  void release_payload(Slot& s);
  void advance_contig();
  // Moves contiguous ring data into the user buffer while space remains.
  void drain_into_user_buffer();
  // Checks whether the message containing newly-filled slot `index` is now
  // complete and, if so, queues it for delivery.
  void try_complete_msg(std::int64_t index);
  // Advances read_index_ over consumed slots and promotes in-order messages
  // that reached the frontier.
  void advance_frontier();

  int mss_;
  std::int64_t capacity_;
  std::vector<Slot> slots_;
  std::int64_t read_index_ = 0;   // ring index of the next byte to read
  std::size_t read_offset_ = 0;   // offset within that slot
  std::int64_t contig_ = 0;       // first missing index
  std::int64_t max_index_ = 0;    // one past the largest stored index

  std::span<std::uint8_t> user_buf_{};
  std::size_t user_filled_ = 0;

  // Recycled copy storage for the store() fallback path.  Pooled rather
  // than kept per slot: arrivals land at arbitrary ring positions, so
  // slot-local capacity would re-allocate on every first touch of a new
  // position while the pool makes the copy path allocation-free once warm.
  // Bounded by the window (capacity_ entries), the same high-water
  // retention the per-slot scheme had.
  std::vector<std::vector<std::uint8_t>> spare_;

  std::uint64_t ring_copied_bytes_ = 0;
  std::uint64_t user_copied_bytes_ = 0;
  std::uint64_t taken_ref_bytes_ = 0;

  // Complete messages as inclusive slot-index ranges.  ready_ is delivery
  // (FIFO) order; waiting_ holds complete in_order=true messages parked
  // until the frontier reaches them.
  struct ReadyMsg {
    std::int64_t first;
    std::int64_t last;
  };
  std::deque<ReadyMsg> ready_;
  std::vector<ReadyMsg> waiting_;
};

}  // namespace udtr::udt
