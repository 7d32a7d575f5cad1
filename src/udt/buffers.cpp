#include "udt/buffers.hpp"

#include <algorithm>
#include <cstring>

#include "udt/packet.hpp"

namespace udtr::udt {

// ------------------------------------------------------------- SndBuffer ---

SndBuffer::SndBuffer(int mss_bytes, std::size_t capacity_bytes)
    : mss_(mss_bytes),
      capacity_bytes_(capacity_bytes),
      // The free list must absorb a whole buffer's worth of chunk storage:
      // ACKs arrive in SYN-cadence bursts that can release thousands of
      // chunks at once, and anything the list cannot hold is a fresh heap
      // allocation on the very next add() — the steady state would allocate
      // per packet.  Retained memory is bounded by capacity_bytes_, which
      // the buffer is already sized to commit.
      free_store_cap_(capacity_bytes / static_cast<std::size_t>(mss_bytes) +
                      64) {
  // No up-front reservations: an idle socket's send buffer owns zero heap.
  // parked_/free_store_ grow amortized on the first real traffic.
}

void SndBuffer::recycle(std::vector<std::uint8_t>&& storage) {
  if (free_store_.size() < free_store_cap_ && storage.capacity() > 0) {
    free_store_.push_back(std::move(storage));
  }
}

void SndBuffer::push_chunk(Chunk&& c) {
  if (count_ == ring_.size()) {
    // Grow the circle, unrolling it so head_ returns to 0.  Chunk moves keep
    // the owned heap buffers (and thus any captured spans) address-stable.
    std::vector<Chunk> bigger;
    bigger.resize(std::max<std::size_t>(16, ring_.size() * 2));
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) % ring_.size()]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }
  ring_[(head_ + count_) % ring_.size()] = std::move(c);
  ++count_;
}

std::size_t SndBuffer::add(std::span<const std::uint8_t> data) {
  std::size_t accepted = 0;
  while (accepted < data.size() && bytes_ < capacity_bytes_) {
    const std::size_t room = capacity_bytes_ - bytes_;
    const std::size_t take = std::min(
        {static_cast<std::size_t>(mss_), data.size() - accepted, room});
    Chunk c;
    if (!free_store_.empty()) {
      c.owned = std::move(free_store_.back());
      free_store_.pop_back();
    }
    c.owned.assign(data.begin() + accepted, data.begin() + accepted + take);
    push_chunk(std::move(c));
    bytes_ += take;
    accepted += take;
  }
  return accepted;
}

std::size_t SndBuffer::add_borrowed(std::span<const std::uint8_t> data) {
  std::size_t accepted = 0;
  while (accepted < data.size() && bytes_ < capacity_bytes_) {
    const std::size_t room = capacity_bytes_ - bytes_;
    const std::size_t take = std::min(
        {static_cast<std::size_t>(mss_), data.size() - accepted, room});
    Chunk c;
    c.view = data.subspan(accepted, take);
    push_chunk(std::move(c));
    bytes_ += take;
    accepted += take;
  }
  return accepted;
}

std::size_t SndBuffer::add_message(std::span<const std::uint8_t> data,
                                   std::uint32_t msg_no, bool in_order) {
  if (data.empty() || data.size() > capacity_bytes_ - bytes_) return 0;
  const auto mss = static_cast<std::size_t>(mss_);
  const std::size_t npkts = (data.size() + mss - 1) / mss;
  std::size_t off = 0;
  for (std::size_t k = 0; k < npkts; ++k) {
    const std::size_t take = std::min(mss, data.size() - off);
    Chunk c;
    if (!free_store_.empty()) {
      c.owned = std::move(free_store_.back());
      free_store_.pop_back();
    }
    c.owned.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                   data.begin() + static_cast<std::ptrdiff_t>(off + take));
    const MsgBoundary b = npkts == 1      ? MsgBoundary::kSolo
                          : k == 0        ? MsgBoundary::kFirst
                          : k + 1 == npkts ? MsgBoundary::kLast
                                           : MsgBoundary::kMiddle;
    c.msg_word = make_msg_word(b, in_order, msg_no);
    push_chunk(std::move(c));
    bytes_ += take;
    off += take;
  }
  return off;
}

std::uint32_t SndBuffer::msg_word(std::int64_t index) const {
  if (index < base_index_ || index >= end_index()) return 0;
  return ring_[ring_pos(index)].msg_word;
}

bool SndBuffer::is_dead(std::int64_t index) const {
  if (index < base_index_ || index >= end_index()) return false;
  return ring_[ring_pos(index)].dead;
}

void SndBuffer::mark_dead(std::int64_t first, std::int64_t end) {
  first = std::max(first, base_index_);
  end = std::min(end, end_index());
  for (std::int64_t i = first; i < end; ++i) {
    Chunk& c = ring_[ring_pos(i)];
    if (c.dead) continue;
    bytes_ -= c.bytes().size();
    release_storage(i, std::move(c.owned));
    c.owned.clear();
    c.view = {};
    c.dead = true;
  }
}

std::optional<std::span<const std::uint8_t>> SndBuffer::chunk(
    std::int64_t index) const {
  if (index < base_index_ || index >= end_index()) return std::nullopt;
  return ring_[ring_pos(index)].bytes();
}

void SndBuffer::ack_up_to(std::int64_t index) {
  while (base_index_ < index && count_ > 0) {
    Chunk& c = ring_[head_];
    bytes_ -= c.bytes().size();
    release_storage(base_index_, std::move(c.owned));
    c.owned.clear();
    c.view = {};
    c.msg_word = 0;
    c.dead = false;
    head_ = (head_ + 1) % ring_.size();
    --count_;
    ++base_index_;
  }
}

void SndBuffer::disown_views(std::int64_t first, std::int64_t end) {
  first = std::max(first, base_index_);
  end = std::min(end, end_index());
  for (std::int64_t i = first; i < end; ++i) {
    Chunk& c = ring_[ring_pos(i)];
    if (c.dead || c.view.empty() || !c.owned.empty()) continue;
    if (!free_store_.empty()) {
      c.owned = std::move(free_store_.back());
      free_store_.pop_back();
    }
    c.owned.assign(c.view.begin(), c.view.end());
    c.view = {};
  }
}

void SndBuffer::release_storage(std::int64_t index,
                                std::vector<std::uint8_t>&& storage) {
  if (storage.empty()) return;
  // An in-flight send may hold iovecs into pinned storage: park it until
  // unpin().  (Borrowed views need no parking — the overlapped caller is
  // itself blocked on pinned_below() and keeps the memory alive.)
  if (pin_covers(index)) {
    parked_.push_back(std::move(storage));
  } else {
    recycle(std::move(storage));
  }
}

void SndBuffer::pin(std::int64_t first, std::int64_t end) {
  pin_first_ = first;
  pin_end_ = end;
}

bool SndBuffer::unpin() {
  if (pin_first_ >= pin_end_) return false;
  pin_first_ = pin_end_ = 0;
  for (auto& storage : parked_) recycle(std::move(storage));
  parked_.clear();
  return true;
}

// -------------------------------------------------------------- RecvSlab ---

RecvSlab::RecvSlab(std::size_t slot_bytes, std::size_t slot_count)
    : slot_bytes_(slot_bytes),
      slot_count_(slot_count),
      arena_(new std::uint8_t[slot_bytes * slot_count]),
      refs_(slot_count, 0) {
  free_.reserve(slot_count);
  // LIFO free list: the hottest slot (most recently released) is reused
  // first, which keeps the working set small and cache-warm.
  for (std::size_t i = slot_count; i-- > 0;) {
    free_.push_back(static_cast<int>(i));
  }
}

int RecvSlab::acquire() {
  std::lock_guard lk{mu_};
  if (free_.empty()) return -1;
  const int slot = free_.back();
  free_.pop_back();
  refs_[static_cast<std::size_t>(slot)] = 1;
  return slot;
}

void RecvSlab::add_ref(int slot) {
  std::lock_guard lk{mu_};
  ++refs_[static_cast<std::size_t>(slot)];
}

void RecvSlab::release(int slot) {
  std::lock_guard lk{mu_};
  if (--refs_[static_cast<std::size_t>(slot)] == 0) {
    free_.push_back(slot);
  }
}

std::size_t RecvSlab::free_count() const {
  std::lock_guard lk{mu_};
  return free_.size();
}

// ------------------------------------------------------------- RcvBuffer ---

RcvBuffer::RcvBuffer(int mss_bytes, std::int32_t capacity_pkts)
    : mss_(mss_bytes), capacity_(capacity_pkts) {
  // slots_ stays empty until the first store (ensure_slots): at the default
  // 16384-packet window the ring is ~1 MB per socket, which a 100k-socket
  // idle fleet cannot afford to hold for sockets that never receive data.
}

RcvBuffer::~RcvBuffer() {
  for (auto& s : slots_) release_slot(s);
}

void RcvBuffer::release_payload(Slot& s) {
  if (s.slab != nullptr) {
    s.slab->release(s.slab_slot);
    s.slab = nullptr;
    s.slab_slot = -1;
  }
  s.ext = nullptr;
  s.ext_len = 0;
  if (s.data.capacity() > 0 &&
      spare_.size() < static_cast<std::size_t>(capacity_)) {
    // Pool the copy storage instead of leaving it slot-local: the next
    // store() may land anywhere in the ring.
    s.data.clear();
    spare_.push_back(std::move(s.data));
  }
  s.data = {};
}

void RcvBuffer::release_slot(Slot& s) {
  release_payload(s);
  s.filled = false;
  s.consumed = false;
  s.msg_word = 0;
}

std::size_t RcvBuffer::readable_bytes() const {
  if (contig_ <= read_index_) return 0;
  std::size_t n = 0;
  for (std::int64_t i = read_index_; i < contig_; ++i) {
    const auto& s = slots_[static_cast<std::size_t>(i % capacity_)];
    // Stream reads stop at message payloads and sealed holes.
    if (s.msg_word != 0 || s.consumed) break;
    n += s.size();
  }
  return n - read_offset_;
}

std::int32_t RcvBuffer::avail_packets() const {
  // Slots between the largest stored index and the read cursor's window end.
  const std::int64_t used = max_index_ - read_index_;
  return static_cast<std::int32_t>(
      std::max<std::int64_t>(capacity_ - used, 0));
}

void RcvBuffer::advance_contig() {
  // The ring may not exist yet when the overlapped fast path delivered the
  // first packets straight to the user buffer.
  if (slots_.empty()) return;
  while (contig_ < read_index_ + capacity_ &&
         slot(contig_).filled) {
    ++contig_;
  }
}

void RcvBuffer::drain_into_user_buffer() {
  while (!user_buf_.empty() && user_filled_ < user_buf_.size() &&
         read_index_ < contig_) {
    Slot& s = slot(read_index_);
    if (s.msg_word != 0 || s.consumed) break;  // not stream bytes
    const std::size_t avail = s.size() - read_offset_;
    const std::size_t want = user_buf_.size() - user_filled_;
    const std::size_t take = std::min(avail, want);
    std::memcpy(user_buf_.data() + user_filled_,
                s.bytes() + read_offset_, take);
    user_copied_bytes_ += take;
    user_filled_ += take;
    read_offset_ += take;
    if (read_offset_ == s.size()) {
      release_slot(s);
      ++read_index_;
      read_offset_ = 0;
    }
  }
}

bool RcvBuffer::store_common(std::int64_t index,
                             std::span<const std::uint8_t> payload,
                             std::uint32_t msg_word, bool& accepted) {
  accepted = false;
  if (index < contig_) return true;                    // duplicate / stale
  if (index >= read_index_ + capacity_) return true;   // beyond the window

  // Overlapped-IO fast path: the next expected packet with an armed user
  // buffer that can absorb it entirely goes straight to application memory
  // (Fig. 10 — the user buffer is the logical extension of the protocol
  // buffer).  Message payloads never take it: they must be reassembled (and
  // possibly sealed away) in the ring, not spliced into a byte stream.
  if (msg_word == 0 &&
      index == contig_ && contig_ == read_index_ && read_offset_ == 0 &&
      !user_buf_.empty() &&
      user_buf_.size() - user_filled_ >= payload.size()) {
    std::memcpy(user_buf_.data() + user_filled_, payload.data(),
                payload.size());
    user_copied_bytes_ += payload.size();
    user_filled_ += payload.size();
    ++contig_;
    ++read_index_;
    max_index_ = std::max(max_index_, index + 1);
    // Later packets may already sit in the ring contiguously.
    advance_contig();
    drain_into_user_buffer();
    accepted = true;
    return true;
  }
  return false;
}

bool RcvBuffer::store(std::int64_t index,
                      std::span<const std::uint8_t> payload,
                      std::uint32_t msg_word) {
  bool accepted = false;
  if (store_common(index, payload, msg_word, accepted)) return accepted;

  ensure_slots();
  Slot& s = slot(index);
  if (s.filled) return false;
  if (s.data.capacity() == 0 && !spare_.empty()) {
    s.data = std::move(spare_.back());
    spare_.pop_back();
  }
  s.data.assign(payload.begin(), payload.end());
  ring_copied_bytes_ += payload.size();
  s.filled = true;
  s.msg_word = msg_word;
  max_index_ = std::max(max_index_, index + 1);
  if (index == contig_) {
    advance_contig();
    if (!user_buf_.empty()) drain_into_user_buffer();
  }
  if (msg_word != 0) try_complete_msg(index);
  return true;
}

bool RcvBuffer::store_ref(std::int64_t index,
                          std::span<const std::uint8_t> payload,
                          RecvSlab* slab, int slot_id,
                          std::uint32_t msg_word) {
  bool accepted = false;
  if (store_common(index, payload, msg_word, accepted)) return accepted;

  ensure_slots();
  Slot& s = slot(index);
  if (s.filled) return false;
  s.ext = payload.data();
  s.ext_len = payload.size();
  s.slab = slab;
  s.slab_slot = slot_id;
  slab->add_ref(slot_id);
  s.filled = true;
  s.msg_word = msg_word;
  max_index_ = std::max(max_index_, index + 1);
  if (index == contig_) {
    advance_contig();
    if (!user_buf_.empty()) drain_into_user_buffer();
  }
  if (msg_word != 0) try_complete_msg(index);
  return true;
}

std::size_t RcvBuffer::read(std::span<std::uint8_t> out) {
  std::size_t copied = 0;
  while (copied < out.size() && read_index_ < contig_) {
    Slot& s = slot(read_index_);
    if (s.msg_word != 0 || s.consumed) break;  // not stream bytes
    const std::size_t avail = s.size() - read_offset_;
    const std::size_t take = std::min(avail, out.size() - copied);
    std::memcpy(out.data() + copied, s.bytes() + read_offset_, take);
    user_copied_bytes_ += take;
    copied += take;
    read_offset_ += take;
    if (read_offset_ == s.size()) {
      release_slot(s);
      ++read_index_;
      read_offset_ = 0;
    }
  }
  return copied;
}

std::size_t RcvBuffer::take_stream(std::size_t max_bytes,
                                   std::vector<Taken>& out) {
  std::size_t total = 0;
  while (total < max_bytes && read_index_ < contig_) {
    Slot& s = slot(read_index_);
    if (s.msg_word != 0 || s.consumed) break;  // not stream bytes
    const std::size_t avail = s.size() - read_offset_;
    const std::size_t take = std::min(avail, max_bytes - total);
    Taken t;
    if (take < avail) {
      // Bounded request ends mid-slot: copy the fragment out and leave the
      // remainder readable in place.  At most one MSS per transfer.
      t.owned.assign(s.bytes() + read_offset_,
                     s.bytes() + read_offset_ + take);
      t.data = t.owned.data();
      t.len = take;
      user_copied_bytes_ += take;
      read_offset_ += take;
    } else if (s.slab != nullptr) {
      // Move the slot's slab reference to the caller: the slab slot stays
      // alive until the Taken holder releases it.
      t.data = s.bytes() + read_offset_;
      t.len = take;
      t.slab = s.slab;
      t.slab_slot = s.slab_slot;
      s.slab = nullptr;
      s.slab_slot = -1;
      s.ext = nullptr;
      s.ext_len = 0;
      taken_ref_bytes_ += take;
      release_slot(s);
      ++read_index_;
      read_offset_ = 0;
    } else {
      // Copy-path slot: move the owned vector itself.
      t.owned = std::move(s.data);
      s.data = {};
      t.data = t.owned.data() + read_offset_;
      t.len = take;
      taken_ref_bytes_ += take;
      release_slot(s);
      ++read_index_;
      read_offset_ = 0;
    }
    out.push_back(std::move(t));
    total += take;
  }
  return total;
}

void RcvBuffer::try_complete_msg(std::int64_t index) {
  const std::uint32_t no = msg_number(slot(index).msg_word);
  // Walk back to the message's first packet.
  std::int64_t f = index;
  while (true) {
    const MsgBoundary b = msg_boundary(slot(f).msg_word);
    if (b == MsgBoundary::kFirst || b == MsgBoundary::kSolo) break;
    if (f == read_index_ || index - f + 1 >= capacity_) return;
    const Slot& p = slot(f - 1);
    const MsgBoundary pb = msg_boundary(p.msg_word);
    if (!p.filled || p.consumed || p.msg_word == 0 ||
        msg_number(p.msg_word) != no || pb == MsgBoundary::kLast ||
        pb == MsgBoundary::kSolo) {
      return;  // predecessor missing or a different message: incomplete
    }
    --f;
  }
  // ... and forward to its last.
  std::int64_t l = index;
  while (true) {
    const MsgBoundary b = msg_boundary(slot(l).msg_word);
    if (b == MsgBoundary::kLast || b == MsgBoundary::kSolo) break;
    if (l + 1 >= read_index_ + capacity_ || l - f + 1 >= capacity_) return;
    const Slot& nx = slot(l + 1);
    const MsgBoundary nb = msg_boundary(nx.msg_word);
    if (!nx.filled || nx.consumed || nx.msg_word == 0 ||
        msg_number(nx.msg_word) != no || nb == MsgBoundary::kFirst ||
        nb == MsgBoundary::kSolo) {
      return;
    }
    ++l;
  }
  if (msg_in_order(slot(f).msg_word) && f != read_index_) {
    // Complete, but something before it is still undelivered and unsealed.
    waiting_.push_back(ReadyMsg{f, l});
  } else {
    ready_.push_back(ReadyMsg{f, l});
  }
}

void RcvBuffer::advance_frontier() {
  if (slots_.empty()) return;
  while (read_index_ < max_index_ && slot(read_index_).filled &&
         slot(read_index_).consumed) {
    release_slot(slot(read_index_));
    ++read_index_;
    read_offset_ = 0;
  }
  if (contig_ < read_index_) contig_ = read_index_;
  advance_contig();
  // At most one parked in-order message can start exactly at the frontier;
  // the next one promotes when this one is delivered.
  for (std::size_t i = 0; i < waiting_.size(); ++i) {
    if (waiting_[i].first == read_index_) {
      ready_.push_back(waiting_[i]);
      waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

std::size_t RcvBuffer::read_msg(std::span<std::uint8_t> out) {
  if (ready_.empty()) return 0;
  const ReadyMsg m = ready_.front();
  ready_.pop_front();
  std::size_t copied = 0;
  for (std::int64_t i = m.first; i <= m.last; ++i) {
    Slot& s = slot(i);
    const std::size_t take = std::min(s.size(), out.size() - copied);
    std::memcpy(out.data() + copied, s.bytes(), take);
    user_copied_bytes_ += take;
    copied += take;
    release_payload(s);
    s.consumed = true;
  }
  advance_frontier();
  return copied;
}

void RcvBuffer::seal_range(std::int64_t first, std::int64_t last) {
  ensure_slots();
  first = std::max(first, read_index_);
  last = std::min(last, read_index_ + capacity_ - 1);
  if (last < first) return;
  for (std::int64_t i = first; i <= last; ++i) {
    Slot& s = slot(i);
    // Partially-arrived payload of the expired message is discarded: an
    // expired message is never delivered, not even its fragments.
    release_payload(s);
    s.filled = true;
    s.consumed = true;
    s.msg_word = 0;
  }
  max_index_ = std::max(max_index_, last + 1);
  // Any complete-but-undelivered message inside the sealed range dies with
  // it (the sender declared it expired before we handed it up).
  const auto overlaps = [&](const ReadyMsg& m) {
    return m.last >= first && m.first <= last;
  };
  std::erase_if(ready_, overlaps);
  std::erase_if(waiting_, overlaps);
  advance_contig();
  advance_frontier();
}

std::size_t RcvBuffer::register_user_buffer(std::span<std::uint8_t> buf) {
  user_buf_ = buf;
  user_filled_ = 0;
  drain_into_user_buffer();
  return user_filled_;
}

std::size_t RcvBuffer::release_user_buffer() {
  const std::size_t filled = user_filled_;
  user_buf_ = {};
  user_filled_ = 0;
  return filled;
}

}  // namespace udtr::udt
