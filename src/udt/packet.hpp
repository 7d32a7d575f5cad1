// UDT wire format (paper §3.1, §4.8 and the Appendix's NAK compression).
//
// Every packet starts with a 16-byte header of four 32-bit big-endian words.
// Data packet:
//   word0:  bit31 = 0 | 31-bit sequence number
//   word1:  message/boundary flags (unused in stream mode, kept for layout)
//   word2:  timestamp (us since connection start)
//   word3:  destination socket id
// Control packet:
//   word0:  bit31 = 1 | 15-bit type | 16-bit reserved
//   word1:  additional info (ACK id for ACK/ACK2)
//   word2:  timestamp
//   word3:  destination socket id
//   payload: type-specific array of 32-bit words.
//
// The NAK payload uses the Appendix encoding: a sequence number with bit 31
// set opens a range that the following word closes; a clear bit 31 reports a
// single loss.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "common/seqno.hpp"

namespace udtr::udt {

inline constexpr std::size_t kHeaderBytes = 16;
// Cap on loss ranges per NAK: keeps the packet inside one datagram on the
// way out and bounds what a corrupt or hostile NAK can make the sender do
// on the way in.
inline constexpr std::size_t kMaxNakRanges = 128;

enum class CtrlType : std::uint16_t {
  kHandshake = 0,
  kKeepAlive = 1,
  kAck = 2,
  kNak = 3,
  // Receiver-side PCT/PDT delay-trend congestion warning (§6): sent by a
  // receiver running with SocketOptions::delay_warnings, delivered to the
  // data sender's congestion controller as on_delay_warning().  No payload.
  kDelayWarn = 4,
  kShutdown = 5,
  kAck2 = 6,
  // Partial reliability (message mode): the sender gave up on a TTL-expired
  // message; the payload carries the message's inclusive sequence range so
  // the receiver can seal the hole instead of NAKing it forever.  The 29-bit
  // message number rides in the header's info word.
  kMsgDrop = 7,
};

// --- message-boundary word (data-header word1) ------------------------------
//
// Real UDT's m_nHeader[1]: bits 31..30 = ff boundary flags (11 solo,
// 10 first, 01 last, 00 middle), bit 29 = o (deliver in order), bits 28..0 =
// message number.  Stream-mode packets keep the whole word zero — message
// number 0 is reserved as the stream sentinel, so the stream wire format is
// byte-for-byte what it always was.
inline constexpr std::uint32_t kMsgNoMask = 0x1FFFFFFFU;
inline constexpr std::uint32_t kMsgInOrderBit = 0x20000000U;

enum class MsgBoundary : std::uint32_t {
  kMiddle = 0,
  kLast = 1,
  kFirst = 2,
  kSolo = 3,
};

[[nodiscard]] inline std::uint32_t make_msg_word(MsgBoundary b, bool in_order,
                                                 std::uint32_t msg_no) {
  return (static_cast<std::uint32_t>(b) << 30) |
         (in_order ? kMsgInOrderBit : 0U) | (msg_no & kMsgNoMask);
}
[[nodiscard]] inline MsgBoundary msg_boundary(std::uint32_t word) {
  return static_cast<MsgBoundary>(word >> 30);
}
[[nodiscard]] inline bool msg_in_order(std::uint32_t word) {
  return (word & kMsgInOrderBit) != 0;
}
[[nodiscard]] inline std::uint32_t msg_number(std::uint32_t word) {
  return word & kMsgNoMask;
}

// Host/network conversion helpers (UDT is big-endian on the wire).
[[nodiscard]] inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

struct DataHeader {
  udtr::SeqNo seq;
  std::uint32_t msg_word = 0;  // word1; 0 = stream-mode packet
  std::uint32_t timestamp_us = 0;
  std::uint32_t dst_socket = 0;
};

struct CtrlHeader {
  CtrlType type = CtrlType::kKeepAlive;
  std::uint32_t info = 0;  // ACK id, etc.
  std::uint32_t timestamp_us = 0;
  std::uint32_t dst_socket = 0;
};

// ACK control payload (7 words, mirrors UDT's "full" ACK).
struct AckPayload {
  udtr::SeqNo ack_seq;            // all packets before this were received
  std::uint32_t rtt_us = 0;
  std::uint32_t rtt_var_us = 0;
  std::uint32_t avail_buffer_pkts = 0;  // flow-control feedback
  std::uint32_t recv_rate_pps = 0;      // arrival speed (median filtered)
  std::uint32_t capacity_pps = 0;       // RBPP link capacity
  static constexpr std::size_t kWords = 6;
};

// Handshake request_type values.  The listener answers the first
// (cookie-less) request with a kHsChallenge carrying a signed cookie; the
// client echoes it in a second kHsRequest and only then does the listener
// allocate state.
inline constexpr std::uint32_t kHsResponse = 0;
inline constexpr std::uint32_t kHsRequest = 1;
inline constexpr std::uint32_t kHsChallenge = 2;

// Handshake payload.  The minimal form is 7 words; we append a 64-bit
// SYN-cookie (two words, big-endian, high word first).  Decoders validate
// and accept both lengths: a payload shorter than kWordsWithCookie yields
// cookie == 0, which the listener always answers with a challenge.
struct HandshakePayload {
  std::uint32_t version = 4;
  std::uint32_t initial_seq = 0;
  std::uint32_t mss_bytes = 1500;
  std::uint32_t flight_window = 25600;
  std::uint32_t request_type = kHsRequest;
  std::uint32_t socket_id = 0;
  std::uint32_t port = 0;      // redirect port in responses
  std::uint64_t cookie = 0;    // stateless-handshake cookie (0 = none)
  static constexpr std::size_t kWords = 7;            // minimum accepted
  static constexpr std::size_t kWordsWithCookie = 9;  // what we emit
};

[[nodiscard]] inline bool is_control(std::span<const std::uint8_t> pkt) {
  return pkt.size() >= kHeaderBytes && (pkt[0] & 0x80U) != 0;
}

[[nodiscard]] inline bool is_data(std::span<const std::uint8_t> pkt) {
  return pkt.size() >= kHeaderBytes && (pkt[0] & 0x80U) == 0;
}

// Calls `fn` once per logical datagram inside a possibly-GRO-coalesced
// receive buffer, decoding segment boundaries in place (no copy): the
// kernel's coalescing rule is that every segment spans `seg_size` bytes
// except the last, which may be shorter.  `seg_size` == 0 means the buffer
// was not coalesced and is a single datagram.
template <typename Fn>
inline void for_each_datagram(std::span<const std::uint8_t> buf,
                              std::size_t seg_size, Fn&& fn) {
  if (seg_size == 0 || seg_size >= buf.size()) {
    fn(buf);
    return;
  }
  for (std::size_t off = 0; off < buf.size(); off += seg_size) {
    fn(buf.subspan(off, std::min(seg_size, buf.size() - off)));
  }
}

[[nodiscard]] inline bool is_known_ctrl_type(std::uint16_t raw) {
  switch (static_cast<CtrlType>(raw)) {
    case CtrlType::kHandshake:
    case CtrlType::kKeepAlive:
    case CtrlType::kAck:
    case CtrlType::kNak:
    case CtrlType::kDelayWarn:
    case CtrlType::kShutdown:
    case CtrlType::kAck2:
    case CtrlType::kMsgDrop:
      return true;
  }
  return false;
}

// --- data packets -----------------------------------------------------------

inline void write_data_header(std::span<std::uint8_t> buf,
                              const DataHeader& h) {
  store_be32(buf.data(), static_cast<std::uint32_t>(h.seq.value()));
  store_be32(buf.data() + 4, h.msg_word);
  store_be32(buf.data() + 8, h.timestamp_us);
  store_be32(buf.data() + 12, h.dst_socket);
}

[[nodiscard]] inline DataHeader read_data_header(
    std::span<const std::uint8_t> buf) {
  DataHeader h;
  h.seq = udtr::SeqNo{static_cast<std::int32_t>(load_be32(buf.data()))};
  h.msg_word = load_be32(buf.data() + 4);
  h.timestamp_us = load_be32(buf.data() + 8);
  h.dst_socket = load_be32(buf.data() + 12);
  return h;
}

// --- control packets --------------------------------------------------------

inline void write_ctrl_header(std::span<std::uint8_t> buf,
                              const CtrlHeader& h) {
  const auto word0 = 0x80000000U |
                     (static_cast<std::uint32_t>(h.type) << 16);
  store_be32(buf.data(), word0);
  store_be32(buf.data() + 4, h.info);
  store_be32(buf.data() + 8, h.timestamp_us);
  store_be32(buf.data() + 12, h.dst_socket);
}

[[nodiscard]] inline CtrlHeader read_ctrl_header(
    std::span<const std::uint8_t> buf) {
  CtrlHeader h;
  h.type = static_cast<CtrlType>((load_be32(buf.data()) >> 16) & 0x7FFFU);
  h.info = load_be32(buf.data() + 4);
  h.timestamp_us = load_be32(buf.data() + 8);
  h.dst_socket = load_be32(buf.data() + 12);
  return h;
}

inline std::size_t write_words(std::span<std::uint8_t> buf,
                               std::span<const std::uint32_t> words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    store_be32(buf.data() + 4 * i, words[i]);
  }
  return 4 * words.size();
}

// --- NAK loss-list compression (Appendix) -----------------------------------

// Encodes inclusive loss ranges; a range [a, b] with a != b becomes two
// words (a | bit31, b); a single loss becomes one word.
[[nodiscard]] std::vector<std::uint32_t> encode_loss_ranges(
    std::span<const std::pair<udtr::SeqNo, udtr::SeqNo>> ranges);

// Decodes a NAK payload back into inclusive ranges.  Malformed trailing
// range-opens are ignored; at most `max_ranges` are returned so an
// oversized payload cannot amplify into unbounded sender-side work.
[[nodiscard]] std::vector<std::pair<udtr::SeqNo, udtr::SeqNo>>
decode_loss_ranges(std::span<const std::uint32_t> words,
                   std::size_t max_ranges = SIZE_MAX);

// --- validated decode layer -------------------------------------------------
//
// The read_* helpers above assume a well-formed buffer and are kept for the
// hot paths that already verified the size.  Everything that touches bytes
// straight off the wire goes through these instead: they bounds-check first
// and return nullopt for anything short, truncated, or of unknown type, so
// a corrupt datagram dies at the decode boundary instead of deeper in the
// protocol state machine.

[[nodiscard]] std::optional<DataHeader> decode_data_header(
    std::span<const std::uint8_t> pkt);

// Rejects short buffers, data packets, and unknown control types.
[[nodiscard]] std::optional<CtrlHeader> decode_ctrl_header(
    std::span<const std::uint8_t> pkt);

// `payload` is the bytes after the 16-byte header.
[[nodiscard]] std::optional<AckPayload> decode_ack_payload(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<HandshakePayload> decode_handshake_payload(
    std::span<const std::uint8_t> payload);

// Decodes a whole NAK payload (bytes after the header) into ranges, capped
// at kMaxNakRanges.  A payload that is not a multiple of 4 bytes is carrying
// garbage; the trailing fragment is ignored.
[[nodiscard]] std::vector<std::pair<udtr::SeqNo, udtr::SeqNo>>
decode_nak_payload(std::span<const std::uint8_t> payload);

// kMsgDrop payload: the dropped message's inclusive sequence range, always
// the NAK encoding's explicit two-word form (first | bit31, last) even when
// first == last.  The decoder rejects short payloads, a missing range-open
// bit, and ranges inverted in circular order.
struct MsgDropPayload {
  udtr::SeqNo first;
  udtr::SeqNo last;
  static constexpr std::size_t kWords = 2;
};

std::size_t encode_msg_drop_payload(std::span<std::uint8_t> out,
                                    const MsgDropPayload& drop);
[[nodiscard]] std::optional<MsgDropPayload> decode_msg_drop_payload(
    std::span<const std::uint8_t> payload);

std::size_t encode_ack_payload(std::span<std::uint8_t> out,
                               const AckPayload& ack);
std::size_t encode_handshake_payload(std::span<std::uint8_t> out,
                                     const HandshakePayload& hs);

}  // namespace udtr::udt
