// Length-prefixed framing for the TCP transport: the thin shell that
// carries the wire-v8 messages (db/wire.h) over a byte stream. A frame
// is a fixed 12-byte header followed by the payload:
//
//   offset  size  field
//        0     4  magic   'S' 'J' 'N' '1'   (stream desync detector)
//        4     1  version kFrameVersion (the framing layer's own version;
//                         the payload carries the db wire version inside)
//        5     1  type    FrameType
//        6     2  flags   reserved, must be zero
//        8     4  length  payload bytes, little-endian, <= the reader's cap
//
// The framing layer is deliberately dumb: it never looks inside the
// payload (the db wire codecs own that), so the crypto engine stays
// transport-agnostic. Robustness contract (asserted by tests/net_test.cc):
//
//  - FrameReader tolerates ARBITRARY read fragmentation: bytes may arrive
//    one at a time or in multi-frame gulps; the decoded frame sequence is
//    byte-identical either way.
//  - A malformed header (bad magic, unknown version, nonzero flags,
//    unknown type, length above the cap) poisons the reader -- once the
//    stream framing is untrusted, everything after it is too. The owner
//    tears down the CONNECTION, never the server.
//  - A truncated stream is not an error, just an incomplete frame
//    (AtBoundary() = false); TCP cannot distinguish "more is coming"
//    from "peer died mid-frame" until the socket closes.
#ifndef SJOIN_NET_FRAME_H_
#define SJOIN_NET_FRAME_H_

#include <array>
#include <cstdint>
#include <deque>

#include "util/hex.h"
#include "util/status.h"

namespace sjoin {

constexpr std::array<uint8_t, 4> kFrameMagic = {'S', 'J', 'N', '1'};
constexpr uint8_t kFrameVersion = 1;
constexpr size_t kFrameHeaderSize = 12;

/// Hard cap on one frame's payload. A length prefix is attacker-chosen
/// bytes until proven otherwise; without a cap a single 4 GiB prefix
/// makes the server allocate 4 GiB before reading a single payload byte.
constexpr size_t kDefaultMaxFrameBytes = size_t{64} << 20;  // 64 MiB

/// What the payload is. Request types are client -> server; response
/// types come back on the same connection in request order (the
/// connection's session executes FIFO). kPing/kPong and kHello sit
/// outside that request/response pipeline.
enum class FrameType : uint8_t {
  kHello = 1,         // server -> client on accept: session binding
  kQuerySeries = 2,   // payload: SerializeQuerySeries
  // 3 is retired (a second series request); it is well-framed but, like
  // any response type sent to the server, answered as "not a request".
  kMutation = 4,      // payload: SerializeTableMutation
  kSeriesResult = 5,  // payload: SerializeSeriesResult
  kMutationResult = 6,  // payload: SerializeMutationResult
  kError = 7,         // payload: EncodeErrorPayload (status code + message)
  kPing = 8,          // liveness probe; server echoes the payload back
  kPong = 9,
  // Distributed-execution requests (coordinator -> worker; payloads in
  // db/wire.h "Distributed-execution messages"). A server
  // without a shard handler (TcpServerOptions::shard_handler) answers
  // them with the same "not a request" error as any unknown type.
  kShardAssign = 10,    // payload: SerializeShardAssignment
  kShardDecrypt = 11,   // payload: SerializeShardDecryptRequest
  kShardMutation = 12,  // payload: SerializeShardMutation
  kWorkerHealth = 13,   // empty payload: health/inventory probe
  // ... and their responses (worker -> coordinator, request order).
  kShardAck = 14,            // payload: SerializeShardAck
  kShardDigests = 15,        // payload: SerializeShardDecryptResponse
  kWorkerHealthResult = 16,  // payload: SerializeWorkerHealthInfo
};
constexpr uint8_t kMaxFrameType = 16;

struct Frame {
  FrameType type = FrameType::kError;
  Bytes payload;
  bool operator==(const Frame&) const = default;
};

/// Header + payload, ready for the socket.
Bytes EncodeFrame(FrameType type, const Bytes& payload);

/// kError payload codec: the Status a request failed with, so transport
/// peers see the same error surface as in-process callers.
Bytes EncodeErrorPayload(const Status& status);
/// Always returns a non-OK Status: the decoded error, or (for a payload
/// that does not even parse) an InvalidArgument describing that.
Status DecodeErrorPayload(const Bytes& payload);

/// Incremental frame decoder. Feed() accepts arbitrary fragments; Next()
/// pops completed frames in stream order. Payload bytes are written
/// straight into the frame under construction (no quadratic re-buffering
/// for large frames).
class FrameReader {
 public:
  explicit FrameReader(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Consumes `len` bytes of stream. On a malformed header the reader is
  /// poisoned: the error is returned (and sticky -- every later Feed
  /// returns it) and no further frames are produced; frames completed
  /// BEFORE the bad header remain poppable.
  Status Feed(const uint8_t* data, size_t len);
  Status Feed(const Bytes& b) { return Feed(b.data(), b.size()); }

  bool HasFrame() const { return !complete_.empty(); }
  /// Pops the oldest completed frame; HasFrame() must be true.
  Frame Next();

  /// True when the stream so far ends exactly on a frame boundary -- the
  /// EOF-side truncation check: a peer that closed mid-frame leaves the
  /// reader off-boundary.
  bool AtBoundary() const { return header_fill_ == 0 && !error_; }
  bool poisoned() const { return error_; }
  /// Bytes of the partially received frame (header + payload so far).
  size_t partial_bytes() const { return header_fill_ + payload_fill_; }

 private:
  size_t max_frame_bytes_;  // non-const: keeps FrameReader move-assignable
  std::deque<Frame> complete_;

  std::array<uint8_t, kFrameHeaderSize> header_{};
  size_t header_fill_ = 0;
  Frame building_;
  size_t payload_fill_ = 0;
  size_t payload_size_ = 0;
  bool in_payload_ = false;
  bool error_ = false;
  Status error_status_;
};

}  // namespace sjoin

#endif  // SJOIN_NET_FRAME_H_
