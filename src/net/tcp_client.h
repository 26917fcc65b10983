// Blocking TCP client for the framed transport: connects, learns its
// server-assigned session id from the kHello frame, and exchanges framed
// wire messages request/response. One TcpClient = one connection = one
// server session; open several clients for concurrent sessions (the load
// generator in bench/bench_net_throughput.cc does exactly that).
//
// The high-level calls (ExecuteSeries / ApplyMutation / Ping) send one
// request and block for its response -- the server answers a
// connection's requests in order, so no correlation ids are needed. The
// low-level SendFrame / ReadFrame / SendRaw surface exists for
// pipelining and for the fault-injection tests (torn writes, garbage
// bytes) in tests/net_test.cc.
#ifndef SJOIN_NET_TCP_CLIENT_H_
#define SJOIN_NET_TCP_CLIENT_H_

#include <cstdint>
#include <string>

#include "db/encrypted_table.h"
#include "db/session.h"
#include "db/table_store.h"
#include "net/frame.h"
#include "net/socket.h"

namespace sjoin {

struct TcpClientOptions {
  int connect_timeout_ms = 5000;
  /// Per-call budget for one whole request/response exchange. Series
  /// execution includes pairing work server-side; size generously.
  int io_timeout_ms = 60000;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class TcpClient {
 public:
  /// Connects and consumes the server's kHello (session binding).
  static Result<TcpClient> Connect(const std::string& host, uint16_t port,
                                   TcpClientOptions opts = {});

  TcpClient(TcpClient&&) = default;
  TcpClient& operator=(TcpClient&&) = default;

  /// The server-assigned session this connection executes under. The
  /// server runs every request of this connection under it; the
  /// serialized messages carry no session id.
  SessionId session_id() const { return session_; }
  bool connected() const { return fd_.valid(); }
  void Close() { fd_.Reset(); }

  // --- One-shot request/response ------------------------------------------

  /// Round-trips one series through the networked engine. A kError
  /// response decodes back into the Status the in-process caller would
  /// have seen.
  Result<EncryptedSeriesResult> ExecuteSeries(const QuerySeriesTokens& series);
  Result<MutationResult> ApplyMutation(const TableMutation& mutation);
  /// Liveness probe: the payload echoes back.
  Status Ping();

  // --- Low-level surface (pipelining, fault injection) ---------------------

  Status SendFrame(FrameType type, const Bytes& payload);
  /// Blocks for the next frame (any type) within io_timeout_ms.
  Result<Frame> ReadFrame();
  /// Writes raw bytes with no framing -- the torn-write / garbage tool.
  Status SendRaw(const uint8_t* data, size_t len);

 private:
  TcpClient(UniqueFd fd, TcpClientOptions opts)
      : fd_(std::move(fd)), opts_(opts), reader_(opts.max_frame_bytes) {}

  /// SendFrame + ReadFrame + "is it the expected response type" in one
  /// step; a kError frame decodes into its carried Status.
  Result<Bytes> RoundTrip(FrameType req, const Bytes& payload,
                          FrameType expected);

  UniqueFd fd_;
  TcpClientOptions opts_;
  SessionId session_ = 0;
  FrameReader reader_;
};

}  // namespace sjoin

#endif  // SJOIN_NET_TCP_CLIENT_H_
