// The networked front-end of the encrypted-join engine: a poll()-based
// event loop accepting TCP connections, decoding framed wire messages
// (net/frame.h over db/wire.h), and feeding them to an EncryptedServer
// through its async Submit layer. The crypto engine stays transport-
// agnostic -- this file never touches a ciphertext, only bytes.
//
// Connection <-> session binding: every accepted connection opens its own
// SessionManager session (announced to the peer in a kHello frame) and
// every request on the connection executes under that session id -- the
// wire messages carry none, so a connection can never submit under
// another client's session. The binding buys the scheduler's guarantees
// per connection: FIFO execution of one connection's requests (responses
// therefore come back in request order), round-robin fairness across
// connections, admission control per connection. Closing the connection
// closes the session.
//
// Robustness contract (asserted by tests/net_test.cc, label "net"):
//  - Slow/partial writes: responses go into a per-connection outbound
//    queue flushed as POLLOUT allows; a response is never dropped because
//    the socket buffer was full.
//  - A malformed frame (bad magic/version/flags/type, oversized length
//    prefix) poisons only ITS connection: a best-effort error frame is
//    queued, the connection drains and closes, every other connection
//    keeps executing.
//  - A peer that disconnects mid-series loses its responses (dropped on
//    completion), its session is closed, and queued requests drain
//    harmlessly inside the scheduler.
//  - A stalled peer (never reads; outbound queue grows past
//    max_outbound_bytes, or no write progress for write_stall_timeout_ms)
//    is disconnected instead of holding response memory hostage.
//  - Idle connections (no traffic, nothing in flight) close after
//    idle_timeout_ms -- the half-open-socket reclaim path.
//  - Stop() is graceful: accepting stops, in-flight series drain, flushed
//    responses reach peers that read them, then connections close.
#ifndef SJOIN_NET_TCP_SERVER_H_
#define SJOIN_NET_TCP_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/server.h"
#include "net/frame.h"
#include "net/socket.h"

namespace sjoin {

/// Handler for the distributed-execution request frames (kShardAssign,
/// kShardDecrypt, kShardMutation, kWorkerHealth -- the coordinator ->
/// worker vocabulary of src/dist). A TcpServer with no handler answers
/// these types with the same "not a request" error as any unknown type,
/// so a plain query server cannot be abused as a shard holder.
///
/// Threading contract: Handle() is called on the event-loop thread and
/// must not block it -- hand heavy work (pairings) to a pool and return.
/// `respond` must be invoked EXACTLY once, from any thread, with either
/// the response frame (type + payload) or the Status the request failed
/// with; the transport slots it into the connection's request-order
/// pipeline. The handler must outlive the TcpServer's Stop().
class ShardFrameHandler {
 public:
  virtual ~ShardFrameHandler() = default;
  using Respond = std::function<void(Result<Frame>)>;
  virtual void Handle(FrameType request, Bytes payload, Respond respond) = 0;
};

struct TcpServerOptions {
  /// IPv4 address to bind (numeric; loopback by default -- exposing an
  /// encrypted-data server beyond localhost is a deployment decision).
  std::string bind_address = "127.0.0.1";
  /// 0: kernel-assigned ephemeral port; read it back with port().
  uint16_t port = 0;
  int backlog = 128;
  /// Connections above this are accepted and immediately closed (shed
  /// load at the door instead of starving accepted peers).
  size_t max_connections = 1024;
  /// Framing cap (net/frame.h): a length prefix above this poisons the
  /// connection before any allocation happens.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-connection outbound queue cap: a peer that stops reading while
  /// responses accumulate past this is disconnected.
  size_t max_outbound_bytes = kDefaultMaxFrameBytes;
  /// No inbound bytes, nothing in flight, nothing to write for this long:
  /// the connection is presumed dead/half-open and closed. <= 0 disables.
  int idle_timeout_ms = 60000;
  /// Outbound data pending without a single byte of write progress for
  /// this long: the peer is stalled (or gone without RST); disconnect.
  /// <= 0 disables.
  int write_stall_timeout_ms = 10000;
  /// Stop() waits this long for in-flight requests to finish and outbound
  /// queues to flush before force-closing.
  int drain_timeout_ms = 10000;
  /// Execution options applied to every request this transport admits
  /// (thread count, cache budget, shard default, backend policy...).
  ServerExecOptions exec;
  /// Not owned; must outlive the server. Installed by ShardWorker
  /// (src/dist) to answer the distributed-execution request frames;
  /// nullptr leaves those frames on the "not a request" error path.
  ShardFrameHandler* shard_handler = nullptr;
};

class TcpServer {
 public:
  /// `engine` is not owned and must outlive this transport. Several
  /// TcpServers may front one engine (each connection still gets a unique
  /// session).
  TcpServer(EncryptedServer* engine, TcpServerOptions opts);
  ~TcpServer();  // Stop()

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the event-loop thread. Fails (without a
  /// thread) if the address is unusable.
  Status Start();
  /// The bound port (after Start; the answer to options.port = 0).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }

  /// Graceful shutdown: stop accepting, let in-flight requests complete
  /// and outbound responses flush (up to drain_timeout_ms), close every
  /// connection and its session, join the loop thread. Idempotent. Does
  /// NOT shut down the engine's scheduler -- stop transports first, then
  /// EncryptedServer::Shutdown().
  void Stop();

  /// Live per-connection accounting, surfaced alongside the engine's
  /// SeriesExecStats (which ride inside each response payload).
  struct ConnectionStats {
    uint64_t id = 0;
    SessionId session = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t frames_in = 0;
    uint64_t frames_out = 0;
    uint64_t requests_ok = 0;     // responses carrying a result
    uint64_t requests_error = 0;  // responses carrying a kError frame
    size_t outbound_queued_bytes = 0;
    int in_flight = 0;
  };
  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected_at_capacity = 0;
    uint64_t closed = 0;
    uint64_t malformed_frames = 0;  // poisoned connections (framing layer)
    uint64_t idle_closed = 0;
    uint64_t stalled_closed = 0;
    uint64_t requests_ok = 0;
    uint64_t requests_error = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    size_t active_connections = 0;
  };
  Stats stats() const;
  std::vector<ConnectionStats> connection_stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Everything one connection owns. The event loop is the only reader of
  /// the socket; `mu` guards the response side (outbound queue + reorder
  /// buffer), which scheduler pool threads complete into.
  struct Conn {
    uint64_t id = 0;
    UniqueFd fd;
    SessionId session = 0;
    FrameReader reader;

    std::mutex mu;
    std::deque<Bytes> outbound;  // framed responses, FIFO
    size_t outbound_head_off = 0;  // partial-write offset into front()
    size_t outbound_bytes = 0;
    /// Request-order response pipeline: request k's response may complete
    /// out of order (admission failures complete inline); it is held here
    /// until responses 0..k-1 went out.
    std::map<uint64_t, Bytes> ready;
    uint64_t next_seq = 0;       // next request sequence to assign
    uint64_t next_send_seq = 0;  // next response sequence to release
    int in_flight = 0;
    bool close_after_flush = false;  // poisoned/draining: no more reads
    bool gone = false;  // unregistered; late completions must drop

    Clock::time_point last_read;
    Clock::time_point last_write_progress;

    uint64_t bytes_in = 0, bytes_out = 0;
    uint64_t frames_in = 0, frames_out = 0;
    uint64_t requests_ok = 0, requests_error = 0;

    Conn(size_t max_frame_bytes) : reader(max_frame_bytes) {}
  };

  void Loop();
  void AcceptPending();
  /// Reads until EAGAIN/EOF; decodes and dispatches complete frames.
  /// Returns false when the connection must be closed now (EOF/error).
  bool HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Flushes the outbound queue until EAGAIN; false on a dead socket.
  bool HandleWritable(const std::shared_ptr<Conn>& conn);
  /// Answers one decoded frame through the request-order pipeline: a
  /// ping, a series or mutation, a shard request, or a "not a request"
  /// error all take the next response slot.
  void HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame);
  /// Assigns the connection's next response slot and counts the request
  /// as in flight until CompleteRequest fills that slot.
  uint64_t BeginRequest(const std::shared_ptr<Conn>& conn);
  /// Submits a decoded series or mutation into the engine; the completion
  /// callback re-enters via CompleteRequest on a pool thread.
  void DispatchRequest(const std::shared_ptr<Conn>& conn, uint64_t seq,
                       FrameType type, Bytes payload);
  /// Thread-safe response delivery: frames the response (or an error
  /// frame), slots it into the connection's request-order pipeline and
  /// wakes the loop. Dropped silently if the connection is gone.
  void CompleteRequest(uint64_t conn_id, uint64_t seq,
                       Result<Frame> response);
  /// Queues the hello frame, which precedes every response.
  void QueueFrame(const std::shared_ptr<Conn>& conn, FrameType type,
                  const Bytes& payload);
  /// Moves in-order ready responses into the outbound queue. Caller holds
  /// conn->mu.
  void ReleaseReadyLocked(Conn* conn);
  /// Closes + unregisters: session closed, late completions drop.
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void Wake();

  EncryptedServer* const engine_;
  const TcpServerOptions opts_;
  UniqueFd listen_fd_;
  UniqueFd wake_rd_, wake_wr_;
  uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex conns_mu_;  // registry; per-conn state uses Conn::mu
  std::map<uint64_t, std::shared_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;

  /// Requests handed to the engine whose completion callback has not
  /// fired yet. Stop() must outwait them: a callback re-enters
  /// CompleteRequest on a pool thread, so destroying the transport before
  /// the count hits zero would be a use-after-free.
  std::mutex outstanding_mu_;
  std::condition_variable outstanding_cv_;
  int outstanding_ = 0;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace sjoin

#endif  // SJOIN_NET_TCP_SERVER_H_
