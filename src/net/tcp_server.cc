#include "net/tcp_server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "db/wire.h"

namespace sjoin {

namespace {

/// Largest read per recv() call; the reader accepts any fragmentation, so
/// this is purely a syscall-batching knob.
constexpr size_t kReadChunk = 64 * 1024;

Bytes HelloPayload(SessionId session) {
  WireWriter w;
  w.U8(kFrameVersion);
  w.U64(session);
  return w.Take();
}

Bytes ErrorFrame(const Status& status) {
  return EncodeFrame(FrameType::kError, EncodeErrorPayload(status));
}

/// The response of a finished engine request: its serialized result, or
/// the status it failed with.
template <typename T>
Result<Frame> ResponseFrame(FrameType type, const Result<T>& r,
                            Bytes (*serialize)(const T&)) {
  if (!r.ok()) return r.status();
  return Frame{type, serialize(*r)};
}

}  // namespace

TcpServer::TcpServer(EncryptedServer* engine, TcpServerOptions opts)
    : engine_(engine), opts_(std::move(opts)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  auto listener = ListenTcp(opts_.bind_address, opts_.port, opts_.backlog);
  SJOIN_RETURN_IF_ERROR(listener.status());
  auto port = LocalPort(listener->get());
  SJOIN_RETURN_IF_ERROR(port.status());
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::Internal("pipe2 failed");
  }
  listen_fd_ = std::move(*listener);
  wake_rd_ = UniqueFd(pipe_fds[0]);
  wake_wr_ = UniqueFd(pipe_fds[1]);
  port_ = *port;
  stopping_.store(false);
  running_.store(true);
  loop_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (loop_.joinable()) {
    stopping_.store(true);
    Wake();
    loop_.join();
  }
  // The loop is gone, but completion callbacks of force-closed connections
  // may still be running on scheduler pool threads and re-enter
  // CompleteRequest. They always fire (the engine resolves every admitted
  // request, and admission failures complete inline), so this wait is
  // bounded by the engine's drain, not by a peer's behavior.
  {
    std::unique_lock<std::mutex> lock(outstanding_mu_);
    outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }
  std::map<uint64_t, std::shared_ptr<Conn>> leftover;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    leftover.swap(conns_);
  }
  for (auto& [id, conn] : leftover) {
    (void)id;
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->gone = true;
    conn->fd.Reset();
    (void)engine_->CloseSession(conn->session);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.closed += leftover.size();
  }
  running_.store(false);
  listen_fd_.Reset();
  wake_rd_.Reset();
  wake_wr_.Reset();
}

void TcpServer::Wake() {
  if (!wake_wr_.valid()) return;
  uint8_t b = 1;
  // Nonblocking: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_wr_.get(), &b, 1);
}

void TcpServer::Loop() {
  bool drain_started = false;
  Clock::time_point drain_deadline{};
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Conn>> polled;

  for (;;) {
    const bool stopping = stopping_.load();
    if (stopping && !drain_started) {
      drain_started = true;
      drain_deadline = Clock::now() +
                       std::chrono::milliseconds(
                           std::max(0, opts_.drain_timeout_ms));
      listen_fd_.Reset();  // no new peers during drain
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& [id, conn] : conns_) {
        (void)id;
        std::lock_guard<std::mutex> cl(conn->mu);
        conn->close_after_flush = true;  // stop reading, flush what's left
      }
    }

    // --- Build the poll set -------------------------------------------------
    pfds.clear();
    polled.clear();
    size_t conn_count;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn_count = conns_.size();
      for (auto& [id, conn] : conns_) {
        (void)id;
        short events = 0;
        {
          std::lock_guard<std::mutex> cl(conn->mu);
          if (!conn->close_after_flush) events |= POLLIN;
          if (!conn->outbound.empty()) events |= POLLOUT;
        }
        pfds.push_back(pollfd{conn->fd.get(), events, 0});
        polled.push_back(conn);
      }
    }
    if (stopping && conn_count == 0) return;  // drained: shutdown complete
    size_t fixed = pfds.size();
    pfds.push_back(pollfd{wake_rd_.get(), POLLIN, 0});
    if (!stopping && listen_fd_.valid()) {
      pfds.push_back(pollfd{listen_fd_.get(), POLLIN, 0});
    }

    // --- Poll timeout: the nearest deadline we are responsible for ----------
    int timeout_ms = -1;
    auto consider = [&timeout_ms](Clock::time_point now,
                                  Clock::time_point deadline) {
      auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now)
                    .count();
      int v = ms <= 0 ? 0 : static_cast<int>(std::min<long long>(ms, 60000));
      if (timeout_ms < 0 || v < timeout_ms) timeout_ms = v;
    };
    Clock::time_point now = Clock::now();
    if (drain_started) consider(now, drain_deadline);
    for (const auto& conn : polled) {
      std::lock_guard<std::mutex> cl(conn->mu);
      if (opts_.idle_timeout_ms > 0 && conn->in_flight == 0 &&
          conn->outbound.empty() && !conn->close_after_flush) {
        consider(now, conn->last_read +
                          std::chrono::milliseconds(opts_.idle_timeout_ms));
      }
      if (opts_.write_stall_timeout_ms > 0 && !conn->outbound.empty()) {
        consider(now, conn->last_write_progress +
                          std::chrono::milliseconds(
                              opts_.write_stall_timeout_ms));
      }
      // A draining connection with nothing left to flush closes on the
      // very next pass -- without this, Stop() on a server with idle
      // connections blocks in poll() for the whole drain budget.
      if (conn->close_after_flush && conn->outbound.empty() &&
          conn->ready.empty() && conn->in_flight == 0) {
        consider(now, now);
      }
      // A connection waiting only for in-flight work needs no timeout:
      // CompleteRequest wakes the loop.
    }

    int pr = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (pr < 0 && errno != EINTR) return;  // poll itself failed: give up

    // Drain the wake pipe.
    if (pfds[fixed].revents & POLLIN) {
      uint8_t buf[256];
      while (::read(wake_rd_.get(), buf, sizeof(buf)) > 0) {
      }
    }

    // --- Per-connection I/O -------------------------------------------------
    now = Clock::now();
    std::vector<std::shared_ptr<Conn>> to_close;
    for (size_t i = 0; i < fixed; ++i) {
      const auto& conn = polled[i];
      short re = pfds[i].revents;
      bool alive = true;
      if (re & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (re & POLLIN)) alive = HandleReadable(conn);
      if (alive && (re & (POLLOUT | POLLHUP))) alive = HandleWritable(conn);
      if (!alive) {
        to_close.push_back(conn);
        continue;
      }
      // Deadline / queue-cap enforcement.
      std::lock_guard<std::mutex> cl(conn->mu);
      if (conn->outbound_bytes > opts_.max_outbound_bytes ||
          (opts_.write_stall_timeout_ms > 0 && !conn->outbound.empty() &&
           now - conn->last_write_progress >
               std::chrono::milliseconds(opts_.write_stall_timeout_ms))) {
        std::lock_guard<std::mutex> sl(stats_mu_);
        ++stats_.stalled_closed;
        to_close.push_back(conn);
        continue;
      }
      if (opts_.idle_timeout_ms > 0 && !conn->close_after_flush &&
          conn->in_flight == 0 && conn->outbound.empty() &&
          conn->ready.empty() &&
          now - conn->last_read >
              std::chrono::milliseconds(opts_.idle_timeout_ms)) {
        std::lock_guard<std::mutex> sl(stats_mu_);
        ++stats_.idle_closed;
        to_close.push_back(conn);
        continue;
      }
      if (conn->close_after_flush && conn->outbound.empty() &&
          conn->ready.empty() && conn->in_flight == 0) {
        to_close.push_back(conn);
      }
    }
    for (const auto& conn : to_close) CloseConn(conn);

    if (drain_started && now >= drain_deadline) {
      // Peers that neither read their responses nor disconnected within
      // the drain budget are force-closed.
      std::vector<std::shared_ptr<Conn>> all;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto& [id, conn] : conns_) {
          (void)id;
          all.push_back(conn);
        }
      }
      for (const auto& conn : all) CloseConn(conn);
      return;
    }

    if (!stopping && pfds.size() > fixed + 1 &&
        (pfds[fixed + 1].revents & POLLIN)) {
      AcceptPending();
    }
  }
}

void TcpServer::AcceptPending() {
  for (;;) {
    int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: back to the loop
    }
    UniqueFd ufd(fd);
    size_t active;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      active = conns_.size();
    }
    if (active >= opts_.max_connections) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected_at_capacity;
      continue;  // ufd closes: shed at the door
    }
    SetNoDelay(fd);
    auto conn = std::make_shared<Conn>(opts_.max_frame_bytes);
    conn->fd = std::move(ufd);
    conn->session = engine_->OpenSession();
    conn->last_read = conn->last_write_progress = Clock::now();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accepted;
    }
    QueueFrame(conn, FrameType::kHello, HelloPayload(conn->session));
  }
}

bool TcpServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  uint8_t buf[kReadChunk];
  for (;;) {
    auto io = ReadSome(conn->fd.get(), buf, sizeof(buf));
    if (!io.ok()) return false;
    if (io->eof) return false;
    if (io->would_block) return true;
    {
      std::lock_guard<std::mutex> cl(conn->mu);
      conn->bytes_in += io->n;
      conn->last_read = Clock::now();
    }
    {
      std::lock_guard<std::mutex> sl(stats_mu_);
      stats_.bytes_in += io->n;
    }
    Status fed = conn->reader.Feed(buf, io->n);
    // Completed frames first: everything decoded BEFORE the bad header is
    // still well-formed and gets served.
    while (conn->reader.HasFrame()) HandleFrame(conn, conn->reader.Next());
    if (!fed.ok()) {
      // Malformed framing: the stream is desynchronized, so nothing after
      // this point can be trusted. Tell the peer why (best effort), flush
      // what is pending, close the connection -- and only the connection.
      {
        std::lock_guard<std::mutex> sl(stats_mu_);
        ++stats_.malformed_frames;
      }
      std::lock_guard<std::mutex> cl(conn->mu);
      Bytes f = ErrorFrame(fed);
      if (conn->outbound.empty()) conn->last_write_progress = Clock::now();
      conn->outbound_bytes += f.size();
      conn->outbound.push_back(std::move(f));
      ++conn->frames_out;
      conn->close_after_flush = true;
      return true;
    }
  }
}

bool TcpServer::HandleWritable(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> cl(conn->mu);
  while (!conn->outbound.empty()) {
    Bytes& front = conn->outbound.front();
    auto io = WriteSome(conn->fd.get(), front.data() + conn->outbound_head_off,
                        front.size() - conn->outbound_head_off);
    if (!io.ok()) return false;
    if (io->would_block) break;
    conn->outbound_head_off += io->n;
    conn->bytes_out += io->n;
    {
      std::lock_guard<std::mutex> sl(stats_mu_);
      stats_.bytes_out += io->n;
    }
    if (io->n > 0) conn->last_write_progress = Clock::now();
    if (conn->outbound_head_off == front.size()) {
      conn->outbound_bytes -= front.size();
      conn->outbound.pop_front();
      conn->outbound_head_off = 0;
    }
  }
  return true;
}

void TcpServer::HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame) {
  {
    std::lock_guard<std::mutex> cl(conn->mu);
    ++conn->frames_in;
  }
  // Every frame takes the next response slot, so its answer -- a pong or
  // an error included -- leaves in request order.
  const uint64_t seq = BeginRequest(conn);
  const uint64_t conn_id = conn->id;
  switch (frame.type) {
    case FrameType::kPing:
      CompleteRequest(conn_id, seq,
                      Frame{FrameType::kPong, std::move(frame.payload)});
      return;
    case FrameType::kQuerySeries:
    case FrameType::kMutation:
      DispatchRequest(conn, seq, frame.type, std::move(frame.payload));
      return;
    case FrameType::kShardAssign:
    case FrameType::kShardDecrypt:
    case FrameType::kShardMutation:
    case FrameType::kWorkerHealth:
      // Distributed-execution requests go to the installed shard handler;
      // without one they drop through to the "not a request" error. The
      // handler responds from any thread (ShardWorker completes on the
      // shared pool).
      if (opts_.shard_handler != nullptr) {
        opts_.shard_handler->Handle(
            frame.type, std::move(frame.payload),
            [this, conn_id, seq](Result<Frame> r) {
              CompleteRequest(conn_id, seq, std::move(r));
            });
        return;
      }
      [[fallthrough]];
    default:
      // Well-framed but not a request the server answers (a client echoing
      // response types back, say). The frame boundary is intact, so the
      // connection survives; the peer gets an in-order error.
      CompleteRequest(conn_id, seq,
                      Status::InvalidArgument(
                          "frame type " +
                          std::to_string(static_cast<int>(frame.type)) +
                          " is not a request"));
      return;
  }
}

uint64_t TcpServer::BeginRequest(const std::shared_ptr<Conn>& conn) {
  uint64_t seq;
  {
    std::lock_guard<std::mutex> cl(conn->mu);
    seq = conn->next_seq++;
    ++conn->in_flight;
  }
  std::lock_guard<std::mutex> lock(outstanding_mu_);
  ++outstanding_;
  return seq;
}

void TcpServer::DispatchRequest(const std::shared_ptr<Conn>& conn,
                                uint64_t seq, FrameType type, Bytes payload) {
  const uint64_t conn_id = conn->id;
  if (type == FrameType::kMutation) {
    auto mutation = DeserializeTableMutation(payload);
    if (!mutation.ok()) {
      return CompleteRequest(conn_id, seq, mutation.status());
    }
    // Requests execute -- and are admission-controlled -- under the
    // session this connection opened at accept time; the wire carries none.
    mutation->session_id = conn->session;
    engine_->SubmitMutationAsync(
        std::move(*mutation), [this, conn_id, seq](Result<MutationResult> r) {
          CompleteRequest(conn_id, seq,
                          ResponseFrame(FrameType::kMutationResult, r,
                                        SerializeMutationResult));
        });
    return;
  }

  auto series = DeserializeQuerySeries(payload);
  if (!series.ok()) return CompleteRequest(conn_id, seq, series.status());
  series->session_id = conn->session;
  engine_->SubmitJoinSeriesAsync(
      std::move(*series), opts_.exec,
      [this, conn_id, seq](Result<EncryptedSeriesResult> r) {
        CompleteRequest(conn_id, seq,
                        ResponseFrame(FrameType::kSeriesResult, r,
                                      SerializeSeriesResult));
      });
}

void TcpServer::CompleteRequest(uint64_t conn_id, uint64_t seq,
                                Result<Frame> response) {
  const bool is_error = !response.ok();
  Bytes framed = is_error ? ErrorFrame(response.status())
                          : EncodeFrame(response->type, response->payload);
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(conn_id);
    if (it != conns_.end()) conn = it->second;
  }
  if (conn) {
    std::lock_guard<std::mutex> cl(conn->mu);
    --conn->in_flight;
    if (!conn->gone) {
      is_error ? ++conn->requests_error : ++conn->requests_ok;
      conn->ready[seq] = std::move(framed);
      ReleaseReadyLocked(conn.get());
    }
  }
  // A gone connection drops the response: the peer disconnected while the
  // request was in flight; the session is already closed.
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    is_error ? ++stats_.requests_error : ++stats_.requests_ok;
  }
  {
    std::lock_guard<std::mutex> lock(outstanding_mu_);
    --outstanding_;
  }
  outstanding_cv_.notify_all();
  Wake();
}

void TcpServer::QueueFrame(const std::shared_ptr<Conn>& conn, FrameType type,
                           const Bytes& payload) {
  std::lock_guard<std::mutex> cl(conn->mu);
  if (conn->gone) return;
  Bytes f = EncodeFrame(type, payload);
  // The stall clock measures "data pending without progress", so it
  // starts when the queue becomes non-empty -- not at the last write of
  // some earlier exchange.
  if (conn->outbound.empty()) conn->last_write_progress = Clock::now();
  conn->outbound_bytes += f.size();
  conn->outbound.push_back(std::move(f));
  ++conn->frames_out;
}

void TcpServer::ReleaseReadyLocked(Conn* conn) {
  auto it = conn->ready.begin();
  while (it != conn->ready.end() && it->first == conn->next_send_seq) {
    if (conn->outbound.empty()) conn->last_write_progress = Clock::now();
    conn->outbound_bytes += it->second.size();
    conn->outbound.push_back(std::move(it->second));
    ++conn->frames_out;
    it = conn->ready.erase(it);
    ++conn->next_send_seq;
  }
}

void TcpServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (conns_.erase(conn->id) == 0) return;  // already closed this round
  }
  {
    std::lock_guard<std::mutex> cl(conn->mu);
    conn->gone = true;
    conn->fd.Reset();
  }
  (void)engine_->CloseSession(conn->session);
  std::lock_guard<std::mutex> sl(stats_mu_);
  ++stats_.closed;
}

TcpServer::Stats TcpServer::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  s.active_connections = conns_.size();
  return s;
}

std::vector<TcpServer::ConnectionStats> TcpServer::connection_stats() const {
  std::vector<std::shared_ptr<Conn>> all;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, conn] : conns_) {
      (void)id;
      all.push_back(conn);
    }
  }
  std::vector<ConnectionStats> out;
  out.reserve(all.size());
  for (const auto& conn : all) {
    std::lock_guard<std::mutex> cl(conn->mu);
    ConnectionStats cs;
    cs.id = conn->id;
    cs.session = conn->session;
    cs.bytes_in = conn->bytes_in;
    cs.bytes_out = conn->bytes_out;
    cs.frames_in = conn->frames_in;
    cs.frames_out = conn->frames_out;
    cs.requests_ok = conn->requests_ok;
    cs.requests_error = conn->requests_error;
    cs.outbound_queued_bytes = conn->outbound_bytes;
    cs.in_flight = conn->in_flight;
    out.push_back(cs);
  }
  return out;
}

}  // namespace sjoin
