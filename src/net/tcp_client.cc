#include "net/tcp_client.h"

#include <chrono>
#include <utility>

#include "db/wire.h"

namespace sjoin {

Result<TcpClient> TcpClient::Connect(const std::string& host, uint16_t port,
                                     TcpClientOptions opts) {
  auto fd = ConnectTcp(host, port, opts.connect_timeout_ms);
  SJOIN_RETURN_IF_ERROR(fd.status());
  TcpClient client(std::move(*fd), opts);
  auto hello = client.ReadFrame();
  SJOIN_RETURN_IF_ERROR(hello.status());
  if (hello->type != FrameType::kHello) {
    return Status::InvalidArgument("expected hello frame, got type " +
                                   std::to_string(static_cast<int>(
                                       hello->type)));
  }
  WireReader r(hello->payload);
  auto version = r.U8();
  SJOIN_RETURN_IF_ERROR(version.status());
  if (*version != kFrameVersion) {
    return Status::InvalidArgument("server speaks frame version " +
                                   std::to_string(*version));
  }
  auto session = r.U64();
  SJOIN_RETURN_IF_ERROR(session.status());
  client.session_ = *session;
  return client;
}

Status TcpClient::SendFrame(FrameType type, const Bytes& payload) {
  if (!fd_.valid()) return Status::FailedPrecondition("client closed");
  Bytes framed = EncodeFrame(type, payload);
  return WriteAll(fd_.get(), framed.data(), framed.size(),
                  opts_.io_timeout_ms);
}

Status TcpClient::SendRaw(const uint8_t* data, size_t len) {
  if (!fd_.valid()) return Status::FailedPrecondition("client closed");
  return WriteAll(fd_.get(), data, len, opts_.io_timeout_ms);
}

Result<Frame> TcpClient::ReadFrame() {
  if (!fd_.valid()) return Status::FailedPrecondition("client closed");
  uint8_t buf[16 * 1024];
  // io_timeout_ms bounds the WHOLE call, not each poll: a server that
  // trickles one byte per poll interval must still hit the deadline, so
  // every iteration polls only for the time remaining.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.io_timeout_ms);
  while (!reader_.HasFrame()) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                         deadline - std::chrono::steady_clock::now())
                         .count();
    if (remaining <= 0) {
      return Status::DeadlineExceeded(
          "response timed out after " + std::to_string(opts_.io_timeout_ms) +
          "ms (" + std::to_string(reader_.partial_bytes()) +
          " bytes of a partial frame received)");
    }
    // Read whatever arrives and let the incremental reader assemble the
    // frame across fragments.
    auto io = ReadAvailable(fd_.get(), buf, sizeof(buf),
                            static_cast<int>(remaining));
    SJOIN_RETURN_IF_ERROR(io.status());
    if (io->eof) {
      return Status::FailedPrecondition("connection closed by server");
    }
    SJOIN_RETURN_IF_ERROR(reader_.Feed(buf, io->n));
  }
  return reader_.Next();
}

Result<Bytes> TcpClient::RoundTrip(FrameType req, const Bytes& payload,
                                   FrameType expected) {
  SJOIN_RETURN_IF_ERROR(SendFrame(req, payload));
  auto frame = ReadFrame();
  SJOIN_RETURN_IF_ERROR(frame.status());
  if (frame->type == FrameType::kError) {
    return DecodeErrorPayload(frame->payload);
  }
  if (frame->type != expected) {
    return Status::InvalidArgument(
        "unexpected response frame type " +
        std::to_string(static_cast<int>(frame->type)));
  }
  return std::move(frame->payload);
}

Result<EncryptedSeriesResult> TcpClient::ExecuteSeries(
    const QuerySeriesTokens& series) {
  auto payload = RoundTrip(FrameType::kQuerySeries, SerializeQuerySeries(series),
                           FrameType::kSeriesResult);
  SJOIN_RETURN_IF_ERROR(payload.status());
  return DeserializeSeriesResult(*payload);
}

Result<MutationResult> TcpClient::ApplyMutation(const TableMutation& mutation) {
  auto payload =
      RoundTrip(FrameType::kMutation, SerializeTableMutation(mutation),
                FrameType::kMutationResult);
  SJOIN_RETURN_IF_ERROR(payload.status());
  return DeserializeMutationResult(*payload);
}

Status TcpClient::Ping() {
  Bytes probe = {0x70, 0x69, 0x6E, 0x67};
  auto payload = RoundTrip(FrameType::kPing, probe, FrameType::kPong);
  SJOIN_RETURN_IF_ERROR(payload.status());
  if (*payload != probe) {
    return Status::Internal("pong payload does not echo the ping");
  }
  return Status::OK();
}

}  // namespace sjoin
