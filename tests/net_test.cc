// The TCP transport (ctest label "net"):
//
//  - Framing property tests: a frame stream decodes byte-identically
//    under ARBITRARY read fragmentation; every strict truncation leaves
//    the reader off-boundary (never a wrong frame); a bit-flip / garbage
//    corpus is rejected cleanly (poisoned reader, sticky error, no
//    crash); an oversized length prefix is refused before allocation.
//  - Network fault injection against a live TcpServer: client
//    disconnect mid-series, torn write of half a frame, oversized
//    length prefix, raw garbage, a stalled peer that never reads, idle
//    half-open connections. After every fault the server must still be
//    serving -- asserted with a concurrent healthy client -- and must
//    have reclaimed the faulty connection's session.
//  - End-to-end loopback byte-identity: concurrent TcpClients running
//    mixed series / mutation workloads produce results byte-identical
//    (SerializeJoinResult / SerializeMutationResult) to an in-process
//    twin engine executing the same prepared messages.
//  - Shutdown ordering: Submit after EncryptedServer::Shutdown()
//    surfaces a clean FailedPrecondition -- in-process and over a
//    socket -- instead of silently dropping the request (regression for
//    the scheduler shutdown race); TcpServer::Stop() drains in-flight
//    requests and flushes their responses before closing.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "db/client.h"
#include "db/server.h"
#include "db/wire.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"

namespace sjoin {
namespace {

// --- Shared fixtures -----------------------------------------------------------

Table MakeKeyed(const std::string& name, size_t rows, size_t distinct) {
  Table t(name, Schema({{"k", ValueKind::kInt64},
                        {"payload", ValueKind::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    SJOIN_CHECK(t.AppendRow({static_cast<int64_t>(i % distinct),
                             name + "#" + std::to_string(i)})
                    .ok());
  }
  return t;
}

JoinQuerySpec KeySpec(const std::string& a, const std::string& b) {
  JoinQuerySpec q;
  q.table_a = a;
  q.table_b = b;
  q.join_column_a = q.join_column_b = "k";
  return q;
}

/// Serialized per-query results: the bit-identity token (timings and
/// host-local fields like pinned_generations are not part of it).
std::vector<Bytes> ResultBytes(const EncryptedSeriesResult& r) {
  std::vector<Bytes> out;
  out.reserve(r.results.size());
  for (const EncryptedJoinResult& q : r.results) {
    out.push_back(SerializeJoinResult(q));
  }
  return out;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- Framing property tests ----------------------------------------------------

Bytes RandomPayload(std::mt19937_64* rng, size_t max_len) {
  Bytes p((*rng)() % (max_len + 1));
  for (auto& b : p) b = static_cast<uint8_t>((*rng)());
  return p;
}

TEST(FrameCodec, RoundTripEveryTypeIncludingEmptyPayload) {
  std::mt19937_64 rng(1);
  for (uint8_t t = 1; t <= kMaxFrameType; ++t) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{1000}}) {
      Bytes payload(len);
      for (auto& b : payload) b = static_cast<uint8_t>(rng());
      Bytes stream = EncodeFrame(static_cast<FrameType>(t), payload);
      ASSERT_EQ(stream.size(), kFrameHeaderSize + len);
      FrameReader reader;
      ASSERT_TRUE(reader.Feed(stream).ok());
      ASSERT_TRUE(reader.HasFrame());
      Frame f = reader.Next();
      EXPECT_EQ(f.type, static_cast<FrameType>(t));
      EXPECT_EQ(f.payload, payload);
      EXPECT_TRUE(reader.AtBoundary());
      EXPECT_FALSE(reader.HasFrame());
    }
  }
}

TEST(FrameCodec, RandomFragmentationDecodesByteIdentically) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 7919 + 3);
    // A random multi-frame stream, payload sizes straddling the header
    // size and zero.
    std::vector<Frame> expect;
    Bytes stream;
    size_t frames = 1 + rng() % 8;
    for (size_t i = 0; i < frames; ++i) {
      Frame f;
      f.type = static_cast<FrameType>(1 + rng() % kMaxFrameType);
      f.payload = RandomPayload(&rng, 300);
      Bytes enc = EncodeFrame(f.type, f.payload);
      stream.insert(stream.end(), enc.begin(), enc.end());
      expect.push_back(std::move(f));
    }
    // Feed in random fragments (including empty ones and single bytes);
    // decoded sequence must be identical to a whole-stream feed.
    FrameReader reader;
    size_t pos = 0;
    std::vector<Frame> got;
    while (pos < stream.size()) {
      size_t take = rng() % 5 == 0 ? rng() % 2  // empty / single byte
                                   : rng() % (stream.size() - pos + 1);
      ASSERT_TRUE(reader.Feed(stream.data() + pos, take).ok());
      pos += take;
      while (reader.HasFrame()) got.push_back(reader.Next());
    }
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect[i]) << "frame " << i;
    }
    EXPECT_TRUE(reader.AtBoundary());
    EXPECT_EQ(reader.partial_bytes(), 0u);
  }
}

TEST(FrameCodec, EveryStrictTruncationLeavesTheReaderOffBoundary) {
  // Two frames; every strict prefix of the stream must decode only the
  // frames it fully contains and report the cut honestly: AtBoundary()
  // exactly at frame boundaries, partial_bytes() counting the rest.
  Bytes p1(33), p2(7);
  for (size_t i = 0; i < p1.size(); ++i) p1[i] = static_cast<uint8_t>(i);
  for (size_t i = 0; i < p2.size(); ++i) p2[i] = static_cast<uint8_t>(200 + i);
  Bytes f1 = EncodeFrame(FrameType::kQuerySeries, p1);
  Bytes f2 = EncodeFrame(FrameType::kPing, p2);
  Bytes stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  for (size_t cut = 0; cut < stream.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    FrameReader reader;
    ASSERT_TRUE(reader.Feed(stream.data(), cut).ok());
    EXPECT_FALSE(reader.poisoned());
    size_t complete = 0;
    while (reader.HasFrame()) {
      Frame f = reader.Next();
      // Whatever completed must be byte-faithful, never a blend.
      if (complete == 0) EXPECT_EQ(f.payload, p1);
      if (complete == 1) EXPECT_EQ(f.payload, p2);
      ++complete;
    }
    size_t boundary = cut >= f1.size() ? f1.size() : 0;
    EXPECT_EQ(complete, cut >= f1.size() ? 1u : 0u);
    EXPECT_EQ(reader.AtBoundary(), cut == boundary);
    EXPECT_EQ(reader.partial_bytes(), cut - boundary);
  }
}

TEST(FrameCodec, HeaderBitFlipsRejectOrResyncNeverCrash) {
  // Flip every bit of the header of a valid frame. Flips in the length
  // field keep the header well-formed (the length is data, not
  // structure), so the reader may simply wait for a longer payload;
  // every flip in magic/version/type/flags must poison, and the poison
  // must be sticky.
  Bytes payload(21, 0xAB);
  Bytes stream = EncodeFrame(FrameType::kMutation, payload);
  for (size_t bit = 0; bit < kFrameHeaderSize * 8; ++bit) {
    SCOPED_TRACE("bit " + std::to_string(bit));
    Bytes corrupt = stream;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    FrameReader reader;
    Status fed = reader.Feed(corrupt);
    size_t byte = bit / 8;
    bool structural = byte < 8;  // magic + version + type + flags
    if (structural) {
      // Compute (not guess) whether the flipped header is still
      // well-formed; a flip of the type byte can land on another valid
      // type.
      uint8_t type = corrupt[5];
      bool type_ok = byte != 5 || (type >= 1 && type <= kMaxFrameType);
      bool ok_header = std::memcmp(corrupt.data(), kFrameMagic.data(), 4) == 0 &&
                       corrupt[4] == kFrameVersion && type_ok &&
                       corrupt[6] == 0 && corrupt[7] == 0;
      if (!ok_header) {
        EXPECT_FALSE(fed.ok());
        EXPECT_TRUE(reader.poisoned());
        EXPECT_FALSE(reader.HasFrame());
        // Sticky: the stream is untrusted from here on.
        Status again = reader.Feed(stream);
        EXPECT_FALSE(again.ok());
        EXPECT_EQ(again.message(), fed.message());
        continue;
      }
    }
    // Length-field and payload flips (and type flips onto another valid
    // type) may decode a different frame, wait for more bytes, or
    // mis-resync on payload bytes and poison (a shortened length makes
    // the tail parse as a header; a lengthened one can blow the cap).
    // The contract is "reject or resync, never crash, never lie":
    // poisoned() and the Feed status must agree.
    EXPECT_EQ(reader.poisoned(), !fed.ok());
  }
}

TEST(FrameCodec, GarbageCorpusPoisonsWithoutProducingFrames) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Bytes garbage = RandomPayload(&rng, 4096);
    FrameReader reader;
    Status fed = reader.Feed(garbage);
    if (!fed.ok()) {
      EXPECT_TRUE(reader.poisoned());
      EXPECT_FALSE(reader.HasFrame());
    }
    // Random bytes essentially never start with the magic; but even when
    // they do, the contract is only "no crash, no fabricated OK frames
    // after poison" -- which HasFrame/poisoned() above pin down.
  }
}

TEST(FrameCodec, OversizedLengthPrefixRefusedBeforeAllocation) {
  Bytes header(kFrameHeaderSize, 0);
  std::memcpy(header.data(), kFrameMagic.data(), 4);
  header[4] = kFrameVersion;
  header[5] = static_cast<uint8_t>(FrameType::kPing);
  header[8] = 0xFF;  // length = 0xFFFFFFFF
  header[9] = 0xFF;
  header[10] = 0xFF;
  header[11] = 0xFF;
  FrameReader reader(/*max_frame_bytes=*/1024);
  Status fed = reader.Feed(header);
  ASSERT_FALSE(fed.ok());
  EXPECT_EQ(fed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fed.message().find("cap"), std::string::npos) << fed.message();
  EXPECT_TRUE(reader.poisoned());
  EXPECT_FALSE(reader.HasFrame());
}

TEST(FrameCodec, FramesBeforeABadHeaderRemainPoppable) {
  Bytes good = EncodeFrame(FrameType::kPong, {1, 2, 3});
  Bytes stream = good;
  stream.push_back('X');  // bad magic starts here
  stream.push_back('X');
  FrameReader reader;
  Status fed = reader.Feed(stream);
  // The bad header needs 12 bytes to be validated; 2 garbage bytes are
  // just an incomplete header -- so feed 10 more to trigger the poison.
  EXPECT_TRUE(fed.ok());
  Bytes rest(10, 'X');
  EXPECT_FALSE(reader.Feed(rest).ok());
  ASSERT_TRUE(reader.HasFrame());
  EXPECT_EQ(reader.Next().payload, Bytes({1, 2, 3}));
  EXPECT_TRUE(reader.poisoned());
}

TEST(FrameCodec, ErrorPayloadRoundTripsEveryStatusCode) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kInternal}) {
    Status in(code, "message for code " +
                        std::to_string(static_cast<int>(code)));
    Status out = DecodeErrorPayload(EncodeErrorPayload(in));
    EXPECT_EQ(out.code(), in.code());
    EXPECT_EQ(out.message(), in.message());
  }
  // A truncated / length-mismatched error payload still decodes into a
  // non-OK status (never silence).
  EXPECT_FALSE(DecodeErrorPayload({}).ok());
  EXPECT_FALSE(DecodeErrorPayload({1, 9, 0, 0, 0}).ok());
}

// --- Scheduler shutdown ordering (regression) ----------------------------------

TEST(SchedulerShutdown, SubmitAfterShutdownSurfacesCleanError) {
  EncryptedClient client({.num_attrs = 1, .max_in_clause = 1, .rng_seed = 5});
  EncryptedServer server;
  auto enc = client.EncryptTable(MakeKeyed("T", 4, 2), "k");
  ASSERT_TRUE(enc.ok());
  ASSERT_TRUE(server.StoreTable(*enc).ok());
  auto series = client.PrepareSeries({KeySpec("T", "T")}, {&*enc});
  ASSERT_TRUE(series.ok());

  // Sanity: the request executes before shutdown.
  auto ok = server.SubmitJoinSeries(*series, {}).get();
  ASSERT_TRUE(ok.ok());

  server.Shutdown();
  // The race this pins down: Submit after Shutdown used to hand the
  // request to a scheduler nobody drains -- the future never resolved
  // and a socket frame would have been silently dropped. Now it is a
  // checked, immediate error.
  auto rejected = server.SubmitJoinSeries(*series, {}).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("shut down"), std::string::npos)
      << rejected.status().message();

  // The async variant completes inline with the same error.
  std::atomic<bool> called{false};
  server.SubmitJoinSeriesAsync(*series, {},
                               [&](Result<EncryptedSeriesResult> r) {
                                 EXPECT_FALSE(r.ok());
                                 EXPECT_EQ(r.status().code(),
                                           StatusCode::kFailedPrecondition);
                                 called.store(true);
                               });
  EXPECT_TRUE(called.load());

  auto mut = client.PrepareDelete("T", {0});
  ASSERT_TRUE(mut.ok());
  auto mrejected = server.SubmitMutation(*mut).get();
  ASSERT_FALSE(mrejected.ok());
  EXPECT_EQ(mrejected.status().code(), StatusCode::kFailedPrecondition);
}

// --- Loopback environment ------------------------------------------------------

/// One networked engine plus an in-process twin: both store identical
/// table uploads, so executing the SAME prepared message on both must
/// produce byte-identical results.
struct LoopbackEnv {
  EncryptedClient client{
      {.num_attrs = 1, .max_in_clause = 1, .rng_seed = 2024}};
  EncryptedServer engine;
  EncryptedServer twin;
  std::optional<TcpServer> server;
  std::deque<EncryptedTable> tables;  // deque: stable refs across Upload

  const EncryptedTable* Upload(const std::string& name, size_t rows,
                               size_t distinct) {
    auto enc = client.EncryptTable(MakeKeyed(name, rows, distinct), "k");
    SJOIN_CHECK(enc.ok());
    SJOIN_CHECK(engine.StoreTable(*enc).ok());
    SJOIN_CHECK(twin.StoreTable(*enc).ok());
    tables.push_back(std::move(*enc));
    return &tables.back();
  }

  uint16_t Start(TcpServerOptions opts = {}) {
    server.emplace(&engine, opts);
    SJOIN_CHECK(server->Start().ok());
    return server->port();
  }

  Result<TcpClient> Dial(TcpClientOptions opts = {}) {
    return TcpClient::Connect("127.0.0.1", server->port(), opts);
  }
};

// --- End-to-end over loopback --------------------------------------------------

TEST(TcpTransport, HelloBindsAUniqueSessionPerConnection) {
  LoopbackEnv env;
  env.Upload("X", 4, 2);
  env.Start();
  size_t baseline = env.engine.open_sessions();

  auto c1 = env.Dial();
  auto c2 = env.Dial();
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(c1->session_id(), 0u);
  EXPECT_NE(c2->session_id(), 0u);
  EXPECT_NE(c1->session_id(), c2->session_id());
  EXPECT_TRUE(WaitFor(
      [&] { return env.engine.open_sessions() == baseline + 2; }, 2000));

  // Closing the connection closes its session.
  c1->Close();
  EXPECT_TRUE(WaitFor(
      [&] { return env.engine.open_sessions() == baseline + 1; }, 2000));
  EXPECT_TRUE(c2->Ping().ok());
}

TEST(TcpTransport, SeriesMutationAndShardedMatchInProcessByteForByte) {
  LoopbackEnv env;
  const EncryptedTable* x = env.Upload("X", 6, 3);
  const EncryptedTable* y = env.Upload("Y", 5, 3);
  env.Start();
  auto c = env.Dial();
  ASSERT_TRUE(c.ok());

  // Plain series.
  auto s1 = env.client.PrepareSeries({KeySpec("X", "Y"), KeySpec("Y", "X")},
                                     {x, y});
  ASSERT_TRUE(s1.ok());
  auto net1 = c->ExecuteSeries(*s1);
  auto twin1 = env.twin.ExecuteJoinSeries(*s1, {});
  ASSERT_TRUE(net1.ok()) << net1.status().message();
  ASSERT_TRUE(twin1.ok());
  EXPECT_EQ(ResultBytes(*net1), ResultBytes(*twin1));

  // Mutation: insert two rows, delete one original row; the networked
  // acknowledgement (generation, assigned ids) must equal the twin's.
  auto ins = env.client.PrepareInsert(*x, MakeKeyed("X", 2, 2));
  ASSERT_TRUE(ins.ok());
  auto del = env.client.PrepareDelete("X", {1});
  ASSERT_TRUE(del.ok());
  for (const TableMutation* m : {&*ins, &*del}) {
    auto net = c->ApplyMutation(*m);
    auto twin = env.twin.ApplyMutation(*m);
    ASSERT_TRUE(net.ok()) << net.status().message();
    ASSERT_TRUE(twin.ok());
    EXPECT_EQ(SerializeMutationResult(*net), SerializeMutationResult(*twin));
  }

  // Post-mutation series: both engines see the mutated generation.
  auto net3 = c->ExecuteSeries(*s1);
  auto twin3 = env.twin.ExecuteJoinSeries(*s1, {});
  ASSERT_TRUE(net3.ok());
  ASSERT_TRUE(twin3.ok());
  EXPECT_EQ(ResultBytes(*net3), ResultBytes(*twin3));
  // And the mutation actually changed the answer.
  EXPECT_NE(ResultBytes(*net3), ResultBytes(*net1));
}

TEST(TcpTransport, ExecutionErrorsDecodeIntoTheInProcessStatus) {
  LoopbackEnv env;
  env.Upload("X", 4, 2);
  env.Start();
  auto c = env.Dial();
  ASSERT_TRUE(c.ok());

  auto mut = env.client.PrepareDelete("NOPE", {0});
  ASSERT_TRUE(mut.ok());
  auto net = c->ApplyMutation(*mut);
  auto twin = env.twin.ApplyMutation(*mut);
  ASSERT_FALSE(net.ok());
  ASSERT_FALSE(twin.ok());
  EXPECT_EQ(net.status().code(), twin.status().code());
  EXPECT_EQ(net.status().message(), twin.status().message());
  // The connection survives an execution error (only framing faults
  // close it).
  EXPECT_TRUE(c->Ping().ok());
}

TEST(TcpTransport, PipelinedRequestsComeBackInRequestOrder) {
  LoopbackEnv env;
  const EncryptedTable* x = env.Upload("X", 5, 2);
  const EncryptedTable* y = env.Upload("Y", 5, 2);
  env.Start();
  auto c = env.Dial();
  ASSERT_TRUE(c.ok());

  // Distinguishable requests: i-th series carries i+1 queries; the
  // middle one is a mutation against a missing table (an error), and a
  // ping follows the first series. All six responses must come back in
  // request order -- the pong in its slot, not ahead of the series.
  std::vector<QuerySeriesTokens> series;
  for (size_t i = 0; i < 4; ++i) {
    std::vector<JoinQuerySpec> specs(i + 1, KeySpec("X", "Y"));
    auto s = env.client.PrepareSeries(specs, {x, y});
    ASSERT_TRUE(s.ok());
    series.push_back(std::move(*s));
  }
  auto bad = env.client.PrepareDelete("NOPE", {0});
  ASSERT_TRUE(bad.ok());

  const Bytes probe = {7, 7, 7};
  ASSERT_TRUE(c->SendFrame(FrameType::kQuerySeries,
                           SerializeQuerySeries(series[0])).ok());
  ASSERT_TRUE(c->SendFrame(FrameType::kPing, probe).ok());
  ASSERT_TRUE(c->SendFrame(FrameType::kQuerySeries,
                           SerializeQuerySeries(series[1])).ok());
  ASSERT_TRUE(c->SendFrame(FrameType::kMutation,
                           SerializeTableMutation(*bad)).ok());
  ASSERT_TRUE(c->SendFrame(FrameType::kQuerySeries,
                           SerializeQuerySeries(series[2])).ok());
  ASSERT_TRUE(c->SendFrame(FrameType::kQuerySeries,
                           SerializeQuerySeries(series[3])).ok());

  // 0 = the error response, kPongSlot = the pong.
  constexpr size_t kPongSlot = ~size_t{0};
  size_t expect_queries[] = {1, kPongSlot, 2, 0, 3, 4};
  for (size_t i = 0; i < 6; ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    auto f = c->ReadFrame();
    ASSERT_TRUE(f.ok()) << f.status().message();
    if (expect_queries[i] == kPongSlot) {
      ASSERT_EQ(f->type, FrameType::kPong);
      EXPECT_EQ(f->payload, probe);
      continue;
    }
    if (expect_queries[i] == 0) {
      ASSERT_EQ(f->type, FrameType::kError);
      EXPECT_EQ(DecodeErrorPayload(f->payload).code(), StatusCode::kNotFound);
      continue;
    }
    ASSERT_EQ(f->type, FrameType::kSeriesResult);
    auto r = DeserializeSeriesResult(f->payload);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->results.size(), expect_queries[i]);
  }
}

TEST(TcpTransport, AdmissionFailuresStillAnswerInRequestOrder) {
  // A tiny scheduler (1 in flight, 2 queued) so a burst overflows
  // admission: rejected requests complete INLINE -- out of order
  // relative to the in-flight work -- and the per-connection reorder
  // pipeline must still emit responses in request order.
  LoopbackEnv env;
  const EncryptedTable* x = env.Upload("X", 5, 2);
  env.Start();  // NOTE: env.engine has default scheduler; use a custom one
  EncryptedServer small(SchedulerOptions{.max_in_flight = 1,
                                         .max_queued_per_session = 2});
  ASSERT_TRUE(small.StoreTable(env.tables[0]).ok());
  TcpServer server(&small, {});
  ASSERT_TRUE(server.Start().ok());
  auto c = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c.ok());

  std::vector<QuerySeriesTokens> series;
  for (size_t i = 0; i < 8; ++i) {
    std::vector<JoinQuerySpec> specs(i + 1, KeySpec("X", "X"));
    auto s = env.client.PrepareSeries(specs, {x});
    ASSERT_TRUE(s.ok());
    series.push_back(std::move(*s));
  }
  for (const auto& s : series) {
    ASSERT_TRUE(
        c->SendFrame(FrameType::kQuerySeries, SerializeQuerySeries(s)).ok());
  }
  size_t ok_count = 0, err_count = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    auto f = c->ReadFrame();
    ASSERT_TRUE(f.ok()) << f.status().message();
    if (f->type == FrameType::kError) {
      EXPECT_EQ(DecodeErrorPayload(f->payload).code(),
                StatusCode::kFailedPrecondition);
      ++err_count;
      continue;
    }
    ASSERT_EQ(f->type, FrameType::kSeriesResult);
    auto r = DeserializeSeriesResult(f->payload);
    ASSERT_TRUE(r.ok());
    // In-order delivery: a kSeriesResult at position i answers request i.
    EXPECT_EQ(r->results.size(), i + 1);
    ++ok_count;
  }
  EXPECT_EQ(ok_count + err_count, series.size());
  EXPECT_GE(ok_count, 3u);  // 1 in flight + 2 queued always admitted
  server.Stop();
}

TEST(TcpTransport, RequestAfterEngineShutdownGetsACleanErrorFrame) {
  LoopbackEnv env;
  const EncryptedTable* x = env.Upload("X", 4, 2);
  env.Start();
  auto c = env.Dial();
  ASSERT_TRUE(c.ok());
  auto s = env.client.PrepareSeries({KeySpec("X", "X")}, {x});
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(c->ExecuteSeries(*s).ok());

  env.engine.Shutdown();  // transport still up, engine refuses new work
  auto r = c->ExecuteSeries(*s);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("shut down"), std::string::npos);
  // The connection itself is healthy: the frame was answered, not
  // dropped, and the transport keeps responding.
  EXPECT_TRUE(c->Ping().ok());
}

// --- Concurrent multi-client byte-identity -------------------------------------

TEST(TcpTransport, ConcurrentMixedWorkloadsMatchInProcessByteForByte) {
  constexpr int kClients = 5;
  LoopbackEnv env;
  const EncryptedTable* x = env.Upload("X", 6, 3);
  const EncryptedTable* y = env.Upload("Y", 5, 3);
  // One private table per client thread: only its owner mutates it, so
  // its generation sequence is deterministic (requests of one
  // connection execute FIFO under its session) even though the five
  // threads interleave arbitrarily on the shared engine.
  std::vector<const EncryptedTable*> priv;
  for (int t = 0; t < kClients; ++t) {
    priv.push_back(env.Upload("P" + std::to_string(t), 5, 2));
  }
  env.Start();

  // All messages prepared up front (the client is single-threaded by
  // contract) and executed twice: over the wire and on the twin.
  struct Op {
    enum { kSeries, kMutation } kind;
    QuerySeriesTokens series;
    TableMutation mutation;
  };
  std::vector<std::vector<Op>> plans(kClients);
  for (int t = 0; t < kClients; ++t) {
    const std::string pname = "P" + std::to_string(t);
    auto s1 = env.client.PrepareSeries({KeySpec(pname, "X")}, {priv[t], x});
    auto s2 = env.client.PrepareSeries({KeySpec("X", "Y")}, {x, y});
    auto ins = env.client.PrepareInsert(*priv[t], MakeKeyed(pname, 3, 2));
    auto s3 = env.client.PrepareSeries(
        {KeySpec(pname, pname), KeySpec(pname, "Y")}, {priv[t], y});
    auto del = env.client.PrepareDelete(pname, {0, 5});  // an original + an
                                                         // inserted row (ids
                                                         // are deterministic)
    auto s4 = env.client.PrepareSeries({KeySpec(pname, "X")}, {priv[t], x});
    ASSERT_TRUE(s1.ok() && s2.ok() && ins.ok() && s3.ok() && del.ok() &&
                s4.ok());
    plans[t].push_back({Op::kSeries, std::move(*s1), {}});
    plans[t].push_back({Op::kSeries, std::move(*s2), {}});
    plans[t].push_back({Op::kMutation, {}, std::move(*ins)});
    plans[t].push_back({Op::kSeries, std::move(*s3), {}});
    plans[t].push_back({Op::kMutation, {}, std::move(*del)});
    plans[t].push_back({Op::kSeries, std::move(*s4), {}});
  }

  // Concurrent execution over the wire, one connection per thread.
  struct Recorded {
    std::vector<Bytes> series_bytes;  // empty for mutations
    Bytes mutation_bytes;
    Status status = Status::OK();
  };
  std::vector<std::vector<Recorded>> net(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto c = env.Dial();
      if (!c.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (const Op& op : plans[t]) {
        Recorded rec;
        switch (op.kind) {
          case Op::kSeries: {
            auto r = c->ExecuteSeries(op.series);
            rec.status = r.status();
            if (r.ok()) rec.series_bytes = ResultBytes(*r);
            break;
          }
          case Op::kMutation: {
            auto r = c->ApplyMutation(op.mutation);
            rec.status = r.status();
            if (r.ok()) rec.mutation_bytes = SerializeMutationResult(*r);
            break;
          }
        }
        net[t].push_back(std::move(rec));
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // Serial replay on the twin: thread by thread, op by op. Shared
  // tables X/Y are never mutated, private tables are single-owner, so
  // per-thread serial order reproduces exactly what the networked
  // engine computed.
  for (int t = 0; t < kClients; ++t) {
    ASSERT_EQ(net[t].size(), plans[t].size());
    for (size_t i = 0; i < plans[t].size(); ++i) {
      SCOPED_TRACE("client " + std::to_string(t) + " op " + std::to_string(i));
      const Op& op = plans[t][i];
      const Recorded& rec = net[t][i];
      ASSERT_TRUE(rec.status.ok()) << rec.status.message();
      switch (op.kind) {
        case Op::kSeries: {
          auto r = env.twin.ExecuteJoinSeries(op.series, {});
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(rec.series_bytes, ResultBytes(*r));
          break;
        }
        case Op::kMutation: {
          auto r = env.twin.ApplyMutation(op.mutation);
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(rec.mutation_bytes, SerializeMutationResult(*r));
          break;
        }
      }
    }
  }
}

// --- Network fault injection ---------------------------------------------------

TEST(TcpFault, ClientDisconnectMidSeriesReclaimsSessionAndKeepsServing) {
  LoopbackEnv env;
  const EncryptedTable* x = env.Upload("X", 8, 3);
  env.Start();
  size_t baseline = env.engine.open_sessions();

  auto healthy = env.Dial();
  ASSERT_TRUE(healthy.ok());
  auto s = env.client.PrepareSeries(
      {KeySpec("X", "X"), KeySpec("X", "X"), KeySpec("X", "X")}, {x});
  ASSERT_TRUE(s.ok());

  {
    auto faulty = env.Dial();
    ASSERT_TRUE(faulty.ok());
    // Fire the request and vanish without reading the response.
    ASSERT_TRUE(faulty->SendFrame(FrameType::kQuerySeries,
                                  SerializeQuerySeries(*s)).ok());
    faulty->Close();
  }

  // The session is reclaimed (the in-flight series completes inside the
  // engine, its response is dropped, the connection's session closes)...
  EXPECT_TRUE(WaitFor(
      [&] { return env.engine.open_sessions() == baseline + 1; }, 10000))
      << "open sessions: " << env.engine.open_sessions();
  // ...and the server keeps serving the healthy connection.
  auto r = healthy->ExecuteSeries(*s);
  ASSERT_TRUE(r.ok()) << r.status().message();
  auto twin = env.twin.ExecuteJoinSeries(*s, {});
  ASSERT_TRUE(twin.ok());
  EXPECT_EQ(ResultBytes(*r), ResultBytes(*twin));
}

TEST(TcpFault, TornWriteOfHalfAFrameClosesOnlyThatConnection) {
  LoopbackEnv env;
  const EncryptedTable* x = env.Upload("X", 4, 2);
  env.Start();
  size_t baseline = env.engine.open_sessions();
  auto healthy = env.Dial();
  ASSERT_TRUE(healthy.ok());

  {
    auto faulty = env.Dial();
    ASSERT_TRUE(faulty.ok());
    auto s = env.client.PrepareSeries({KeySpec("X", "X")}, {x});
    ASSERT_TRUE(s.ok());
    Bytes frame = EncodeFrame(FrameType::kQuerySeries,
                              SerializeQuerySeries(*s));
    // Half the frame (header + a sliver of payload), then EOF: the
    // server sees an off-boundary stream end -- a dead peer, not a
    // protocol violation.
    ASSERT_TRUE(faulty->SendRaw(frame.data(), frame.size() / 2).ok());
    faulty->Close();
  }
  EXPECT_TRUE(WaitFor(
      [&] { return env.engine.open_sessions() == baseline + 1; }, 5000));
  EXPECT_EQ(env.server->stats().malformed_frames, 0u);
  EXPECT_TRUE(healthy->Ping().ok());
}

TEST(TcpFault, OversizedLengthPrefixGetsAnErrorFrameThenClose) {
  LoopbackEnv env;
  env.Upload("X", 4, 2);
  TcpServerOptions opts;
  opts.max_frame_bytes = 1 << 16;  // 64 KiB cap for this server
  env.Start(opts);
  auto healthy = env.Dial();
  ASSERT_TRUE(healthy.ok());

  auto faulty = env.Dial();
  ASSERT_TRUE(faulty.ok());
  Bytes header(kFrameHeaderSize, 0);
  std::memcpy(header.data(), kFrameMagic.data(), 4);
  header[4] = kFrameVersion;
  header[5] = static_cast<uint8_t>(FrameType::kQuerySeries);
  header[8] = 0xFF;  // 4 GiB length prefix against a 64 KiB cap
  header[9] = 0xFF;
  header[10] = 0xFF;
  header[11] = 0xFF;
  ASSERT_TRUE(faulty->SendRaw(header.data(), header.size()).ok());

  auto err = faulty->ReadFrame();
  ASSERT_TRUE(err.ok()) << err.status().message();
  ASSERT_EQ(err->type, FrameType::kError);
  Status decoded = DecodeErrorPayload(err->payload);
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.message().find("cap"), std::string::npos)
      << decoded.message();
  // After the best-effort error the connection is gone...
  auto eof = faulty->ReadFrame();
  EXPECT_FALSE(eof.ok());
  EXPECT_TRUE(WaitFor(
      [&] { return env.server->stats().malformed_frames >= 1; }, 2000));
  // ...and the server is still fine.
  EXPECT_TRUE(healthy->Ping().ok());
}

TEST(TcpFault, RawGarbageIsRejectedWithoutTakingTheServerDown) {
  LoopbackEnv env;
  env.Upload("X", 4, 2);
  env.Start();
  auto healthy = env.Dial();
  ASSERT_TRUE(healthy.ok());

  auto faulty = env.Dial();
  ASSERT_TRUE(faulty.ok());
  Bytes garbage(64);
  std::mt19937_64 rng(99);
  for (auto& b : garbage) b = static_cast<uint8_t>(rng() | 0x80);  // != 'S'
  ASSERT_TRUE(faulty->SendRaw(garbage.data(), garbage.size()).ok());
  auto err = faulty->ReadFrame();
  ASSERT_TRUE(err.ok()) << err.status().message();
  EXPECT_EQ(err->type, FrameType::kError);
  EXPECT_FALSE(faulty->ReadFrame().ok());  // closed after the error
  EXPECT_TRUE(healthy->Ping().ok());
}

TEST(TcpFault, NonRequestFrameTypeGetsAnErrorButKeepsTheConnection) {
  LoopbackEnv env;
  env.Upload("X", 4, 2);
  env.Start();
  auto c = env.Dial();
  ASSERT_TRUE(c.ok());
  // A well-framed kSeriesResult sent TO the server, and the retired
  // request type 3: framing is intact, so the connection survives; the
  // peer gets an in-order error.
  for (FrameType type : {FrameType::kSeriesResult, FrameType{3}}) {
    SCOPED_TRACE(static_cast<int>(type));
    ASSERT_TRUE(c->SendFrame(type, {1, 2, 3}).ok());
    auto f = c->ReadFrame();
    ASSERT_TRUE(f.ok());
    ASSERT_EQ(f->type, FrameType::kError);
    EXPECT_EQ(DecodeErrorPayload(f->payload).code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(c->Ping().ok());  // still connected
  }
}

TEST(TcpFault, StalledPeerIsDisconnectedInsteadOfHoldingMemory) {
  LoopbackEnv env;
  env.Upload("X", 4, 2);
  TcpServerOptions opts;
  opts.max_outbound_bytes = 64 * 1024;  // small queue cap
  opts.write_stall_timeout_ms = 30000;  // cap, not timing, triggers
  env.Start(opts);
  auto healthy = env.Dial();
  ASSERT_TRUE(healthy.ok());

  auto stalled = env.Dial();
  ASSERT_TRUE(stalled.ok());
  // Pings whose pongs are never read: echoes pile up in the kernel
  // buffers first, then in the server's outbound queue past the cap.
  Bytes payload(256 * 1024, 0x5A);
  for (int i = 0; i < 128; ++i) {
    if (!stalled->SendFrame(FrameType::kPing, payload).ok()) break;
    if (env.server->stats().stalled_closed >= 1) break;
  }
  EXPECT_TRUE(WaitFor(
      [&] { return env.server->stats().stalled_closed >= 1; }, 15000))
      << "stalled_closed=" << env.server->stats().stalled_closed;
  EXPECT_TRUE(healthy->Ping().ok());
}

TEST(TcpFault, IdleConnectionIsReapedAsHalfOpen) {
  LoopbackEnv env;
  env.Upload("X", 4, 2);
  TcpServerOptions opts;
  opts.idle_timeout_ms = 150;
  env.Start(opts);
  size_t baseline = env.engine.open_sessions();

  auto idle = env.Dial();
  ASSERT_TRUE(idle.ok());
  // Send nothing. The server reaps the connection and its session.
  EXPECT_TRUE(WaitFor(
      [&] { return env.server->stats().idle_closed >= 1; }, 5000));
  EXPECT_TRUE(WaitFor(
      [&] { return env.engine.open_sessions() == baseline; }, 5000));
  EXPECT_FALSE(idle->ReadFrame().ok());  // EOF from the server side
}

TEST(TcpFault, ConnectionsPastTheCapAreShedAtTheDoor) {
  LoopbackEnv env;
  env.Upload("X", 4, 2);
  TcpServerOptions opts;
  opts.max_connections = 1;
  env.Start(opts);

  auto first = env.Dial();
  ASSERT_TRUE(first.ok());
  // The second connection is accepted and immediately closed: Connect
  // either fails reading the hello or sees EOF right after.
  TcpClientOptions copts;
  copts.io_timeout_ms = 3000;
  auto second = env.Dial(copts);
  if (second.ok()) {
    EXPECT_FALSE(second->ReadFrame().ok());
  }
  EXPECT_TRUE(WaitFor(
      [&] { return env.server->stats().rejected_at_capacity >= 1; }, 3000));
  EXPECT_TRUE(first->Ping().ok());
}

TEST(TcpFault, ServerTricklingAResponseIsDeadlineExceeded) {
  // A server that answers the hello but then trickles the response one
  // byte at a time must fail the call with DeadlineExceeded within the
  // OVERALL io budget -- regression: the read deadline used to reset on
  // every received fragment, so a peer trickling bytes faster than the
  // timeout could stall a client forever.
  auto listen = ListenTcp("127.0.0.1", 0, 1);
  ASSERT_TRUE(listen.ok());
  auto port = LocalPort(listen->get());
  ASSERT_TRUE(port.ok());
  std::atomic<bool> stop{false};
  std::thread server([&] {
    int raw = -1;
    while (!stop.load()) {
      raw = accept(listen->get(), nullptr, nullptr);
      if (raw >= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (raw < 0) return;
    UniqueFd conn(raw);
    WireWriter hello;
    hello.U8(kFrameVersion);
    hello.U64(7);
    Bytes frame = EncodeFrame(FrameType::kHello, hello.bytes());
    (void)WriteAll(conn.get(), frame.data(), frame.size(), 1000);
    // A well-formed pong header promising 1 KiB, then one payload byte
    // every 20 ms: every read makes progress, the frame never completes.
    Bytes pong = EncodeFrame(FrameType::kPong, Bytes(1024));
    (void)WriteAll(conn.get(), pong.data(), kFrameHeaderSize, 1000);
    size_t off = kFrameHeaderSize;
    while (!stop.load() && off < pong.size()) {
      if (!WriteAll(conn.get(), pong.data() + off, 1, 1000).ok()) return;
      ++off;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  TcpClientOptions copts;
  copts.io_timeout_ms = 300;
  auto client = TcpClient::Connect("127.0.0.1", *port, copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto begin = std::chrono::steady_clock::now();
  Status st = client->Ping();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - begin)
                     .count();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_LT(elapsed, 5000) << "the overall deadline did not fire";
  stop.store(true);
  server.join();
}

// --- Transport lifecycle -------------------------------------------------------

TEST(TcpLifecycle, StopDoesNotWaitTheDrainBudgetForIdleConnections) {
  // Stop() must flush and drain, but an idle connection has nothing to
  // flush -- regression: the drain poll used to sleep the full
  // drain_timeout_ms before noticing such connections can close now.
  LoopbackEnv env;
  env.Upload("X", 2, 1);
  TcpServerOptions opts;
  opts.drain_timeout_ms = 10000;
  env.Start(opts);
  auto c = env.Dial();
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Ping().ok());

  auto begin = std::chrono::steady_clock::now();
  env.server->Stop();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - begin)
                     .count();
  EXPECT_LT(elapsed, 2000)
      << "Stop waited out the drain budget for an idle connection";
}

TEST(TcpLifecycle, StopDrainsInFlightRequestsAndFlushesResponses) {
  LoopbackEnv env;
  const EncryptedTable* x = env.Upload("X", 6, 3);
  env.Start();
  auto c = env.Dial();
  ASSERT_TRUE(c.ok());
  auto s = env.client.PrepareSeries({KeySpec("X", "X")}, {x});
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(c->SendFrame(FrameType::kQuerySeries,
                           SerializeQuerySeries(*s)).ok());
  // Make sure the server has actually taken the request in before
  // stopping (drain stops reading new bytes, it never abandons work it
  // already accepted).
  ASSERT_TRUE(WaitFor(
      [&] {
        for (const auto& cs : env.server->connection_stats()) {
          if (cs.frames_in >= 1) return true;
        }
        return false;
      },
      5000));

  env.server->Stop();  // graceful: drains, flushes, closes

  auto f = c->ReadFrame();
  ASSERT_TRUE(f.ok()) << f.status().message();
  ASSERT_EQ(f->type, FrameType::kSeriesResult);
  auto r = DeserializeSeriesResult(f->payload);
  ASSERT_TRUE(r.ok());
  auto twin = env.twin.ExecuteJoinSeries(*s, {});
  ASSERT_TRUE(twin.ok());
  EXPECT_EQ(ResultBytes(*r), ResultBytes(*twin));
  EXPECT_FALSE(c->ReadFrame().ok());  // then EOF
  EXPECT_FALSE(env.server->running());
}

TEST(TcpLifecycle, StopIsIdempotentAndTheServerRestarts) {
  LoopbackEnv env;
  const EncryptedTable* x = env.Upload("X", 4, 2);
  env.Start();
  uint16_t old_port = env.server->port();
  env.server->Stop();
  env.server->Stop();  // idempotent
  EXPECT_FALSE(env.server->running());

  ASSERT_TRUE(env.server->Start().ok());  // fresh ephemeral port
  EXPECT_TRUE(env.server->running());
  (void)old_port;
  auto c = env.Dial();
  ASSERT_TRUE(c.ok());
  auto s = env.client.PrepareSeries({KeySpec("X", "X")}, {x});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(c->ExecuteSeries(*s).ok());
}

TEST(TcpLifecycle, StartRefusesAnUnusableAddress) {
  EncryptedServer engine;
  TcpServerOptions opts;
  opts.bind_address = "not-an-address";
  TcpServer server(&engine, opts);
  Status st = server.Start();
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace sjoin
