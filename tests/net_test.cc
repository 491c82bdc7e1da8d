// Tests for the src/net/ serving layer: wire-protocol round trips,
// FrameParser recovery on malformed input, and the end-to-end TCP path
// (DDL + ingest + subscription fanout) compared against the in-process
// runtime on the same trace. Designed TSan-clean: the CI thread job
// runs this binary alongside runtime_test.
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "common/string_util.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "query/error_codes.h"
#include "test_util.h"
#include "workload/net_replay.h"
#include "workload/stock_gen.h"

namespace zstream::testing {
namespace {

using net::Client;
using net::FrameParser;
using net::MsgType;
using net::NetMatch;
using net::PayloadReader;
using net::Server;

constexpr char kStockDdl[] =
    "CREATE STREAM stock "
    "(id INT, name STRING, price DOUBLE, volume INT, ts INT)";
constexpr char kRallyDdl[] =
    "CREATE QUERY rally ON stock AS "
    "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
    "AND A.price < B.price AND B.price < C.price WITHIN 100";

std::vector<EventPtr> ManyNameTrades(int64_t num_events, uint64_t seed) {
  StockGenOptions gen;
  gen.names.clear();
  gen.weights.clear();
  for (int i = 0; i < 8; ++i) {
    gen.names.push_back("SYM" + std::to_string(i));
    gen.weights.push_back(1.0);
  }
  gen.num_events = num_events;
  gen.seed = seed;
  return GenerateStockTrades(gen);
}

/// Single-threaded in-process reference: sorted canonical match keys.
std::vector<std::string> SingleThreadedKeys(
    const std::string& text, const std::vector<EventPtr>& events) {
  ZStream zs(StockSchema());
  auto query = zs.Compile(text);
  EXPECT_TRUE(query.ok()) << query.status();
  std::vector<std::string> keys;
  (*query)->SetMatchCallback([&](Match&& m) {
    keys.push_back(runtime::CanonicalMatchKey(m));
  });
  for (const EventPtr& e : events) (*query)->Push(e);
  (*query)->Finish();
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// A raw TCP connection for crafting protocol-violating byte streams.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << ErrnoToString(errno);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Write(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      ASSERT_GT(n, 0) << ErrnoToString(errno);
      sent += static_cast<size_t>(n);
    }
  }

  /// Blocks until one full frame arrives.
  FrameParser::Frame ReadFrame() {
    while (true) {
      auto next = parser_.Next();
      EXPECT_TRUE(next.ok()) << next.status();
      if (next.ok() && next->has_value()) return std::move(**next);
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      EXPECT_GT(n, 0) << "connection closed while waiting for a frame";
      if (n <= 0) return FrameParser::Frame{};
      parser_.Append(buf, static_cast<size_t>(n));
    }
  }

  /// Blocks until the server closes the connection (EOF/reset),
  /// discarding any residual bytes; false on timeout.
  bool WaitForClose(int timeout_ms) {
    while (true) {
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc <= 0) return false;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return true;
    }
  }

  /// Reads a kError frame and decodes the transported Status.
  Status ReadError() {
    const FrameParser::Frame frame = ReadFrame();
    EXPECT_EQ(frame.header.type, MsgType::kError);
    PayloadReader reader(frame.payload);
    Status decoded;
    const Status parse = net::DecodeErrorPayload(&reader, &decoded);
    EXPECT_TRUE(parse.ok()) << parse;
    return decoded;
  }

 private:
  int fd_ = -1;
  FrameParser parser_;
};

struct ServerFixture {
  ZStream session;
  std::unique_ptr<Server> server;

  explicit ServerFixture(int shards = 2,
                         const std::vector<std::string>& ddl = {}) {
    for (const std::string& stmt : ddl) {
      auto r = session.Execute(stmt);
      EXPECT_TRUE(r.ok()) << r.status();
    }
    runtime::RuntimeOptions ropts;
    ropts.num_shards = shards;
    auto created = Server::Create(&session, ropts);
    EXPECT_TRUE(created.ok()) << created.status();
    server = std::move(*created);
    const Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st;
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(*client);
  }
};

// ---------------------------------------------------------------------
// Wire encoding round trips
// ---------------------------------------------------------------------

TEST(NetProtocol, ValueRoundTrip) {
  const std::vector<Value> values = {
      Value::Null(),    Value(true),           Value(false),
      Value(int64_t{-42}), Value(int64_t{1} << 60), Value(3.25),
      Value(-0.0),      Value("hello"),        Value(std::string()),
      Value(std::string(1000, 'x'))};
  std::string buf;
  for (const Value& v : values) net::AppendValue(&buf, v);
  PayloadReader reader(buf);
  for (const Value& v : values) {
    auto got = net::ReadValue(&reader);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->type(), v.type());
    if (!v.is_null()) {
      EXPECT_EQ(*got, v);
    }
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(NetProtocol, EventRoundTripValidatesSchema) {
  const EventPtr event = Stock("IBM", 95.5, 42);
  std::string buf;
  net::AppendEvent(&buf, *event);
  PayloadReader reader(buf);
  auto got = net::ReadEvent(&reader, StockSchema());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ((*got)->timestamp(), 42);
  EXPECT_EQ((*got)->values(), event->values());

  // Same bytes against a narrower schema: field count mismatch.
  PayloadReader again(buf);
  auto bad = net::ReadEvent(
      &again, Schema::Make({{"a", ValueType::kInt64}}));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().error_code(), errc::kNetSchemaMismatch);
}

TEST(NetProtocol, TruncatedValuePayloadIsCodedError) {
  const EventPtr event = Stock("IBM", 95.5, 42);
  std::string buf;
  net::AppendEvent(&buf, *event);
  // Chop the payload mid-value: every prefix must fail cleanly with the
  // truncation code, never crash or mis-decode.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    PayloadReader reader(std::string_view(buf).substr(0, cut));
    auto got = net::ReadEvent(&reader, StockSchema());
    ASSERT_FALSE(got.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(got.status().error_code(), errc::kNetTruncatedPayload);
  }
}

TEST(NetProtocol, SchemaRoundTrip) {
  std::string buf;
  net::AppendSchema(&buf, *StockSchema());
  PayloadReader reader(buf);
  auto got = net::ReadSchema(&reader);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ((*got)->num_fields(), StockSchema()->num_fields());
  for (int i = 0; i < (*got)->num_fields(); ++i) {
    EXPECT_EQ((*got)->field(i).name, StockSchema()->field(i).name);
    EXPECT_EQ((*got)->field(i).type, StockSchema()->field(i).type);
  }
}

TEST(NetProtocol, StatusPayloadRoundTrip) {
  const Status original = Status::ParseError("bad token")
                              .WithErrorCode(errc::kParseExpectedWithin)
                              .WithLocation(3, 17);
  std::string buf;
  net::AppendStatusPayload(&buf, original);
  PayloadReader reader(buf);
  Status decoded;
  ASSERT_TRUE(net::DecodeErrorPayload(&reader, &decoded).ok());
  EXPECT_TRUE(decoded.IsParseError());
  EXPECT_EQ(decoded.message(), "bad token");
  EXPECT_EQ(decoded.error_code(), errc::kParseExpectedWithin);
  EXPECT_EQ(decoded.line(), 3);
  EXPECT_EQ(decoded.column(), 17);
}

TEST(NetProtocol, MatchRoundTripWithNullSlotsAndGroup) {
  Match match;
  match.span = TimeSpan{10, 30};
  match.slots = {Stock("IBM", 10, 10), nullptr, Stock("Sun", 20, 30)};
  match.group = std::make_shared<EventGroup>(
      EventGroup{Stock("Oracle", 15, 12), Stock("Oracle", 16, 14)});
  std::string buf;
  net::AppendMatch(&buf, "q1", match);
  PayloadReader reader(buf);
  auto got = net::ReadMatch(&reader, StockSchema());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->query, "q1");
  EXPECT_EQ(runtime::CanonicalMatchKey(got->match),
            runtime::CanonicalMatchKey(match));
}

// Regression (found by zstream_fuzz): an empty-but-present Kleene group
// (a '*' closure that matched zero events) must survive the wire — it
// used to decode as "no group", changing the match's canonical key.
TEST(NetProtocol, MatchRoundTripKeepsEmptyGroup) {
  Match match;
  match.span = TimeSpan{5, 9};
  match.slots = {Stock("IBM", 10, 5), Stock("Sun", 20, 9)};
  match.group = std::make_shared<EventGroup>();  // present, empty
  std::string buf;
  net::AppendMatch(&buf, "q1", match);
  PayloadReader reader(buf);
  auto got = net::ReadMatch(&reader, StockSchema());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_NE(got->match.group, nullptr);
  EXPECT_TRUE(got->match.group->empty());
  EXPECT_EQ(runtime::CanonicalMatchKey(got->match),
            runtime::CanonicalMatchKey(match));

  Match no_group;
  no_group.span = TimeSpan{5, 9};
  no_group.slots = {Stock("IBM", 10, 5), Stock("Sun", 20, 9)};
  buf.clear();
  net::AppendMatch(&buf, "q1", no_group);
  PayloadReader reader2(buf);
  auto got2 = net::ReadMatch(&reader2, StockSchema());
  ASSERT_TRUE(got2.ok()) << got2.status();
  EXPECT_EQ(got2->match.group, nullptr);
}

// ---------------------------------------------------------------------
// FrameParser: partial reads, oversized frames, resynchronization
// ---------------------------------------------------------------------

TEST(NetFrameParser, ReassemblesAcrossArbitrarySplits) {
  std::string stream;
  net::AppendFrame(&stream, MsgType::kDdl, 0, "CREATE ...");
  net::AppendFrame(&stream, MsgType::kFlush, 0, "");
  net::AppendFrame(&stream, MsgType::kStats, 0, std::string(300, 'j'));

  // Feed one byte at a time: every frame must come out exactly once.
  FrameParser parser;
  std::vector<FrameParser::Frame> frames;
  for (char c : stream) {
    parser.Append(&c, 1);
    while (true) {
      auto next = parser.Next();
      ASSERT_TRUE(next.ok()) << next.status();
      if (!next->has_value()) break;
      frames.push_back(std::move(**next));
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].header.type, MsgType::kDdl);
  EXPECT_EQ(frames[0].payload, "CREATE ...");
  EXPECT_EQ(frames[1].header.type, MsgType::kFlush);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_EQ(frames[2].header.type, MsgType::kStats);
  EXPECT_EQ(frames[2].payload.size(), 300u);
}

TEST(NetFrameParser, OversizedFrameErrorsOnceThenResyncs) {
  FrameParser parser(/*max_payload=*/64);
  std::string stream;
  net::AppendFrame(&stream, MsgType::kDdl, 0, std::string(100, 'x'));
  net::AppendFrame(&stream, MsgType::kFlush, 0, "");
  parser.Append(stream.data(), stream.size());

  auto first = parser.Next();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().error_code(), errc::kNetOversizedFrame);

  // The 100-byte payload is skipped; the following frame parses.
  auto second = parser.Next();
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->header.type, MsgType::kFlush);
}

TEST(NetFrameParser, OversizedSkipSurvivesPartialDelivery) {
  FrameParser parser(/*max_payload=*/16);
  std::string bad;
  net::AppendFrame(&bad, MsgType::kDdl, 0, std::string(1000, 'x'));
  std::string good;
  net::AppendFrame(&good, MsgType::kStatsRequest, 0, "");

  parser.Append(bad.data(), 20);  // header + a sliver of payload
  auto first = parser.Next();
  ASSERT_FALSE(first.ok());
  // Dribble the rest of the bad payload, then the good frame.
  for (size_t i = 20; i < bad.size(); ++i) {
    parser.Append(bad.data() + i, 1);
    auto mid = parser.Next();
    ASSERT_TRUE(mid.ok());
    EXPECT_FALSE(mid->has_value());
  }
  parser.Append(good.data(), good.size());
  auto next = parser.Next();
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->header.type, MsgType::kStatsRequest);
}

TEST(NetFrameParser, UnknownTypeIsCodedAndResyncs) {
  FrameParser parser;
  std::string raw;
  net::PutU8(&raw, net::kProtocolVersion);
  net::PutU8(&raw, 99);  // no such message type
  net::PutU8(&raw, 0);
  net::PutU8(&raw, 0);
  net::PutU32(&raw, 4);
  raw += "junk";
  net::AppendFrame(&raw, MsgType::kFlush, 0, "");
  parser.Append(raw.data(), raw.size());
  auto next = parser.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().error_code(), errc::kNetUnknownType);
  EXPECT_FALSE(parser.broken());
  // The version byte was valid, so the announced length is trusted and
  // the stream resynchronizes at the next frame.
  auto resynced = parser.Next();
  ASSERT_TRUE(resynced.ok()) << resynced.status();
  ASSERT_TRUE(resynced->has_value());
  EXPECT_EQ((*resynced)->header.type, MsgType::kFlush);
}

TEST(NetFrameParser, BadVersionIsFatal) {
  FrameParser parser;
  std::string raw;
  net::PutU8(&raw, 42);  // wrong version: nothing after it is trusted
  net::PutU8(&raw, static_cast<uint8_t>(MsgType::kFlush));
  net::PutU8(&raw, 0);
  net::PutU8(&raw, 0);
  net::PutU32(&raw, 0);
  net::AppendFrame(&raw, MsgType::kFlush, 0, "");  // never reached
  parser.Append(raw.data(), raw.size());
  auto next = parser.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().error_code(), errc::kNetBadVersion);
  EXPECT_TRUE(parser.broken());
  // Sticky: the stream cannot be resynchronized.
  auto again = parser.Next();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().error_code(), errc::kNetBadVersion);
}

// ---------------------------------------------------------------------
// FrameParser byte-mutation fuzz: seeded random corruption of valid
// frame streams. Properties: payload-only corruption never desyncs
// framing (exact frame count, later frames intact) and corrupt
// payloads decode to coded errors, never crashes; arbitrary corruption
// (headers included) always yields sane frames, coded errors, or the
// sticky fatal state — never a crash, a hang, or an oversized payload.
// ---------------------------------------------------------------------

namespace fuzz {

struct FrameStream {
  std::string bytes;
  std::vector<std::pair<size_t, size_t>> header_spans;
  size_t num_frames = 0;
};

FrameStream BuildValidStream(uint64_t seed) {
  Random rng(seed);
  FrameStream out;
  const auto add = [&](MsgType type, const std::string& payload) {
    out.header_spans.emplace_back(out.bytes.size(), out.bytes.size() + 8);
    net::AppendFrame(&out.bytes, type, 0, payload);
    ++out.num_frames;
  };
  add(MsgType::kDdl, kStockDdl);
  std::string batch;
  std::vector<EventPtr> events;
  const int n = 1 + static_cast<int>(rng.Uniform(6));
  for (int i = 0; i < n; ++i) {
    events.push_back(Stock("SYM" + std::to_string(rng.Uniform(3)),
                           static_cast<double>(rng.Uniform(100)),
                           static_cast<Timestamp>(i)));
  }
  net::AppendEventBatch(&batch, "stock", events, 0, events.size());
  add(MsgType::kEventBatch, batch);
  Match match;
  match.span = TimeSpan{0, 9};
  match.slots = {events.front(), nullptr, events.back()};
  std::string match_payload;
  net::AppendMatch(&match_payload, "q", match);
  add(MsgType::kMatch, match_payload);
  add(MsgType::kFlush, "");
  return out;
}

/// Drains the parser; every yielded frame must be sane, every error
/// coded. Returns the frames; stops on the sticky fatal state.
std::vector<FrameParser::Frame> DrainChecked(FrameParser* parser,
                                             uint32_t max_payload) {
  std::vector<FrameParser::Frame> frames;
  // Bounded: each iteration either consumes bytes or returns nullopt,
  // so buffered()+1 iterations cannot loop forever.
  for (size_t guard = 0; guard < parser->buffered() + 16; ++guard) {
    auto next = parser->Next();
    if (!next.ok()) {
      EXPECT_FALSE(next.status().error_code().empty())
          << "parser error must be coded: " << next.status();
      if (parser->broken()) break;
      continue;
    }
    if (!next->has_value()) break;
    EXPECT_TRUE(net::IsValidMsgType(
        static_cast<uint8_t>((**next).header.type)));
    EXPECT_LE((**next).payload.size(), max_payload);
    frames.push_back(std::move(**next));
  }
  return frames;
}

/// Runs the typed payload decoder for the frame's type: must return a
/// value or a coded error — never crash or read out of bounds (ASan).
void DecodeChecked(const FrameParser::Frame& frame) {
  PayloadReader reader(frame.payload);
  switch (frame.header.type) {
    case MsgType::kEventBatch: {
      auto stream_name = reader.ReadString();
      if (!stream_name.ok()) return;
      auto count = reader.ReadU32();
      if (!count.ok()) return;
      for (uint32_t i = 0; i < std::min<uint32_t>(*count, 1024); ++i) {
        if (!net::ReadEvent(&reader, StockSchema()).ok()) return;
      }
      break;
    }
    case MsgType::kMatch:
      (void)net::ReadMatch(&reader, StockSchema());
      break;
    default:
      break;
  }
}

}  // namespace fuzz

TEST(NetFrameParserFuzz, PayloadMutationsKeepFramingAndDecodeSafely) {
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Random rng(seed * 7919);
    fuzz::FrameStream stream = fuzz::BuildValidStream(seed);
    // Corrupt 1-8 payload bytes; headers stay intact, so framing must
    // deliver every frame and the trailing sentinel exactly once.
    const auto in_header = [&](size_t pos) {
      for (const auto& [lo, hi] : stream.header_spans) {
        if (pos >= lo && pos < hi) return true;
      }
      return false;
    };
    const int mutations = 1 + static_cast<int>(rng.Uniform(8));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Uniform(stream.bytes.size());
      if (in_header(pos)) continue;  // only payload bytes this test
      stream.bytes[pos] = static_cast<char>(rng.Uniform(256));
    }
    net::AppendFrame(&stream.bytes, MsgType::kDdl, 0, "SENTINEL");

    FrameParser parser;
    size_t pos = 0;
    std::vector<FrameParser::Frame> frames;
    while (pos < stream.bytes.size()) {
      const size_t chunk = std::min(stream.bytes.size() - pos,
                                    1 + rng.Uniform(97));
      parser.Append(stream.bytes.data() + pos, chunk);
      pos += chunk;
      auto drained = fuzz::DrainChecked(&parser, net::kMaxFramePayload);
      for (auto& f : drained) frames.push_back(std::move(f));
    }
    ASSERT_EQ(frames.size(), stream.num_frames + 1) << "seed " << seed;
    EXPECT_EQ(frames.back().payload, "SENTINEL") << "seed " << seed;
    for (const auto& frame : frames) fuzz::DecodeChecked(frame);
  }
}

TEST(NetFrameParserFuzz, ArbitraryMutationsNeverCrashOrAcceptOversized) {
  constexpr uint32_t kSmallBound = 4096;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Random rng(seed * 6271);
    fuzz::FrameStream stream = fuzz::BuildValidStream(seed);
    const int mutations = 1 + static_cast<int>(rng.Uniform(6));
    for (int m = 0; m < mutations; ++m) {
      // Anywhere, version and length bytes included.
      stream.bytes[rng.Uniform(stream.bytes.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    FrameParser parser(kSmallBound);
    size_t pos = 0;
    while (pos < stream.bytes.size()) {
      const size_t chunk = std::min(stream.bytes.size() - pos,
                                    1 + rng.Uniform(29));
      parser.Append(stream.bytes.data() + pos, chunk);
      pos += chunk;
      for (const auto& frame : fuzz::DrainChecked(&parser, kSmallBound)) {
        fuzz::DecodeChecked(frame);
      }
      if (parser.broken()) break;  // fatal (mutated version byte): done
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end over TCP
// ---------------------------------------------------------------------

TEST(NetServer, EndToEndStockMatchesEqualInProcess) {
  const auto events = ManyNameTrades(8000, 99);
  const std::string pattern_text(
      std::strstr(kRallyDdl, "PATTERN"));  // the query body
  const auto expected = SingleThreadedKeys(pattern_text, events);
  ASSERT_FALSE(expected.empty());

  ServerFixture fx(/*shards=*/2);
  auto ddl_client = fx.Connect();
  ASSERT_TRUE(ddl_client->Execute(kStockDdl).ok());
  ASSERT_TRUE(ddl_client->Execute(kRallyDdl).ok());

  // Subscribe on a second connection; replay on the first.
  auto sub_client = fx.Connect();
  auto sub = sub_client->Subscribe("rally");
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(sub->stream, "stock");

  auto ack = ddl_client->Ingest("stock", events, /*batch_size=*/512);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, events.size());
  EXPECT_EQ(ack->dropped, 0u);

  auto flush = ddl_client->Flush();
  ASSERT_TRUE(flush.ok()) << flush.status();
  ASSERT_EQ(flush->queries.size(), 1u);
  EXPECT_EQ(flush->queries[0].first, "rally");
  EXPECT_EQ(flush->queries[0].second, expected.size());

  // The subscriber receives the exact same match set (canonical keys).
  auto got = sub_client->WaitForMatches(expected.size(), /*timeout_ms=*/30000);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected.size());
  std::vector<std::string> keys;
  for (const NetMatch& m : sub_client->TakeMatches()) {
    EXPECT_EQ(m.query, "rally");
    keys.push_back(runtime::CanonicalMatchKey(m.match));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, expected);
}

TEST(NetServer, ReplayOverWireMatchesInProcess) {
  const auto events = ManyNameTrades(6000, 7);
  const std::string pattern_text(std::strstr(kRallyDdl, "PATTERN"));
  const auto expected = SingleThreadedKeys(pattern_text, events);

  ServerFixture fx(/*shards=*/2, {kStockDdl, kRallyDdl});
  auto client = fx.Connect();

  // Two connections, key-partitioned on the name field (index 1), into
  // two shards: each shard hears from exactly one connection, so its
  // stream is timestamp-ordered and the match set is exact.
  NetReplayOptions options;
  options.num_connections = 2;
  options.partition_field = 1;
  options.batch_size = 256;
  auto result = ReplayOverWire("127.0.0.1", fx.server->port(), "stock",
                               events, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->accepted, events.size());

  auto flush = client->Flush();
  ASSERT_TRUE(flush.ok()) << flush.status();
  ASSERT_EQ(flush->queries.size(), 1u);
  EXPECT_EQ(flush->queries[0].second, expected.size());
}

TEST(NetServer, MalformedDdlKeepsConnectionUsable) {
  ServerFixture fx;
  auto client = fx.Connect();

  auto bad = client->Execute("CREATE NONSENSE foo");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().error_code(), errc::kDdlUnknownStatement);
  EXPECT_GT(bad.status().line(), 0);

  auto worse = client->Execute("CREATE STREAM s (x WIBBLE)");
  ASSERT_FALSE(worse.ok());
  EXPECT_EQ(worse.status().error_code(), errc::kDdlUnknownType);

  // Same connection still serves valid statements.
  auto good = client->Execute(kStockDdl);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->name, "stock");
}

TEST(NetServer, ShowPlanAndShowQueriesOverWire) {
  ServerFixture fx(2, {kStockDdl, kRallyDdl});
  auto client = fx.Connect();

  auto plan = client->Execute("SHOW PLAN rally");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->kind, DdlKind::kShowPlan);
  EXPECT_NE(plan->message.find("stream=stock"), std::string::npos);
  EXPECT_NE(plan->message.find("plan="), std::string::npos);

  auto missing = client->Execute("SHOW PLAN nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().error_code(), errc::kCatalogUnknownQuery);
  EXPECT_EQ(missing.status().line(), 1);
  EXPECT_EQ(missing.status().column(), 11);

  auto queries = client->Execute("SHOW QUERIES");
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->rows.size(), 1u);
  EXPECT_EQ(queries->rows[0].name, "rally");
}

TEST(NetServer, IngestToUnknownStreamIsCodedError) {
  ServerFixture fx;
  auto client = fx.Connect();
  auto ack = client->Ingest("nope", {Stock("IBM", 1.0, 1)});
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().error_code(), errc::kCatalogUnknownStream);
  // Connection survives the error.
  EXPECT_TRUE(client->Execute(kStockDdl).ok());
}

TEST(NetServer, ConnectResolvesHostnames) {
  ServerFixture fx;
  auto client = Client::Connect("localhost", fx.server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE((*client)->Execute("SHOW STREAMS").ok());
}

TEST(NetServer, SubscribeUnknownQueryIsCodedError) {
  ServerFixture fx;
  auto client = fx.Connect();
  auto sub = client->Subscribe("ghost");
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().error_code(), errc::kCatalogUnknownQuery);
}

TEST(NetServer, ZeroLengthDdlFrameIsCodedError) {
  ServerFixture fx;
  RawConn raw(fx.server->port());
  std::string frame;
  net::AppendFrame(&frame, MsgType::kDdl, 0, "");
  raw.Write(frame);
  const Status err = raw.ReadError();
  EXPECT_EQ(err.error_code(), errc::kNetEmptyPayload);

  // The connection is still alive: a stats request answers.
  std::string stats;
  net::AppendFrame(&stats, MsgType::kStatsRequest, 0, "");
  raw.Write(stats);
  EXPECT_EQ(raw.ReadFrame().header.type, MsgType::kStats);
}

TEST(NetServer, TruncatedEventBatchOverWireIsCodedError) {
  ServerFixture fx(2, {kStockDdl});
  RawConn raw(fx.server->port());

  // A batch frame announcing 3 events but carrying only one event's
  // bytes: decode fails mid-payload with the truncation code and
  // nothing is ingested.
  std::string payload;
  net::PutString(&payload, "stock");
  net::PutU64(&payload, 0);  // v3: trace id (unsampled)
  net::PutU32(&payload, 3);
  net::AppendEvent(&payload, *Stock("IBM", 9.5, 1));
  std::string frame;
  net::AppendFrame(&frame, MsgType::kEventBatch, 0, payload);
  raw.Write(frame);
  const Status err = raw.ReadError();
  EXPECT_EQ(err.error_code(), errc::kNetTruncatedPayload);
  EXPECT_EQ(fx.server->runtime().Stats().events_ingested, 0u);

  // Follow with a well-formed single-event batch on the same socket.
  std::string ok_payload;
  net::PutString(&ok_payload, "stock");
  net::PutU64(&ok_payload, 0);  // v3: trace id (unsampled)
  net::PutU32(&ok_payload, 1);
  net::AppendEvent(&ok_payload, *Stock("IBM", 9.5, 2));
  std::string ok_frame;
  net::AppendFrame(&ok_frame, MsgType::kEventBatch, 0, ok_payload);
  raw.Write(ok_frame);
  EXPECT_EQ(raw.ReadFrame().header.type, MsgType::kIngestAck);
}

TEST(NetServer, OversizedFrameOverWireIsCodedErrorAndRecovers) {
  net::ServerOptions sopts;
  sopts.max_frame_payload = 1024;
  ZStream session;
  auto server = Server::Create(&session, {}, sopts);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Start().ok());

  RawConn raw((*server)->port());
  std::string big;
  net::AppendFrame(&big, MsgType::kDdl, 0, std::string(4096, 'x'));
  raw.Write(big);
  const Status err = raw.ReadError();
  EXPECT_EQ(err.error_code(), errc::kNetOversizedFrame);

  std::string stats;
  net::AppendFrame(&stats, MsgType::kStatsRequest, 0, "");
  raw.Write(stats);
  EXPECT_EQ(raw.ReadFrame().header.type, MsgType::kStats);
}

TEST(NetServer, DropPolicyReportsThrottleFlag) {
  // Tiny queues + kDropNewest + a paused shard: the ack must carry the
  // drop count and the throttle flag (protocol-level flow control).
  ZStream session;
  for (const char* stmt : {kStockDdl,
                           "CREATE QUERY pinned ON stock AS "
                           "PATTERN A;B WHERE A.price < B.price WITHIN 10"}) {
    ASSERT_TRUE(session.Execute(stmt).ok());
  }
  runtime::RuntimeOptions ropts;
  ropts.num_shards = 1;
  ropts.queue_capacity = 8;
  ropts.backpressure = runtime::BackpressurePolicy::kDropNewest;
  auto server = Server::Create(&session, ropts);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Start().ok());

  auto gate = (*server)->runtime().PauseShard(0);
  ASSERT_NE(gate, nullptr);
  gate->WaitParked();

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  std::vector<EventPtr> events;
  for (int i = 0; i < 64; ++i) {
    events.push_back(Stock("IBM", 1.0 + i, i));
  }
  auto ack = (*client)->Ingest("stock", events);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_GT(ack->dropped, 0u);
  EXPECT_TRUE(ack->throttled);
  EXPECT_EQ(ack->accepted + ack->dropped, events.size());

  gate->Open();
  (*server)->Stop();
}

TEST(NetServer, BadVersionFrameGetsErrorThenDisconnect) {
  ServerFixture fx;
  RawConn raw(fx.server->port());
  std::string bytes;
  net::PutU8(&bytes, 7);  // wrong protocol version
  net::PutU8(&bytes, static_cast<uint8_t>(MsgType::kFlush));
  net::PutU8(&bytes, 0);
  net::PutU8(&bytes, 0);
  net::PutU32(&bytes, 0);
  raw.Write(bytes);
  const Status err = raw.ReadError();
  EXPECT_EQ(err.error_code(), errc::kNetBadVersion);
  // The stream cannot be resynchronized: the server hangs up.
  EXPECT_TRUE(raw.WaitForClose(5000));
}

TEST(NetServer, RecreatedStreamMustKeepItsSchema) {
  ServerFixture fx;
  auto client = fx.Connect();
  ASSERT_TRUE(client->Execute("CREATE STREAM s (a INT, b STRING)").ok());
  ASSERT_TRUE(client->Execute("DROP STREAM s").ok());

  // Recreating with a different layout must fail — the runtime keeps
  // the original binding — and must not leave the catalog diverged.
  auto changed = client->Execute("CREATE STREAM s (a INT, b STRING, c INT)");
  ASSERT_FALSE(changed.ok());
  EXPECT_EQ(changed.status().error_code(), errc::kCatalogDuplicateStream);
  auto ingest_gone = client->Ingest(
      "s", {EventBuilder(Schema::Make({{"a", ValueType::kInt64},
                                       {"b", ValueType::kString}}))
                .Set("a", 1)
                .Set("b", "x")
                .At(1)
                .Build()});
  ASSERT_FALSE(ingest_gone.ok());  // catalog rolled back: stream unknown
  EXPECT_EQ(ingest_gone.status().error_code(), errc::kCatalogUnknownStream);

  // Recreating with the identical schema reuses the binding and serves.
  ASSERT_TRUE(client->Execute("CREATE STREAM s (a INT, b STRING)").ok());
  auto ingest = client->Ingest(
      "s", {EventBuilder(Schema::Make({{"a", ValueType::kInt64},
                                       {"b", ValueType::kString}}))
                .Set("a", 1)
                .Set("b", "x")
                .At(1)
                .Build()});
  ASSERT_TRUE(ingest.ok()) << ingest.status();
  EXPECT_EQ(ingest->accepted, 1u);
}

TEST(NetServer, IngestSplitsOversizedBatchesByBytes) {
  // 24 events of ~1 MiB each with the default batch_size would encode
  // a ~24 MiB frame, past the 16 MiB protocol bound; the client must
  // split by encoded bytes and the whole trace must land.
  ServerFixture fx(1, {"CREATE STREAM blobs (data STRING)"});
  auto client = fx.Connect();
  const SchemaPtr schema = Schema::Make({{"data", ValueType::kString}});
  std::vector<EventPtr> events;
  for (int i = 0; i < 24; ++i) {
    events.push_back(EventBuilder(schema)
                         .Set("data", Value(std::string(1u << 20, 'x')))
                         .At(i)
                         .Build());
  }
  auto ack = client->Ingest("blobs", events);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, events.size());
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_EQ(fx.server->runtime().Stats().events_ingested, events.size());
}

TEST(NetServer, ReplayRejectsOutOfRangePartitionField) {
  ServerFixture fx(2, {kStockDdl});
  NetReplayOptions options;
  options.partition_field = 9;  // stock schema has 5 fields
  auto result = ReplayOverWire("127.0.0.1", fx.server->port(), "stock",
                               {Stock("IBM", 1.0, 1)}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(NetServer, DropQueryStopsServiceAndUnsubscribes) {
  ServerFixture fx(2, {kStockDdl, kRallyDdl});
  auto client = fx.Connect();
  ASSERT_TRUE(client->Subscribe("rally").ok());
  ASSERT_TRUE(client->Execute("DROP QUERY rally").ok());

  auto flush = client->Flush();
  ASSERT_TRUE(flush.ok());
  EXPECT_TRUE(flush->queries.empty());
  auto sub = client->Subscribe("rally");
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().error_code(), errc::kCatalogUnknownQuery);
}

}  // namespace
}  // namespace zstream::testing
