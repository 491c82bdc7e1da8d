#include "workloads.h"

#include <algorithm>
#include <random>
#include <thread>

#include "api/internal.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/match_sink.h"
#include "runtime/stream_runtime.h"
#include "workload/stock_gen.h"
#include "workload/weblog_gen.h"

namespace zbench {
namespace {

using zstream::EventPtr;
using zstream::Timestamp;

constexpr char kStockDdl[] =
    "CREATE STREAM stock "
    "(id INT, name STRING, price DOUBLE, volume INT, ts INT)";
constexpr char kWeblogDdl[] =
    "CREATE STREAM weblog (ip STRING, url STRING, category STRING)";

// Weblog event time is in ms. The send order displaces each event by
// less than kWeblogJitterMs; the runtime's reorder stage absorbs twice
// that, so no event is late.
constexpr zstream::Duration kWeblogJitterMs = 60 * 1000;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"stock-seq", Entry::kSession, "stock", kStockDdl,
       // Paper Query 4 at selectivity 1/4 (Sun's price is pinned below).
       "PATTERN IBM;Sun;Oracle "
       "WHERE IBM.name='IBM' AND Sun.name='Sun' AND Oracle.name='Oracle' "
       "AND IBM.price > Sun.price WITHIN 200",
       1, 0, 25000.0, 3000},
      {"weblog-keyed", Entry::kRuntime, "weblog", kWeblogDdl,
       // Paper Query 8.
       "PATTERN Pub;Proj;Course "
       "WHERE Pub.category='publication' AND Proj.category='project' "
       "AND Course.category='course' "
       "AND Pub.ip = Proj.ip = Course.ip WITHIN 10 hours",
       2, 2 * kWeblogJitterMs, 400000.0, 250000},
      {"wire-rally", Entry::kServer, "stock", kStockDdl,
       // Paper Query 2 shape: same name, rising prices.
       "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
       "AND A.price < B.price AND B.price < C.price WITHIN 100",
       1, 0, 40000.0, 100000},
  };
  return specs;
}

Input StockInput(const WorkloadSpec& spec, uint64_t seed, bool tiny) {
  zstream::StockGenOptions gen;
  if (spec.name == "stock-seq") {
    gen.names = {"IBM", "Sun", "Oracle"};
    gen.weights = {1, 1, 1};
    gen.num_events = tiny ? 3000 : 60000;
    gen.fixed_price = {
        {"Sun", zstream::FixedPriceForSelectivity(0.25, 0, 100)}};
  } else {
    gen.names.clear();
    gen.weights.clear();
    for (int i = 0; i < 16; ++i) {
      gen.names.push_back("SYM" + std::to_string(i));
      gen.weights.push_back(1.0);
    }
    gen.num_events = tiny ? 5000 : 100000;
  }
  gen.seed = seed;
  gen.ts_step = 1;  // unique timestamps
  Input input;
  input.ts_order = zstream::GenerateStockTrades(gen);
  input.send_order = input.ts_order;
  return input;
}

Input WeblogInput(uint64_t seed, bool tiny) {
  zstream::WebLogGenOptions gen;
  gen.num_ips = 10000;  // 10x Table 4's population
  // Without burst crawlers matches stay few and spread out, so routing,
  // reorder, admission and keyed state do the work. With them a few
  // seed-dependent crawl sessions complete most matches in single-event
  // assembly bursts that dominate both the work and the latency tail.
  gen.num_burst_ips = 0;
  if (tiny) {
    gen.total_records = 30000;
    gen.publication_accesses /= 50;
    gen.project_accesses /= 50;
    gen.course_accesses /= 50;
    gen.num_ips = 500;
  }
  gen.seed = seed;
  std::vector<EventPtr> log = zstream::GenerateWebLog(gen);

  // Unique timestamps: bump collisions forward by 1 ms. Each original is
  // released once copied, so the input is never held twice.
  Input input;
  input.ts_order.reserve(log.size());
  std::vector<Timestamp> ts(log.size());
  Timestamp prev = INT64_MIN;
  for (size_t i = 0; i < log.size(); ++i) {
    ts[i] = std::max(log[i]->timestamp(), prev + 1);
    prev = ts[i];
    input.ts_order.push_back(std::make_shared<zstream::Event>(
        log[i]->schema(), log[i]->values(), ts[i]));
    log[i].reset();
  }

  // Bounded disorder: send by timestamp + uniform jitter < the bound.
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  std::uniform_int_distribution<zstream::Duration> jitter(
      0, kWeblogJitterMs - 1);
  std::vector<std::pair<Timestamp, uint32_t>> keyed(log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    keyed[i] = {ts[i] + jitter(rng), static_cast<uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  input.send_order.reserve(log.size());
  for (const auto& [key, idx] : keyed) {
    input.send_order.push_back(input.ts_order[idx]);
  }
  return input;
}

class SessionPath : public Path {
 public:
  SessionPath(const WorkloadSpec& spec, Consumer* consumer) {
    if (auto ddl = session_.Execute(spec.stream_ddl); !ddl.ok()) {
      error_ = ddl.status().ToString();
      return;
    }
    auto query = session_.Compile(spec.stream, spec.query);
    if (!query.ok()) {
      error_ = query.status().ToString();
      return;
    }
    query_ = std::move(*query);
    query_->SetMatchCallback(
        [consumer](zstream::Match&& m) { consumer->OnMatch(m); });
  }

  void Send(const EventPtr* events, size_t n) override {
    for (size_t i = 0; i < n; ++i) query_->Push(events[i]);
  }
  bool Finish() override {
    query_->Finish();
    return true;
  }
  uint64_t Matches() override { return query_->num_matches(); }
  uint64_t Failed() override {
    using zstream::internal::QueryAccess;
    if (auto* engine = QueryAccess::SingleEngine(*query_)) {
      return engine->late_events();
    }
    return QueryAccess::Partitioned(*query_)->late_events();
  }

 private:
  zstream::ZStream session_;
  std::unique_ptr<zstream::Query> query_;
};

class RuntimePath : public Path {
 public:
  RuntimePath(const WorkloadSpec& spec, Consumer* consumer)
      : sink_([consumer](zstream::runtime::RuntimeMatch&& m) {
          consumer->OnMatch(m.match);
        }) {
    if (auto ddl = session_.Execute(spec.stream_ddl); !ddl.ok()) {
      error_ = ddl.status().ToString();
      return;
    }
    auto rt = session_.StartRuntime(RuntimeOpts(spec));
    if (!rt.ok()) {
      error_ = rt.status().ToString();
      return;
    }
    runtime_ = std::move(*rt);
    stream_ = *runtime_->stream(spec.stream);
    zstream::runtime::QueryOptions options;
    options.sink = &sink_;
    auto id = runtime_->RegisterQuery(stream_, spec.query, {}, options);
    if (!id.ok()) {
      error_ = id.status().ToString();
      return;
    }
    query_ = *id;
  }

  ~RuntimePath() override {
    if (runtime_ != nullptr) runtime_->Stop();
  }

  void Send(const EventPtr* events, size_t n) override {
    chunk_.assign(events, events + n);
    dropped_ += runtime_->IngestBatch(stream_, chunk_);
  }
  bool Finish() override { return runtime_->Flush().ok(); }
  uint64_t Matches() override {
    return runtime_->query_matches(query_).ValueOr(0);
  }
  uint64_t Failed() override {
    const zstream::runtime::RuntimeStats stats = runtime_->Stats();
    return std::max(dropped_, stats.events_dropped) + stats.late_dropped;
  }

 private:
  zstream::ZStream session_;
  zstream::runtime::CallbackMatchSink sink_;
  std::unique_ptr<zstream::runtime::StreamRuntime> runtime_;
  zstream::runtime::StreamId stream_ = 0;
  zstream::runtime::QueryId query_ = 0;
  std::vector<EventPtr> chunk_;
  uint64_t dropped_ = 0;
};

class ServerPath : public Path {
 public:
  ServerPath(const WorkloadSpec& spec, Consumer* consumer)
      : stream_(spec.stream), consumer_(consumer) {
    zstream::net::ServerOptions options;
    // A subscriber that falls behind must not be disconnected mid-pass.
    options.max_write_buffer_bytes = size_t{1} << 30;
    auto server =
        zstream::net::Server::Create(&session_, RuntimeOpts(spec), options);
    if (!server.ok()) {
      error_ = server.status().ToString();
      return;
    }
    server_ = std::move(*server);
    if (auto st = server_->Start(); !st.ok()) {
      error_ = st.ToString();
      return;
    }
    auto producer = zstream::net::Client::Connect("127.0.0.1", server_->port());
    auto subscriber =
        zstream::net::Client::Connect("127.0.0.1", server_->port());
    if (!producer.ok() || !subscriber.ok()) {
      error_ = "connect failed";
      return;
    }
    producer_ = std::move(*producer);
    subscriber_ = std::move(*subscriber);
    for (const std::string& stmt :
         {spec.stream_ddl,
          "CREATE QUERY bench ON " + spec.stream + " AS " + spec.query}) {
      if (auto r = producer_->Execute(stmt); !r.ok()) {
        error_ = r.status().ToString();
        return;
      }
    }
    if (auto sub = subscriber_->Subscribe("bench"); !sub.ok()) {
      error_ = sub.status().ToString();
      return;
    }
    receiver_ = std::thread([this] { Receive(); });
  }

  ~ServerPath() override {
    StopReceiving();
    if (server_ != nullptr) server_->Stop();
  }

  void StopReceiving() override {
    stop_.store(true);
    if (receiver_.joinable()) receiver_.join();
  }

  void Send(const EventPtr* events, size_t n) override {
    chunk_.assign(events, events + n);
    auto ack = producer_->Ingest(stream_, chunk_, chunk_.size());
    if (!ack.ok()) {
      rejected_ += n;
      if (error_.empty()) error_ = ack.status().ToString();
      return;
    }
    rejected_ += n - std::min<uint64_t>(n, ack->accepted);
    dropped_ += ack->dropped;
  }

  bool Finish() override {
    auto flush = producer_->Flush();
    if (!flush.ok() || flush->queries.empty()) {
      if (error_.empty()) {
        error_ = flush.ok() ? "empty flush ack" : flush.status().ToString();
      }
      return false;
    }
    flushed_matches_ = flush->queries.front().second;
    return true;
  }

  bool AwaitDelivery() override {
    const int64_t deadline = NowNs() + 60'000'000'000LL;
    while (received_.load(std::memory_order_acquire) < flushed_matches_) {
      if (receiver_failed_.load() || NowNs() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return received_.load() == flushed_matches_;
  }

  uint64_t Matches() override { return flushed_matches_; }
  uint64_t Failed() override {
    const auto stats = server_->runtime().Stats();
    return rejected_ + std::max(dropped_, stats.events_dropped) +
           stats.late_dropped;
  }
  int64_t ReceiverCpuNs() const override { return receiver_cpu_ns_; }
  double MatchWireBytes() const override {
    return sized_ == 0 ? 0.0
                       : static_cast<double>(match_wire_bytes_) /
                             static_cast<double>(sized_);
  }

 private:
  // Subscriber thread: the only user of subscriber_ and consumer_ until
  // it is joined. Its CPU time inside WaitForMatches/TakeMatches is the
  // delivery cost; wire sizes are measured on the first matches only.
  void Receive() {
    constexpr size_t kSizedMatches = 4096;
    std::string scratch;
    while (!stop_.load(std::memory_order_relaxed)) {
      const int64_t cpu0 = ThreadCpuNs();
      auto waited = subscriber_->WaitForMatches(1, 20);
      std::vector<zstream::net::NetMatch> matches =
          subscriber_->TakeMatches();
      receiver_cpu_ns_ += ThreadCpuNs() - cpu0;
      if (!waited.ok()) {
        receiver_failed_.store(true);
        return;
      }
      if (matches.empty()) continue;
      const int64_t now = NowNs();
      for (const zstream::net::NetMatch& m : matches) {
        consumer_->OnMatchAt(m.match, now);
      }
      for (size_t i = 0; i < matches.size() && sized_ < kSizedMatches;
           ++i, ++sized_) {
        scratch.clear();
        zstream::net::AppendMatch(&scratch, matches[i].query,
                                  matches[i].match, matches[i].trace_id);
        match_wire_bytes_ += scratch.size() + zstream::net::kFrameHeaderSize;
      }
      received_.fetch_add(matches.size(), std::memory_order_release);
    }
  }

  std::string stream_;
  Consumer* consumer_;
  zstream::ZStream session_;
  std::unique_ptr<zstream::net::Server> server_;
  std::unique_ptr<zstream::net::Client> producer_;
  std::unique_ptr<zstream::net::Client> subscriber_;
  std::vector<EventPtr> chunk_;
  uint64_t rejected_ = 0;
  uint64_t dropped_ = 0;
  uint64_t flushed_matches_ = 0;
  std::atomic<uint64_t> received_{0};
  std::atomic<bool> receiver_failed_{false};
  std::atomic<bool> stop_{false};
  // Written by the receiver thread, read after StopReceiving joined it.
  int64_t receiver_cpu_ns_ = 0;
  uint64_t match_wire_bytes_ = 0;
  size_t sized_ = 0;
  std::thread receiver_;
};

void WaitUntil(int64_t due_ns) {
  while (true) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    }
  }
}

}  // namespace

zstream::runtime::RuntimeOptions RuntimeOpts(const WorkloadSpec& spec) {
  zstream::runtime::RuntimeOptions options;
  options.num_shards = spec.shards;
  options.queue_capacity = 8192;
  options.backpressure = zstream::runtime::BackpressurePolicy::kBlock;
  options.reorder_slack = spec.reorder_slack;
  return options;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int64_t Input::SendIndex(Timestamp ts) const {
  auto it = std::lower_bound(
      send_index.begin(), send_index.end(),
      std::pair<Timestamp, uint32_t>{ts, 0});
  if (it == send_index.end() || it->first != ts) return -1;
  return it->second;
}

Input Input::Prefix(size_t n) const {
  Input out;
  n = std::min(n, send_order.size());
  out.send_order.assign(send_order.begin(),
                        send_order.begin() + static_cast<long>(n));
  out.ts_order = out.send_order;
  std::sort(out.ts_order.begin(), out.ts_order.end(),
            [](const EventPtr& a, const EventPtr& b) {
              return a->timestamp() < b->timestamp();
            });
  return out;
}

Input Generate(const WorkloadSpec& spec, uint64_t seed, bool tiny) {
  Input input = spec.name == "weblog-keyed" ? WeblogInput(seed, tiny)
                                            : StockInput(spec, seed, tiny);
  input.send_index.reserve(input.send_order.size());
  for (size_t i = 0; i < input.send_order.size(); ++i) {
    input.send_index.emplace_back(input.send_order[i]->timestamp(),
                                  static_cast<uint32_t>(i));
  }
  std::sort(input.send_index.begin(), input.send_index.end());
  return input;
}

int64_t Consumer::DueNs(int64_t send_index) const {
  return t0_ns_.load(std::memory_order_acquire) +
         static_cast<int64_t>(static_cast<double>(send_index) * period_ns_);
}

void Consumer::OnMatch(const zstream::Match& match) {
  if (input_ != nullptr &&
      (match.span.end != last_end_ || ++since_read_ >= 64)) {
    cached_now_ = NowNs();
    since_read_ = 0;
  }
  OnMatchAt(match, cached_now_);
}

void Consumer::OnMatchAt(const zstream::Match& match, int64_t now_ns) {
  digest.Add(match);
  if (check_keys && digest.count % 1024 == 1 &&
      RenderKey(match) != zstream::runtime::CanonicalMatchKey(match)) {
    ++key_mismatches;
  }
  if (input_ == nullptr) return;
  if (match.span.end != last_end_) {
    last_end_ = match.span.end;
    last_due_ = DueNs(input_->SendIndex(last_end_));
  }
  latency_ns.Add(static_cast<double>(now_ns - last_due_));
}

std::unique_ptr<Path> OpenPath(const WorkloadSpec& spec, Entry entry,
                               Consumer* consumer, std::string* error) {
  std::unique_ptr<Path> path;
  switch (entry) {
    case Entry::kSession:
      path = std::make_unique<SessionPath>(spec, consumer);
      break;
    case Entry::kRuntime:
      path = std::make_unique<RuntimePath>(spec, consumer);
      break;
    case Entry::kServer:
      path = std::make_unique<ServerPath>(spec, consumer);
      break;
  }
  if (!path->error().empty()) {
    *error = path->error();
    return nullptr;
  }
  return path;
}

PassResult RunPass(const WorkloadSpec& spec, Entry entry, const Input& input,
                   double rate, SpanLog* spans, int parent) {
  PassResult result;
  const std::vector<EventPtr>& events = input.send_order;
  result.events = events.size();
  Consumer consumer;
  if (rate > 0.0) consumer.Schedule(&input, 1e9 / rate);

  const int64_t setup0 = NowNs();
  std::unique_ptr<Path> path;
  {
    SpanScope setup_span(spans, "setup", parent);
    path = OpenPath(spec, entry, &consumer, &result.error);
  }
  result.setup_s = static_cast<double>(NowNs() - setup0) * 1e-9;
  if (path == nullptr) {
    result.failed = events.size();
    return result;
  }

  const int pass_span = spans->Begin("pass", parent);
  result.pass_span = pass_span;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  bool ok = true;
  if (rate <= 0.0) {
    for (size_t i = 0; i < events.size(); i += kSendChunk) {
      SpanScope send(spans, "send", pass_span);
      path->Send(&events[i], std::min(kSendChunk, events.size() - i));
    }
  } else {
    // Open loop: event k is due at t0 + k / rate. The generator wakes at
    // most once per kTickNs and sends everything due by then, so its
    // schedule never depends on the system; a stall only delays later
    // sends, and the delay is charged to their lag and their matches'
    // latency.
    constexpr int64_t kTickNs = 1'000'000;
    const double period = 1e9 / rate;
    const int64_t t0 = NowNs() + kTickNs;
    consumer.Start(t0);
    result.lag_ns.reserve(events.size());
    auto due = [&](size_t k) {
      return t0 + static_cast<int64_t>(static_cast<double>(k) * period);
    };
    size_t i = 0;
    int64_t next_send = t0;
    while (i < events.size()) {
      WaitUntil(std::max(next_send, due(i)));
      const int64_t now = NowNs();
      size_t j = static_cast<size_t>(static_cast<double>(now - t0) / period) + 1;
      j = std::clamp(j, i + 1, std::min(events.size(), i + kSendChunk));
      for (size_t k = i; k < j; ++k) {
        result.lag_ns.push_back(static_cast<float>(now - due(k)));
      }
      path->Send(&events[i], j - i);
      i = j;
      next_send = now + kTickNs;
    }
  }
  {
    SpanScope finish(spans, "finish", pass_span);
    ok = path->Finish();
  }
  const int64_t end = NowNs();
  spans->End(pass_span);
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  ok = ok && path->AwaitDelivery();
  result.elapsed_s = static_cast<double>(end - start) * 1e-9;
  result.delivered_s = static_cast<double>(NowNs() - start) * 1e-9;
  path->StopReceiving();
  result.program_matches = path->Matches();
  result.failed = path->Failed();
  result.receiver_cpu_ns = path->ReceiverCpuNs();
  result.match_wire_bytes = path->MatchWireBytes();
  result.error = path->error();
  if (!ok && result.error.empty()) result.error = "barrier or delivery failed";
  path.reset();
  result.ok = ok && result.error.empty();
  result.digest = consumer.digest;
  result.latency_ns = std::move(consumer.latency_ns);
  return result;
}

Digest ReferenceDigest(const WorkloadSpec& spec, const Input& input,
                       const zstream::CompileOptions& options,
                       uint64_t* key_mismatches) {
  zstream::ZStream session;
  Consumer consumer;
  consumer.check_keys = true;
  if (!session.Execute(spec.stream_ddl).ok()) return {};
  auto query = session.Compile(spec.stream, spec.query, options);
  if (!query.ok()) return {};
  (*query)->SetMatchCallback(
      [&consumer](zstream::Match&& m) { consumer.OnMatch(m); });
  for (const EventPtr& e : input.ts_order) (*query)->Push(e);
  (*query)->Finish();
  *key_mismatches = consumer.key_mismatches;
  return consumer.digest;
}

}  // namespace zbench
