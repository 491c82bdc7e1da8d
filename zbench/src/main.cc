// The repo benchmark's runner: runs one workload for one seed and prints
// a JSON document (its last stdout line) with every metric's value and
// per-pass samples, the correctness checks and the match digest.
// zbench/run.py builds this binary, adds quartiles and provenance, and
// prints the benchmark's result line.
//
//   zbench_runner --workload stock-seq --seed 1 --seconds 20 --trace 0
//                 [--tiny] [--spans FILE] [--verify-only | --setup-only]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (cut-point ledger, public counters, set-up steps)
// and records the benchmark's own spans.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/internal.h"
#include "harness.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/stream_runtime.h"
#include "verify/plan_verifier.h"
#include "workloads.h"

namespace zbench {
namespace {

using zstream::EventPtr;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool verify_only = false;
  bool setup_only = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--verify-only") {
      args->verify_only = true;
    } else if (flag == "--setup-only") {
      args->setup_only = true;
    } else if (const char* v = (flag == "--workload" || flag == "--seed" ||
                                flag == "--seconds" || flag == "--trace" ||
                                flag == "--spans")
                                   ? value()
                                   : nullptr) {
      if (flag == "--workload") args->workload = v;
      if (flag == "--seed") args->seed = std::strtoull(v, nullptr, 10);
      if (flag == "--seconds") args->seconds = std::strtod(v, nullptr);
      if (flag == "--trace") args->trace = std::atoi(v) != 0;
      if (flag == "--spans") args->spans_path = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", argv[i]);
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Median wall time of `fn` over `reps` calls, in ns.
int64_t MedianNs(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    fn();
    times.push_back(static_cast<double>(NowNs() - t0));
  }
  return static_cast<int64_t>(Median(times));
}

/// Checks one pass against the reference and accounts its events.
void AccountPass(const PassResult& pass, const Digest& reference,
                 const std::string& label, Report* report) {
  report->attempted += pass.events;
  const bool digest_ok =
      pass.ok && pass.digest == reference &&
      pass.program_matches == reference.count && pass.failed == 0;
  // A pass whose matches differ counts every one of its events as failed.
  report->failed += digest_ok ? 0 : std::max<uint64_t>(pass.failed, pass.events);
  if (!digest_ok) {
    report->Check(label, false,
                  "error='" + pass.error + "' matches=" +
                      std::to_string(pass.digest.count) + " program=" +
                      std::to_string(pass.program_matches) + " digest=" +
                      pass.digest.Hex() + " failed_events=" +
                      std::to_string(pass.failed));
  }
}

/// Reference digest plus the cross-path checks every run makes.
Digest Verify(const WorkloadSpec& spec, const Input& input, Report* report) {
  uint64_t key_mismatches = 0;
  const Digest reference =
      ReferenceDigest(spec, input, zstream::CompileOptions{}, &key_mismatches);
  report->Check("canonical_key_fields", key_mismatches == 0,
                std::to_string(key_mismatches) +
                    " sampled matches whose digest fields differ from "
                    "CanonicalMatchKey");
  report->Check("reference_nonempty", reference.count > 0,
                "reference matches=" + std::to_string(reference.count));
  if (spec.entry == Entry::kSession) {
    // A different plan shape assembles the same match set.
    zstream::CompileOptions right;
    right.strategy = zstream::PlanStrategy::kRightDeep;
    uint64_t unused = 0;
    const Digest alt = ReferenceDigest(spec, input, right, &unused);
    report->Check("right_deep_plan_digest", alt == reference,
                  "right-deep " + alt.Hex() + " vs " + reference.Hex());
  } else {
    // In-process sharded runtime over the send order.
    SpanLog off(false, "");
    const PassResult in_process =
        RunPass(spec, Entry::kRuntime, input, 0.0, &off, -1);
    report->Check("in_process_runtime_digest",
                  in_process.ok && in_process.digest == reference,
                  "runtime " + in_process.digest.Hex() + " (" +
                      std::to_string(in_process.digest.count) + ") vs " +
                      reference.Hex());
  }
  report->reference = reference;
  return reference;
}

/// Set-up time: the entry point opened and closed repeatedly with no
/// traffic, before any pass has filled the heap.
void SetupPhase(const WorkloadSpec& spec, Report* report) {
  constexpr int kSetups = 31;
  std::vector<double> setup_s;
  std::string errors;
  for (int i = 0; i < kSetups; ++i) {
    Consumer consumer;
    std::string error;
    const int64_t t0 = NowNs();
    std::unique_ptr<Path> path = OpenPath(spec, spec.entry, &consumer, &error);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (path == nullptr) errors += error + ";";
  }
  report->Check("setup_opens", errors.empty(),
                std::to_string(kSetups) + " set-ups; errors: " + errors);
  report->Add("setup_s", "s", Median(setup_s), setup_s);
}

void EndToEnd(const WorkloadSpec& spec, const Input& input,
              const Digest& reference, double seconds, Report* report) {
  SpanLog no_spans(false, "");
  std::vector<double> throughput;
  std::vector<double> cpu_us;
  // Throughput and CPU move with the host far more than latency does, so
  // the max-rate phase gets the larger share of the run.
  const int64_t max_rate_ns = static_cast<int64_t>(seconds * 0.6e9);
  const int64_t open_loop_ns = static_cast<int64_t>(seconds * 0.4e9);

  // Max-rate phase: one producer, blocking backpressure, whole input.
  // The session entry runs on one thread. On a shared host each CPU's
  // speed drifts on its own by up to ~25% over tens of seconds, so its
  // passes rotate over the CPUs the process may use rather than measure
  // whichever one the scheduler kept it on. Multi-threaded entries spread
  // over the CPUs by themselves (their threads inherit the affinity, so
  // they are never pinned).
  const std::vector<int> cpus = AllowedCpus();
  const bool rotate = spec.entry == Entry::kSession && cpus.size() > 1;
  int64_t phase_end = NowNs() + max_rate_ns;
  for (int pass = 0; pass < 3 || NowNs() < phase_end; ++pass) {
    if (rotate) RunOn({cpus[static_cast<size_t>(pass) % cpus.size()]});
    const PassResult r = RunPass(spec, spec.entry, input, 0.0, &no_spans, -1);
    AccountPass(r, reference, "max_rate_pass_" + std::to_string(pass), report);
    throughput.push_back(static_cast<double>(r.events) / r.elapsed_s);
    cpu_us.push_back(r.cpu_s * 1e6 / static_cast<double>(r.events));
  }
  if (rotate) RunOn(cpus);
  // Read before the open-loop phase, whose latency bookkeeping is the
  // benchmark's memory, not the program's.
  const double peak_rss_mb = PeakRssMb();

  // Open-loop phase at the workload's fixed rate.
  Samples latency;
  std::vector<float> lag;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> lag99s;
  phase_end = NowNs() + open_loop_ns;
  for (int pass = 0; pass < 2 || NowNs() < phase_end; ++pass) {
    PassResult r = RunPass(spec, spec.entry, input, spec.open_loop_rate,
                           &no_spans, -1);
    AccountPass(r, reference, "open_loop_pass_" + std::to_string(pass),
                report);
    p50s.push_back(r.latency_ns.Quantile(0.50) * 1e-6);
    p99s.push_back(r.latency_ns.Quantile(0.99) * 1e-6);
    lag.insert(lag.end(), r.lag_ns.begin(), r.lag_ns.end());
    lag99s.push_back(Quantile(&r.lag_ns, 0.99) * 1e-6);
    latency.Merge(r.latency_ns);
  }

  report->Add("throughput_eps", "ev/s", Median(throughput), throughput);
  report->Add("latency_p50_ms", "ms", latency.Quantile(0.50) * 1e-6, p50s);
  report->Add("latency_p99_ms", "ms", latency.Quantile(0.99) * 1e-6, p99s);
  const size_t lag_count = lag.size();
  report->Add("gen_lag_p99_ms", "ms", Quantile(&lag, 0.99) * 1e-6, lag99s);
  report->Add("cpu_us_per_event", "us", Median(cpu_us), cpu_us);
  report->Add("peak_rss_mb", "MB", peak_rss_mb);
  report->Note("latency samples (matches): " +
               std::to_string(latency.count()) +
               "; generator samples (events): " + std::to_string(lag_count));
}

// ---------------------------------------------------------------------
// Per-layer metrics (traced run)
// ---------------------------------------------------------------------

void SumProfile(const zstream::NodeProfile& node, uint64_t* pairs,
                uint64_t* leaf_in, uint64_t* leaf_out) {
  *pairs += node.pairs_tried;
  if (node.children.empty()) {
    *leaf_in += node.events_in;
    *leaf_out += node.records_out;
  }
  for (const auto& child : node.children) {
    SumProfile(child, pairs, leaf_in, leaf_out);
  }
}

/// Cut point 3: Engine::PushBatch with no match consumer (count only),
/// timestamp-ordered input. Returns ns per event.
double ExecCut(const WorkloadSpec& spec, const std::vector<EventPtr>& events,
               const Digest& reference, Report* report) {
  using zstream::internal::QueryAccess;
  std::vector<double> ns;
  zstream::ZStream session;
  (void)session.Execute(spec.stream_ddl);
  std::unique_ptr<zstream::Query> query;
  for (int rep = 0; rep < 3; ++rep) {
    auto compiled = session.Compile(spec.stream, spec.query);
    if (!compiled.ok()) return 0.0;
    query = std::move(*compiled);
    zstream::EngineCore* core = QueryAccess::Core(*query);
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < events.size(); i += kSendChunk) {
      core->PushBatch(zstream::EventBatch{
          &events[i], std::min(kSendChunk, events.size() - i)});
    }
    core->Finish();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  zstream::EngineCore* core = QueryAccess::Core(*query);
  uint64_t pairs = 0;
  uint64_t leaf_in = 0;
  uint64_t leaf_out = 0;
  SumProfile(core->Profile(), &pairs, &leaf_in, &leaf_out);
  const double n = static_cast<double>(events.size());
  const double t = Median(ns);
  const double matches = static_cast<double>(core->num_matches());
  report->Check("ledger_exec_count", core->num_matches() == reference.count,
                "engine cut matches=" + std::to_string(core->num_matches()) +
                    " vs " + std::to_string(reference.count));
  zstream::Engine* single = QueryAccess::SingleEngine(*query);
  zstream::PartitionedEngine* parted = QueryAccess::Partitioned(*query);
  const double keys =
      parted != nullptr ? static_cast<double>(parted->num_partitions()) : 1.0;
  const double peak = static_cast<double>(core->memory().peak_bytes());
  const double p = static_cast<double>(pairs);
  std::vector<double> per_event;
  for (double v : ns) per_event.push_back(v / n);
  report->Add("exec.push_ns_per_event", "ns", t / n, per_event);
  report->Add("exec.pairs_per_event", "count", p / n);
  report->Add("exec.ns_per_pair", "ns", pairs ? t / p : 0.0);
  report->Add("exec.ns_per_match", "ns", matches > 0 ? t / matches : 0.0);
  report->Add("exec.match_yield", "ratio", pairs ? matches / p : 0.0);
  // PartitionedEngine does not expose its sub-engines' assembly rounds.
  report->Add("exec.rounds_per_kevent", "count",
              single != nullptr
                  ? static_cast<double>(single->assembly_rounds()) * 1e3 / n
                  : 0.0);
  if (single == nullptr) {
    report->Note("exec.rounds_per_kevent: not exposed for partitioned "
                 "queries; reported as 0");
  }
  report->Add("exec.state_peak_mb", "MB", peak / 1e6);
  report->Add("exec.state_bytes_per_key", "B", peak / keys);
  report->Add("expr.leaf_admit_frac", "ratio",
              leaf_in ? static_cast<double>(leaf_out) /
                            static_cast<double>(leaf_in)
                      : 0.0);
  return t / n;
}

/// Cut point 4 with the runtime's public counters: in-process
/// StreamRuntime over the send order, count only, Stats() sampled every
/// millisecond.
/// Returns ns per event.
double RuntimeCut(const WorkloadSpec& spec, const Input& input,
                  const Digest& reference, Report* report) {
  zstream::ZStream session;
  (void)session.Execute(spec.stream_ddl);
  const std::vector<int> before = TaskIds();
  auto rt = session.StartRuntime(RuntimeOpts(spec));
  if (!rt.ok()) return 0.0;
  std::vector<int> workers;
  for (int tid : TaskIds()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      workers.push_back(tid);
    }
  }
  // No sink: matches are only counted, as in the engine cut.
  const auto stream = *(*rt)->stream(spec.stream);
  auto query = (*rt)->RegisterQuery(stream, spec.query);
  if (!query.ok()) return 0.0;

  std::atomic<bool> stop{false};
  Samples depth;
  double pending_max = 0.0;
  std::thread sampler([&] {
    while (!stop.load()) {
      const auto stats = (*rt)->Stats();
      size_t deepest = 0;
      for (const auto& s : stats.shards) {
        deepest = std::max(deepest, s.queue_depth);
      }
      depth.Add(static_cast<double>(deepest));
      pending_max = std::max(pending_max, static_cast<double>(stats.pending));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<int64_t> cpu0;
  for (int tid : workers) cpu0.push_back(TaskCpuNs(tid));
  const std::vector<EventPtr>& events = input.send_order;
  std::vector<EventPtr> chunk;
  int64_t ingest_ns = 0;
  uint64_t dropped = 0;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < events.size(); i += kSendChunk) {
    chunk.assign(events.begin() + static_cast<long>(i),
                 events.begin() + static_cast<long>(
                                      std::min(i + kSendChunk, events.size())));
    const int64_t c0 = NowNs();
    dropped += (*rt)->IngestBatch(stream, chunk);
    ingest_ns += NowNs() - c0;
  }
  const int64_t f0 = NowNs();
  const bool flushed = (*rt)->Flush().ok();
  const int64_t t1 = NowNs();
  int64_t worker_cpu = 0;
  for (size_t i = 0; i < workers.size(); ++i) {
    worker_cpu += TaskCpuNs(workers[i]) - cpu0[i];
  }
  stop.store(true);
  sampler.join();
  const auto stats = (*rt)->Stats();
  const uint64_t matches = (*rt)->query_matches(*query).ValueOr(0);
  (*rt)->Stop();

  double max_events = 0.0;
  double sum_events = 0.0;
  for (const auto& s : stats.shards) {
    max_events = std::max(max_events, static_cast<double>(s.events_processed));
    sum_events += static_cast<double>(s.events_processed);
  }
  const double n = static_cast<double>(events.size());
  report->Check("ledger_runtime_count", flushed && matches == reference.count,
                "runtime cut matches=" + std::to_string(matches) + " vs " +
                    std::to_string(reference.count));
  report->Add("runtime.ingest_ns_per_event", "ns",
              static_cast<double>(ingest_ns) / n);
  report->Add("runtime.flush_ms", "ms", Ms(t1 - f0));
  report->Add("runtime.queue_depth_p99", "count", depth.Quantile(0.99));
  report->Add("runtime.reorder_pending_max", "count", pending_max);
  report->Add("runtime.shard_skew", "ratio",
              sum_events > 0 ? max_events * static_cast<double>(
                                                stats.shards.size()) /
                                   sum_events
                             : 0.0);
  report->Add("runtime.worker_cpu_frac", "ratio",
              static_cast<double>(worker_cpu) / static_cast<double>(t1 - t0));
  report->Add("runtime.dropped", "count",
              static_cast<double>(std::max<uint64_t>(dropped,
                                                     stats.events_dropped)));
  report->Add("runtime.late_dropped", "count",
              static_cast<double>(stats.late_dropped));
  return static_cast<double>(t1 - t0) / n;
}

/// Cut points 1 and 2: encode the input into kEventBatch frames, then
/// decode those frames with FrameParser + ReadEvent.
void WireCuts(const std::vector<EventPtr>& events, double* encode_ns,
              double* decode_ns, Report* report) {
  const zstream::SchemaPtr schema = events.front()->schema();
  std::vector<std::string> frames;
  size_t bytes = 0;
  std::vector<double> enc;
  for (int rep = 0; rep < 3; ++rep) {
    frames.clear();
    bytes = 0;
    const int64_t t0 = NowNs();
    std::string payload;
    for (size_t i = 0; i < events.size(); i += kSendChunk) {
      payload.clear();
      zstream::net::AppendEventBatch(
          &payload, "s", events, i, std::min(kSendChunk, events.size() - i));
      std::string frame;
      zstream::net::AppendFrame(&frame, zstream::net::MsgType::kEventBatch, 0,
                                payload);
      bytes += frame.size();
      frames.push_back(std::move(frame));
    }
    enc.push_back(static_cast<double>(NowNs() - t0));
  }
  uint64_t decoded = 0;
  std::vector<double> dec;
  for (int rep = 0; rep < 3; ++rep) {
    decoded = 0;
    const int64_t t0 = NowNs();
    zstream::net::FrameParser parser;
    for (const std::string& frame : frames) {
      parser.Append(frame.data(), frame.size());
      auto next = parser.Next();
      if (!next.ok() || !next->has_value()) break;
      zstream::net::PayloadReader in((*next)->payload);
      (void)in.ReadString();
      (void)in.ReadU64();
      auto count = in.ReadU32();
      if (!count.ok()) break;
      for (uint32_t k = 0; k < *count; ++k) {
        if (zstream::net::ReadEvent(&in, schema).ok()) ++decoded;
      }
    }
    dec.push_back(static_cast<double>(NowNs() - t0));
  }
  const double n = static_cast<double>(events.size());
  report->Check("ledger_decode_roundtrip", decoded == events.size(),
                std::to_string(decoded) + " of " +
                    std::to_string(events.size()) + " events decoded");
  *encode_ns = Median(enc) / n;
  *decode_ns = Median(dec) / n;
  report->Add("net.encode_ns_per_event", "ns", *encode_ns, enc);
  report->Add("net.decode_ns_per_event", "ns", *decode_ns, dec);
  report->Add("net.bytes_per_event", "B", static_cast<double>(bytes) / n);
}

/// Set-up steps timed one by one, and the ack round trip of a one-event
/// batch on an idle server.
void SetupSteps(const WorkloadSpec& spec, Report* report) {
  constexpr int kReps = 15;
  zstream::ZStream session;
  (void)session.Execute(spec.stream_ddl);
  zstream::PatternPtr pattern;
  report->Add("query.analyze_ms", "ms", Ms(MedianNs(kReps, [&] {
                pattern = session.Analyze(spec.stream, spec.query, {})
                              .ValueOr(nullptr);
              })));
  if (pattern == nullptr) {
    report->Check("setup_steps_analyze", false, "Analyze failed");
    return;
  }
  zstream::PhysicalPlan plan;
  report->Add("opt.plan_ms", "ms", Ms(MedianNs(kReps, [&] {
                plan = zstream::BuildPlan(pattern, {}).ValueOr(plan);
              })));
  bool verified = true;
  report->Add("verify.verify_ms", "ms", Ms(MedianNs(kReps, [&] {
                verified = zstream::verify::VerifyPlan(*pattern, plan).ok() &&
                           verified;
              })));
  report->Check("setup_plan_verifies", verified, "VerifyPlan on the plan");

  const zstream::runtime::RuntimeOptions options = RuntimeOpts(spec);
  auto rt = session.StartRuntime(options);
  if (rt.ok()) {
    std::vector<double> reg;
    for (int r = 0; r < kReps; ++r) {
      const int64_t t0 = NowNs();
      auto id = (*rt)->RegisterQuery(spec.stream, spec.query);
      reg.push_back(static_cast<double>(NowNs() - t0));
      if (id.ok()) (void)(*rt)->UnregisterQuery(*id);
    }
    report->Add("runtime.register_ms", "ms", Median(reg) * 1e-6);
    (*rt)->Stop();
  }

  zstream::ZStream server_session;
  (void)server_session.Execute(spec.stream_ddl);
  auto server = zstream::net::Server::Create(&server_session, options);
  if (!server.ok() || !(*server)->Start().ok()) return;
  std::vector<double> connect;
  std::unique_ptr<zstream::net::Client> client;
  for (int r = 0; r < kReps; ++r) {
    const int64_t t0 = NowNs();
    auto c = zstream::net::Client::Connect("127.0.0.1", (*server)->port());
    connect.push_back(static_cast<double>(NowNs() - t0));
    if (c.ok()) client = std::move(*c);
  }
  report->Add("net.connect_ms", "ms", Median(connect) * 1e-6);
  // No query reads this stream, so the round trip is wire + routing only.
  const zstream::SchemaPtr schema = server_session.catalog().stream(spec.stream)
                                        .ValueOr(nullptr);
  std::vector<double> rtt;
  for (int r = 0; client != nullptr && schema != nullptr && r < 200; ++r) {
    std::vector<EventPtr> one = {std::make_shared<zstream::Event>(
        schema,
        std::vector<zstream::Value>(static_cast<size_t>(schema->num_fields())),
        r)};
    const int64_t t0 = NowNs();
    const bool ok = client->Ingest(spec.stream, one).ok();
    if (ok) rtt.push_back(static_cast<double>(NowNs() - t0));
  }
  report->Add("net.ack_rtt_us", "us", Median(rtt) * 1e-3);
  client.reset();
  (*server)->Stop();
}

void PerLayer(const WorkloadSpec& spec, const Input& input,
              const Digest& reference, double seconds, SpanLog* spans,
              int root, Report* report) {
  // Untraced and traced max-rate passes, alternated.
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<double> coverage;
  std::vector<double> span_sum_s;
  SpanLog off(false, "");
  const int phase = spans->Begin("traced_passes", root);
  const int64_t phase_end = NowNs() + static_cast<int64_t>(seconds * 0.4e9);
  for (int pass = 0; pass < 3 || NowNs() < phase_end; ++pass) {
    const PassResult plain = RunPass(spec, spec.entry, input, 0.0, &off, -1);
    AccountPass(plain, reference, "untraced_pass_" + std::to_string(pass),
                report);
    plain_s.push_back(plain.elapsed_s);
    const int parent = spans->Begin("traced_pass", phase);
    const PassResult traced =
        RunPass(spec, spec.entry, input, 0.0, spans, parent);
    spans->End(parent);
    AccountPass(traced, reference, "traced_pass_" + std::to_string(pass),
                report);
    traced_s.push_back(traced.elapsed_s);
    const int64_t children = spans->ChildSumNs(traced.pass_span);
    const int64_t total = spans->DurationNs(traced.pass_span);
    coverage.push_back(static_cast<double>(children) /
                       static_cast<double>(std::max<int64_t>(total, 1)));
    span_sum_s.push_back(static_cast<double>(children) * 1e-9);
  }
  spans->End(phase);
  const double n = static_cast<double>(input.send_order.size());
  const double plain_eps = n / Median(plain_s);
  const double traced_eps = n / Median(traced_s);
  report->Add("obs.trace_overhead_frac", "ratio", 1.0 - traced_eps / plain_eps);

  // The traced passes' send + finish spans must account for the pass, and
  // their sum must agree with the untraced end-to-end time.
  constexpr double kCoverageMin = 0.95;
  constexpr double kAgreeTolerance = 0.25;
  const double min_cov = *std::min_element(coverage.begin(), coverage.end());
  const double agree = Median(span_sum_s) / Median(plain_s);
  report->Check("span_coverage", min_cov >= kCoverageMin && min_cov <= 1.0,
                "child spans cover >= " + std::to_string(min_cov) +
                    " of each pass (required " + std::to_string(kCoverageMin) +
                    ")");
  report->Check("span_sum_vs_untraced",
                std::abs(agree - 1.0) <= kAgreeTolerance,
                "median span sum / median untraced time = " +
                    std::to_string(agree) + " (tolerance +-" +
                    std::to_string(kAgreeTolerance) + ")");

  // Cut-point ledger: each layer's ns/event is the difference between
  // adjacent cut points on the same input.
  const int ledger = spans->Begin("ledger", root);
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  {
    SpanScope s(spans, "cut.encode_decode", ledger);
    WireCuts(input.send_order, &encode_ns, &decode_ns, report);
  }
  double exec_ns = 0.0;
  {
    SpanScope s(spans, "cut.exec", ledger);
    exec_ns = ExecCut(spec, input.ts_order, reference, report);
  }
  double runtime_ns = 0.0;
  {
    SpanScope s(spans, "cut.runtime", ledger);
    runtime_ns = RuntimeCut(spec, input, reference, report);
  }
  report->Add("runtime.overhead_ns_per_event", "ns", runtime_ns - exec_ns);

  // Loopback against in-process on a prefix both replay.
  const Input prefix = input.Prefix(spec.ledger_wire_events);
  PassResult loop;
  PassResult local;
  {
    SpanScope s(spans, "cut.loopback", ledger);
    local = RunPass(spec, Entry::kRuntime, prefix, 0.0, &off, -1);
    loop = RunPass(spec, Entry::kServer, prefix, 0.0, &off, -1);
  }
  spans->End(ledger);
  const double pn = static_cast<double>(prefix.send_order.size());
  const bool same = local.ok && loop.ok && local.digest == loop.digest;
  report->Check("ledger_loopback_digest", same,
                "loopback " + loop.digest.Hex() + " vs in-process " +
                    local.digest.Hex());
  const double wire_ns = (loop.delivered_s - local.elapsed_s) * 1e9 / pn;
  const double matches = static_cast<double>(std::max<uint64_t>(
      loop.digest.count, 1));
  report->Add("net.wire_overhead_ns_per_event", "ns", wire_ns);
  report->Add("net.transport_ns_per_event", "ns",
              wire_ns - encode_ns - decode_ns);
  report->Add("net.delivery_ns_per_match", "ns",
              static_cast<double>(loop.receiver_cpu_ns) / matches);
  report->Add("net.bytes_per_match", "B", loop.match_wire_bytes);
  report->Note("ledger ns/event: encode=" + std::to_string(encode_ns) +
               " decode=" + std::to_string(decode_ns) + " exec=" +
               std::to_string(exec_ns) + " runtime=" +
               std::to_string(runtime_ns - exec_ns) + " (full input); wire=" +
               std::to_string(wire_ns) + " on " +
               std::to_string(prefix.send_order.size()) + "-event prefix");

  {
    SpanScope s(spans, "setup_steps", root);
    SetupSteps(spec, report);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: zbench_runner --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--spans FILE] "
                 "[--verify-only | --setup-only]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.setup_only) {
    Report report;
    SetupPhase(*spec, &report);
    std::printf("%s\n", report.ToJson(spec->name, args.seed, false).c_str());
    return 0;
  }
  const Input input = Generate(*spec, args.seed, args.tiny);

  const std::string run_id = spec->name + "-s" + std::to_string(args.seed) +
                             "-" + std::to_string(NowNs());
  SpanLog spans(args.trace, run_id);
  Report report;
  const int root = spans.Begin("run");
  if (!args.trace && !args.verify_only) SetupPhase(*spec, &report);
  Digest reference;
  {
    SpanScope s(&spans, "verify", root);
    reference = Verify(*spec, input, &report);
  }
  if (!args.verify_only) {
    if (args.trace) {
      PerLayer(*spec, input, reference, args.seconds, &spans, root, &report);
    } else {
      EndToEnd(*spec, input, reference, args.seconds, &report);
    }
  }
  spans.End(root);
  if (args.trace && !args.spans_path.empty() &&
      !spans.Write(args.spans_path)) {
    report.Check("spans_written", false, "cannot write " + args.spans_path);
  }
  std::printf("%s\n", report.ToJson(spec->name, args.seed, args.trace).c_str());
  return 0;
}

}  // namespace
}  // namespace zbench

int main(int argc, char** argv) { return zbench::Main(argc, argv); }
