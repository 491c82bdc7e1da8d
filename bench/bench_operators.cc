// Micro benchmarks (google-benchmark): per-operator assembly cost,
// buffer maintenance, hash-index probes, leaf admission, and planner
// invocation. Complements the figure-level harnesses with
// per-component numbers.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "opt/planner.h"

namespace zstream::bench {
namespace {

std::vector<EventPtr> MakeStream(int n, const std::string& ratio,
                                 std::vector<std::string> names,
                                 uint64_t seed = 3) {
  StockGenOptions gen;
  gen.names = std::move(names);
  gen.weights = ParseRateRatio(ratio);
  gen.num_events = n;
  gen.seed = seed;
  return GenerateStockTrades(gen);
}

PatternPtr Analyze(const std::string& q) {
  auto r = AnalyzeQuery(q, StockSchema());
  if (!r.ok()) std::abort();
  return *r;
}

void BM_LeafAdmission(benchmark::State& state) {
  const PatternPtr p = Analyze(
      "PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 100");
  const auto events = MakeStream(10000, "1:1", {"A", "B"});
  for (auto _ : state) {
    // One engine batch spans the stream: admission only, no assembly.
    EngineOptions options;
    options.batch_size = static_cast<int>(events.size()) + 1;
    auto engine = Engine::Create(p, LeftDeepPlan(*p), options);
    (*engine)->PushBatch(EventBatch{events.data(), events.size()});
    benchmark::DoNotOptimize((*engine)->events_pushed());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_LeafAdmission);

void BM_SeqAssembly(benchmark::State& state) {
  const PatternPtr p = Analyze(
      "PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 100");
  const auto events =
      MakeStream(static_cast<int>(state.range(0)), "1:1", {"A", "B"});
  for (auto _ : state) {
    auto engine = Engine::Create(p, LeftDeepPlan(*p));
    for (const auto& e : events) (*engine)->Push(e);
    (*engine)->Finish();
    benchmark::DoNotOptimize((*engine)->num_matches());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_SeqAssembly)->Arg(2000)->Arg(8000);

void BM_ConjAssembly(benchmark::State& state) {
  const PatternPtr p = Analyze(
      "PATTERN A & B WHERE A.name='A' AND B.name='B' WITHIN 100");
  const auto events = MakeStream(4000, "1:1", {"A", "B"});
  for (auto _ : state) {
    auto engine = Engine::Create(p, LeftDeepPlan(*p));
    for (const auto& e : events) (*engine)->Push(e);
    (*engine)->Finish();
    benchmark::DoNotOptimize((*engine)->num_matches());
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_ConjAssembly);

void BM_NseqAssembly(benchmark::State& state) {
  const PatternPtr p = Analyze(
      "PATTERN A;!B;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
      "WITHIN 100");
  const auto events = MakeStream(6000, "1:1:1", {"A", "B", "C"});
  for (auto _ : state) {
    auto engine = Engine::Create(p, RightDeepPlan(*p));
    for (const auto& e : events) (*engine)->Push(e);
    (*engine)->Finish();
    benchmark::DoNotOptimize((*engine)->num_matches());
  }
  state.SetItemsProcessed(state.iterations() * 6000);
}
BENCHMARK(BM_NseqAssembly);

void BM_KseqAssembly(benchmark::State& state) {
  const PatternPtr p = Analyze(
      "PATTERN A;B^3;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
      "WITHIN 100");
  const auto events = MakeStream(6000, "1:3:1", {"A", "B", "C"});
  for (auto _ : state) {
    auto engine = Engine::Create(p, LeftDeepPlan(*p));
    for (const auto& e : events) (*engine)->Push(e);
    (*engine)->Finish();
    benchmark::DoNotOptimize((*engine)->num_matches());
  }
  state.SetItemsProcessed(state.iterations() * 6000);
}
BENCHMARK(BM_KseqAssembly);

void BM_HashProbeVsScan(benchmark::State& state) {
  AnalyzerOptions no_part;
  no_part.detect_partition = false;
  auto r = AnalyzeQuery("PATTERN A;B WHERE A.name = B.name WITHIN 100",
                        StockSchema(), no_part);
  if (!r.ok()) std::abort();
  const PatternPtr p = *r;
  std::vector<std::string> names;
  std::vector<double> weights;
  for (int i = 0; i < 32; ++i) {
    names.push_back(IndexedName("N", i));
    weights.push_back(1.0);
  }
  StockGenOptions gen;
  gen.names = names;
  gen.weights = weights;
  gen.num_events = 8000;
  const auto events = GenerateStockTrades(gen);
  EngineOptions options;
  options.use_hash_indexes = state.range(0) != 0;
  for (auto _ : state) {
    auto engine = Engine::Create(p, LeftDeepPlan(*p), options);
    for (const auto& e : events) (*engine)->Push(e);
    (*engine)->Finish();
    benchmark::DoNotOptimize((*engine)->num_matches());
  }
  state.SetItemsProcessed(state.iterations() * 8000);
  state.SetLabel(options.use_hash_indexes ? "hash" : "scan");
}
BENCHMARK(BM_HashProbeVsScan)->Arg(1)->Arg(0);

void BM_PlannerDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string q = "PATTERN C0";
  for (int i = 1; i < n; ++i) q += ";C" + std::to_string(i);
  q += " WITHIN 100";
  const PatternPtr p = Analyze(q);
  StatsCatalog stats(n, 100.0);
  Random rng(7);
  for (int c = 0; c < n; ++c) stats.set_rate(c, 0.01 + rng.NextDouble());
  for (auto _ : state) {
    Planner planner(p, &stats);
    auto plan = planner.OptimalPlan();
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlannerDp)->Arg(4)->Arg(8)->Arg(12)->Arg(20);

void BM_NfaBackwardSearch(benchmark::State& state) {
  const PatternPtr p = Analyze(
      "PATTERN A;B;C WHERE A.name='A' AND B.name='B' AND C.name='C' "
      "WITHIN 100");
  const auto events = MakeStream(6000, "1:1:1", {"A", "B", "C"});
  for (auto _ : state) {
    auto nfa = NfaEngine::Create(p);
    for (const auto& e : events) (*nfa)->Push(e);
    benchmark::DoNotOptimize((*nfa)->num_matches());
  }
  state.SetItemsProcessed(state.iterations() * 6000);
}
BENCHMARK(BM_NfaBackwardSearch);

}  // namespace
}  // namespace zstream::bench

BENCHMARK_MAIN();
