// Shared harness for the paper-reproduction benchmarks.
//
// Every figure/table binary pre-records a workload (as the paper does),
// pushes it through an engine at maximum rate, and reports
//     rate = |Input| / t_elapsed            (Section 6)
// excluding output delivery. Results print as aligned tables with the
// same rows/series the paper plots.
#ifndef ZSTREAM_BENCH_BENCH_UTIL_H_
#define ZSTREAM_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "api/zstream.h"
#include "exec/engine.h"
#include "nfa/nfa_engine.h"
#include "workload/stock_gen.h"

namespace zstream::bench {

struct RunResult {
  double throughput = 0.0;  // events per second
  uint64_t matches = 0;
  double peak_mb = 0.0;
  double elapsed_s = 0.0;
};

/// Repetitions per measurement (the paper averages 30 runs; we default
/// lower to keep the full suite fast — override with ZS_BENCH_REPS).
/// When more than one rep runs, the first is treated as warmup and
/// excluded from the reported mean.
int Repetitions();

/// Pushes `events` through a fresh tree engine `reps` times; returns the
/// mean throughput and the peak memory of the last run. Keyed
/// (hash-partitioned) patterns run through the same engine.
RunResult RunTreePlan(const PatternPtr& pattern, const PhysicalPlan& plan,
                      const std::vector<EventPtr>& events,
                      EngineOptions options = {});

/// Same, for the NFA baseline.
RunResult RunNfaBaseline(const PatternPtr& pattern,
                         const std::vector<EventPtr>& events);

/// Machine-readable results. When the environment variable ZS_BENCH_JSON
/// names a file, each call appends one JSON object (JSON Lines) with the
/// experiment/series/x labels and the RunResult's numbers;
/// scripts/run_benches.sh merges the per-binary files into
/// BENCH_baseline.json. A no-op when ZS_BENCH_JSON is unset, so plain
/// benchmark runs keep printing tables only.
void RecordResult(const std::string& experiment, const std::string& series,
                  const std::string& x, const RunResult& result);

/// Aligned table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string FormatThroughput(double eps);
std::string FormatDouble(double v, int precision = 2);

/// prefix + std::to_string(i), built via += because the
/// operator+(const char*, std::string&&) spelling trips a GCC 12
/// -Wrestrict false positive at -O3 (GCC PR 105329).
inline std::string IndexedName(const std::string& prefix, int64_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

/// Prints the standard benchmark banner.
void Banner(const std::string& experiment, const std::string& description);

}  // namespace zstream::bench

#endif  // ZSTREAM_BENCH_BENCH_UTIL_H_
