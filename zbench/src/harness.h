// Measurement primitives shared by every workload of the repo benchmark:
// clocks, an order-independent match digest, exact weighted quantiles,
// the benchmark's own span log, /proc readers and the JSON report.
//
// Everything here measures the program from outside: it times calls into
// public functions and reads public counters, never program internals.
#ifndef ZBENCH_HARNESS_H_
#define ZBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/engine.h"

namespace zbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-independent digest of a match multiset: the wrapping sum of a
/// 64-bit hash of each match's CanonicalMatchKey fields (span, every
/// bound slot's index and timestamp, Kleene group timestamps), plus the
/// count. Hashing the fields instead of the key string keeps the digest
/// cheap enough to run inside timed passes; RenderKey() renders exactly
/// those fields so a run can prove they equal runtime::CanonicalMatchKey.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(const zstream::Match& match);
  bool operator==(const Digest& other) const = default;
  std::string Hex() const;
};

/// The digest's fields rendered in runtime::CanonicalMatchKey's format.
std::string RenderKey(const zstream::Match& match);

/// Quantiles over weighted samples (equal consecutive samples are merged,
/// so long runs of matches sharing one delivery time stay small). Values
/// are kept as float: ample for nanosecond latencies at percent precision.
class Samples {
 public:
  void Add(double value, uint32_t weight = 1);
  void Merge(const Samples& other);
  uint64_t count() const { return total_; }
  /// Lower quantile: the smallest value whose cumulative weight reaches
  /// q of the total (sorts the samples). 0 when empty.
  double Quantile(double q);

 private:
  std::vector<std::pair<float, uint32_t>> values_;
  uint64_t total_ = 0;
};

double Median(std::vector<double> values);
/// Lower q-quantile of plain samples (reorders them). 0 when empty.
double Quantile(std::vector<float>* values, double q);

/// The benchmark's own spans: name, start, end, parent and a run id
/// shared by every span of the run. Kept in memory and written as JSON
/// lines when the run ends. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)) {}

  /// Opens a span and returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  /// Sum of the durations of `parent`'s direct children.
  int64_t ChildSumNs(int parent) const;
  int64_t DurationNs(int id) const;
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };
  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
};

/// Scoped span; a no-op on a disabled log.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const std::string& name, int parent = -1)
      : log_(log), id_(log->Begin(name, parent)) {}
  ~SpanScope() { log_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// The process's VmHWM in MB (0 when /proc is unreadable).
double PeakRssMb();
/// User + system CPU seconds of the whole process (getrusage).
double ProcessCpuSeconds();
/// Thread ids under /proc/self/task.
std::vector<int> TaskIds();
/// CPU nanoseconds a thread of this process has run.
int64_t TaskCpuNs(int tid);
/// CPU nanoseconds of the calling thread.
int64_t ThreadCpuNs();
/// CPUs the calling thread may run on.
std::vector<int> AllowedCpus();
/// Restricts the calling thread (and threads it creates later) to `cpus`.
void RunOn(const std::vector<int>& cpus);

/// One metric of the run: the reported value plus the per-pass samples it
/// came from (empty when the value is a single measurement).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;
};

/// Everything one run prints: metrics, correctness checks, failure
/// accounting, the match count and digest, and a human-readable log.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           std::vector<double> samples = {});
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Digest reference;

  std::string ToJson(const std::string& workload, uint64_t seed,
                     bool trace) const;

 private:
  struct CheckResult {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<std::string> notes_;
};

}  // namespace zbench

#endif  // ZBENCH_HARNESS_H_
