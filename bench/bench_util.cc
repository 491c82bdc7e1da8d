#include "bench_util.h"

#include <algorithm>
#include <cstdlib>

namespace zstream::bench {

int Repetitions() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once before any bench
  // threads start; nothing in the harness calls setenv.
  const char* env = std::getenv("ZS_BENCH_REPS");
  if (env != nullptr) return std::max(1, std::atoi(env));
  return 2;
}

namespace {
template <typename MakeEngine, typename PushAll>
RunResult Measure(const std::vector<EventPtr>& events, MakeEngine make,
                  PushAll push_all) {
  const int reps = Repetitions();
  std::vector<double> rates;
  RunResult result;
  for (int r = 0; r < reps; ++r) {
    // Engine construction (incl. plan verification) happens here, before
    // t0: the reported rate is |events| / time-to-push only.
    auto engine = make();
    const auto t0 = std::chrono::steady_clock::now();
    push_all(engine);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    // The first rep pays one-time costs (page faults, allocator pools,
    // cold i-cache); with more than one rep, exclude it from the mean.
    if (r > 0 || reps == 1) {
      rates.push_back(static_cast<double>(events.size()) / secs);
    }
    result.elapsed_s = secs;
    result.matches = engine->num_matches();
    result.peak_mb = engine->memory().peak_mb();
  }
  result.throughput =
      std::accumulate(rates.begin(), rates.end(), 0.0) / rates.size();
  return result;
}
}  // namespace

RunResult RunTreePlan(const PatternPtr& pattern, const PhysicalPlan& plan,
                      const std::vector<EventPtr>& events,
                      EngineOptions options) {
  return Measure(
      events,
      [&]() {
        auto engine = Engine::Create(pattern, plan, options);
        if (!engine.ok()) {
          std::fprintf(stderr, "engine create failed: %s\n",
                       engine.status().ToString().c_str());
          std::abort();
        }
        return std::move(*engine);
      },
      [&](std::unique_ptr<Engine>& engine) {
        // Columnar ingest: the pre-recorded workload is already a
        // contiguous span, which is exactly what PushBatch wants.
        engine->PushBatch(EventBatch{events.data(), events.size()});
        engine->Finish();
      });
}

RunResult RunNfaBaseline(const PatternPtr& pattern,
                         const std::vector<EventPtr>& events) {
  return Measure(
      events,
      [&]() {
        auto nfa = NfaEngine::Create(pattern);
        if (!nfa.ok()) {
          std::fprintf(stderr, "nfa create failed: %s\n",
                       nfa.status().ToString().c_str());
          std::abort();
        }
        return std::move(*nfa);
      },
      [&](std::unique_ptr<NfaEngine>& nfa) {
        for (const EventPtr& e : events) nfa->Push(e);
        nfa->Finish();
      });
}

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

void RecordResult(const std::string& experiment, const std::string& series,
                  const std::string& x, const RunResult& result) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): bench workers have joined by
  // the time results are recorded; getenv races with nothing here.
  const char* path = std::getenv("ZS_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_util: cannot open ZS_BENCH_JSON file %s\n",
                 path);
    return;
  }
  std::fprintf(f,
               "{\"experiment\": \"%s\", \"series\": \"%s\", \"x\": \"%s\", "
               "\"throughput_eps\": %.3f, \"matches\": %llu, "
               "\"peak_mb\": %.3f, \"elapsed_s\": %.6f, \"reps\": %d}\n",
               JsonEscape(experiment).c_str(), JsonEscape(series).c_str(),
               JsonEscape(x).c_str(), result.throughput,
               static_cast<unsigned long long>(result.matches),
               result.peak_mb, result.elapsed_s, Repetitions());
  std::fclose(f);
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("  ");
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string sep;
  for (size_t i = 0; i < headers_.size(); ++i) {
    sep += std::string(widths[i], '-') + "  ";
  }
  std::printf("  %s\n", sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string FormatThroughput(double eps) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", eps);
  return buf;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Banner(const std::string& experiment, const std::string& description) {
  std::printf("\n=== %s ===\n%s\n\n", experiment.c_str(),
              description.c_str());
}

}  // namespace zstream::bench
