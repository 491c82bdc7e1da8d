#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace zbench {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t Finalize(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Digest::Add(const zstream::Match& match) {
  uint64_t h = Mix(static_cast<uint64_t>(match.span.start),
                   static_cast<uint64_t>(match.span.end));
  for (size_t i = 0; i < match.slots.size(); ++i) {
    if (match.slots[i] != nullptr) {
      h = Mix(h, i);
      h = Mix(h, static_cast<uint64_t>(match.slots[i]->timestamp()));
    }
  }
  if (match.group != nullptr) {
    h = Mix(h, 0x67);
    for (const zstream::EventPtr& e : *match.group) {
      h = Mix(h, static_cast<uint64_t>(e->timestamp()));
    }
  }
  ++count;
  sum += Finalize(h);
}

std::string Digest::Hex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, sum);
  return buf;
}

std::string RenderKey(const zstream::Match& match) {
  std::string key = std::to_string(match.span.start);
  key += ':';
  key += std::to_string(match.span.end);
  key += '/';
  for (size_t i = 0; i < match.slots.size(); ++i) {
    if (match.slots[i] != nullptr) {
      key += std::to_string(i);
      key += '@';
      key += std::to_string(match.slots[i]->timestamp());
      key += '|';
    }
  }
  if (match.group != nullptr) {
    key += "g{";
    for (const zstream::EventPtr& e : *match.group) {
      key += std::to_string(e->timestamp());
      key += ',';
    }
    key += '}';
  }
  return key;
}

void Samples::Add(double value, uint32_t weight) {
  if (weight == 0) return;
  const float v = static_cast<float>(value);
  if (!values_.empty() && values_.back().first == v &&
      values_.back().second < UINT32_MAX - weight) {
    values_.back().second += weight;
  } else {
    values_.emplace_back(v, weight);
  }
  total_ += weight;
}

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  total_ += other.total_;
}

double Samples::Quantile(double q) {
  if (total_ == 0) return 0.0;
  std::sort(values_.begin(), values_.end());
  const double target = q * static_cast<double>(total_);
  uint64_t seen = 0;
  for (const auto& [value, weight] : values_) {
    seen += weight;
    if (static_cast<double>(seen) >= target) return value;
  }
  return values_.back().first;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<float>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t k = std::min(
      values->size() - 1,
      static_cast<size_t>(q * static_cast<double>(values->size())));
  std::nth_element(values->begin(), values->begin() + static_cast<long>(k),
                   values->end());
  return (*values)[k];
}

int SpanLog::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), 0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int64_t SpanLog::ChildSumNs(int parent) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent == parent) total += s.end_ns - s.start_ns;
  }
  return total;
}

int64_t SpanLog::DurationNs(int id) const {
  if (id < 0) return 0;
  const Span& s = spans_[static_cast<size_t>(id)];
  return s.end_ns - s.start_ns;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"run\":\"" << JsonEscape(run_id_) << "\",\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"name\":\""
        << JsonEscape(s.name) << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::vector<int> TaskIds() {
  std::vector<int> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* entry = readdir(dir)) {
    const int id = std::atoi(entry->d_name);
    if (id > 0) ids.push_back(id);
  }
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

int64_t TaskCpuNs(int tid) {
  // schedstat's first field is on-CPU time in ns; fall back to the
  // clock-tick utime + stime of stat when the kernel lacks schedstats.
  const std::string base = "/proc/self/task/" + std::to_string(tid);
  {
    std::ifstream in(base + "/schedstat");
    long long ns = 0;
    if (in >> ns) return ns;
  }
  std::ifstream in(base + "/stat");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  const size_t close = content.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(content.substr(close + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  // Fields after the command: state is field 3; utime/stime are 14/15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::atoll(field.c_str());
    if (i == 15) stime = std::atoll(field.c_str());
  }
  return (utime + stime) * (1000000000LL / sysconf(_SC_CLK_TCK));
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void RunOn(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value, std::vector<double> samples) {
  metrics_.push_back(Metric{name, unit, value, std::move(samples)});
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(CheckResult{name, ok, detail});
}

bool Report::correct() const {
  for (const CheckResult& c : checks_) {
    if (!c.ok) return false;
  }
  return !checks_.empty();
}

std::string Report::ToJson(const std::string& workload, uint64_t seed,
                           bool trace) const {
  std::ostringstream os;
  os << "{\"workload\":\"" << JsonEscape(workload) << "\",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0)
     << ",\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"match_count\":" << reference.count << ",\"digest\":\""
     << reference.Hex() << "\",\"checks\":[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    const CheckResult& c = checks_[i];
    os << (i ? "," : "") << "{\"name\":\"" << JsonEscape(c.name)
       << "\",\"ok\":" << (c.ok ? "true" : "false") << ",\"detail\":\""
       << JsonEscape(c.detail) << "\"}";
  }
  os << "],\"notes\":[";
  for (size_t i = 0; i < notes_.size(); ++i) {
    os << (i ? "," : "") << "\"" << JsonEscape(notes_[i]) << "\"";
  }
  os << "],\"metrics\":[";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? "," : "") << "{\"name\":\"" << JsonEscape(m.name)
       << "\",\"unit\":\"" << JsonEscape(m.unit)
       << "\",\"value\":" << JsonNumber(m.value) << ",\"samples\":[";
    for (size_t j = 0; j < m.samples.size(); ++j) {
      os << (j ? "," : "") << JsonNumber(m.samples[j]);
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace zbench
