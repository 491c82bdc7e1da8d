// Figure 17 + Tables 4 and 5: Query 8 on the (synthetic) month-long web
// access log.
//
//   Query 8: PATTERN Publication;Project;Course
//            WHERE same IP address
//            WITHIN 10 hours
//
// The log reproduces the paper's Table 4 class cardinalities
// (6775 / 11610 / 16083 special accesses in ~1.5M records). Expected
// shape: the left-deep plan wins by a wide margin (publications are the
// rarest class), the NFA trails the right-deep plan, and peak memory is
// similar across plans (Table 5).
#include "bench_util.h"

#include "workload/weblog_gen.h"

namespace zstream::bench {
namespace {

constexpr char kQuery8[] =
    "PATTERN Pub;Proj;Course "
    "WHERE Pub.category='publication' AND Proj.category='project' "
    "AND Course.category='course' "
    "AND Pub.ip = Proj.ip = Course.ip "
    "WITHIN 10 hours";

int Run() {
  Banner("Figure 17 / Tables 4-5",
         "Query 8 on one month of synthetic web-access logs "
         "(left-deep / right-deep / NFA), 10-hour window, same-IP key");

  WebLogGenOptions gen;
  WebLogStats stats;
  const auto events = GenerateWebLog(gen, &stats);

  Table t4({"category", "# of accesses"});
  t4.AddRow({"publication", std::to_string(stats.publications)});
  t4.AddRow({"project", std::to_string(stats.projects)});
  t4.AddRow({"courses", std::to_string(stats.courses)});
  std::printf("Table 4 — access counts (paper: 6775 / 11610 / 16083):\n");
  t4.Print();
  std::printf("\n  total records: %zu, distinct IPs: %d\n\n", events.size(),
              gen.num_ips);

  // Partitioned tree plans (the analyzer detects the same-IP key).
  auto pattern = AnalyzeQuery(kQuery8, WebLogSchema());
  if (!pattern.ok()) {
    std::fprintf(stderr, "%s\n", pattern.status().ToString().c_str());
    return 1;
  }
  const PatternPtr p = *pattern;
  if (!p->partition.has_value()) {
    std::fprintf(stderr, "expected same-IP partitioning\n");
    return 1;
  }

  // The paper's plans join global buffers with IP-equality hash
  // lookups (Figure 3's style); the NFA keeps the equality predicates
  // explicit in its backward search.
  AnalyzerOptions no_part;
  no_part.detect_partition = false;
  auto flat = AnalyzeQuery(kQuery8, WebLogSchema(), no_part);
  if (!flat.ok()) return 1;

  const RunResult left = RunTreePlan(*flat, LeftDeepPlan(**flat), events);
  const RunResult right = RunTreePlan(*flat, RightDeepPlan(**flat), events);
  const RunResult nfa = RunNfaBaseline(*flat, events);
  // Our additional optimization: full hash partitioning on the IP key.
  const RunResult parted = RunTreePlan(p, LeftDeepPlan(*p), events);

  std::printf("Figure 17 — throughput:\n");
  Table fig({"plan", "throughput (ev/s)", "matches"});
  fig.AddRow({"left-deep", FormatThroughput(left.throughput),
              std::to_string(left.matches)});
  fig.AddRow({"right-deep", FormatThroughput(right.throughput),
              std::to_string(right.matches)});
  fig.AddRow({"NFA", FormatThroughput(nfa.throughput),
              std::to_string(nfa.matches)});
  fig.AddRow({"left-deep + partitioning (ours)",
              FormatThroughput(parted.throughput),
              std::to_string(parted.matches)});
  fig.Print();
  if (left.matches != right.matches || left.matches != nfa.matches ||
      left.matches != parted.matches) {
    std::fprintf(stderr, "MATCH-COUNT MISMATCH\n");
    return 1;
  }

  std::printf("\nTable 5 — peak memory (MB):\n");
  Table t5({"plan", "peak MB"});
  t5.AddRow({"left-deep", FormatDouble(left.peak_mb, 2)});
  t5.AddRow({"right-deep", FormatDouble(right.peak_mb, 2)});
  t5.AddRow({"NFA", FormatDouble(nfa.peak_mb, 2)});
  t5.AddRow({"left-deep + partitioning", FormatDouble(parted.peak_mb, 2)});
  t5.Print();
  return 0;
}

}  // namespace
}  // namespace zstream::bench

int main() { return zstream::bench::Run(); }
