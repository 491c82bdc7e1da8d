// Statistics for cost estimation (Table 1) and runtime monitoring
// (Section 5.3).
//
// A StatsCatalog is the cost model's input: per-class arrival rates
// (already folded with single-class selectivities, so CARD_E =
// rate_E * TW), pairwise multi-class predicate selectivities P_{E1,E2},
// and pairwise time selectivities Pt_{E1,E2} (default 1/2).
//
// A WindowedClassStats collector maintains windowed estimates of the same
// quantities from live execution, using simple windowed averages over
// event-time buckets, as the paper describes.
#ifndef ZSTREAM_OPT_STATS_H_
#define ZSTREAM_OPT_STATS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/timestamp.h"
#include "plan/pattern.h"

namespace zstream {

/// Default implicit time-predicate selectivity (Table 1).
inline constexpr double kDefaultTimeSelectivity = 0.5;

/// \brief Input statistics for the cost model.
class StatsCatalog {
 public:
  StatsCatalog() = default;
  StatsCatalog(int num_classes, double window)
      : window_(window),
        rate_(static_cast<size_t>(num_classes), 1.0) {}

  double window() const { return window_; }
  void set_window(double w) { window_ = w; }
  int num_classes() const { return static_cast<int>(rate_.size()); }

  /// Effective class rate: R_E * P_E (events admitted to E's leaf buffer
  /// per unit time).
  double rate(int cls) const { return rate_[static_cast<size_t>(cls)]; }
  void set_rate(int cls, double r) { rate_[static_cast<size_t>(cls)] = r; }

  /// CARD_E = R_E * TW_p * P_E (Table 1).
  double Card(int cls) const { return rate(cls) * window_; }

  /// Product of multi-class predicate selectivities between classes i
  /// and j (1.0 when no predicate relates them).
  double PairSel(int i, int j) const;
  void SetPairSel(int i, int j, double sel);

  /// Implicit time-predicate selectivity Pt_{i,j} (defaults to 1/2).
  double TimeSel(int i, int j) const;
  void SetTimeSel(int i, int j, double sel);

  /// Largest relative change of any component vs `other` — the drift
  /// measure the plan adapter thresholds on.
  double MaxRelativeChange(const StatsCatalog& other) const;

 private:
  static std::pair<int, int> Key(int i, int j) {
    return i < j ? std::make_pair(i, j) : std::make_pair(j, i);
  }

  double window_ = 1.0;
  std::vector<double> rate_;
  std::map<std::pair<int, int>, double> pair_sel_;
  std::map<std::pair<int, int>, double> time_sel_;
};

/// Merges per-shard catalogs observed over disjoint
/// slices of one stream: class rates sum (each slice saw a fraction of
/// the traffic over the same event-time span); pair/time selectivities
/// are averaged weighted by `weights` (typically events observed per
/// slice). Used by the runtime's merged re-planning. `parts` must be non-empty and share num_classes.
StatsCatalog MergeStatsCatalogs(const std::vector<StatsCatalog>& parts,
                                const std::vector<double>& weights);

/// \brief Windowed runtime estimator feeding plan adaptation.
///
/// Counts are kept in fixed-width event-time buckets; estimates average
/// over the most recent `num_buckets` full buckets, so the estimator
/// tracks rate and selectivity changes with bounded lag.
class WindowedClassStats {
 public:
  /// `bucket_width` is in event-time units; `num_predicates` is the size
  /// of the pattern's multi-predicate list.
  WindowedClassStats(int num_classes, int num_predicates, Duration bucket_width,
               int num_buckets = 8);

  void OnEvent(Timestamp ts);
  void OnClassAdmit(int cls);
  void OnPredicateEval(int pred_idx, bool passed);

  /// Builds a catalog for `pattern` from the windowed averages.
  /// Pair selectivities come from per-predicate pass ratios; classes or
  /// predicates with too few observations keep the given defaults.
  StatsCatalog Snapshot(const Pattern& pattern,
                        const StatsCatalog& defaults) const;

  int64_t total_events() const { return total_events_; }

 private:
  struct Bucket {
    Timestamp start = 0;
    int64_t events = 0;
    std::vector<int64_t> admits;
    std::vector<int64_t> pred_evals;
    std::vector<int64_t> pred_passes;
  };

  void Roll(Timestamp ts);

  int num_classes_;
  int num_predicates_;
  Duration bucket_width_;
  size_t num_buckets_;
  std::deque<Bucket> buckets_;
  int64_t total_events_ = 0;
};

}  // namespace zstream

#endif  // ZSTREAM_OPT_STATS_H_
