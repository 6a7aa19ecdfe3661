// OverlapWindowEstimator: the runner's estimate of how many minutes of
// query workload a cycle's migration can hide behind, fed to
// cluster::CostModel::Arbitrate as BandwidthDemand::overlap_window_minutes
// (and, with serving enabled, as the projected query minutes).

#ifndef ARRAYDB_REORG_OVERLAP_WINDOW_H_
#define ARRAYDB_REORG_OVERLAP_WINDOW_H_

namespace arraydb::reorg {

/// EWMA estimate of the per-cycle query-overlap window. The raw
/// previous-cycle benchmark minutes are a noisy one-sample estimator;
/// smoothing reacts to a sustained query-load swing within a couple of
/// cycles without chasing every spike — and unlike a cumulative mean it
/// never goes stale. alpha = 1 reproduces the previous-cycle estimator
/// exactly.
class OverlapWindowEstimator {
 public:
  static constexpr double kDefaultAlpha = 0.5;

  /// `alpha` in (0, 1]: weight of the newest observation.
  explicit OverlapWindowEstimator(double alpha = kDefaultAlpha);

  /// Folds one cycle's observed benchmark minutes into the estimate. The
  /// first observation seeds the estimate directly (no zero-bias).
  void Observe(double minutes);

  /// Current window estimate in minutes; 0 until the first observation
  /// (matching the previous-cycle estimator's cold start).
  double estimate() const { return seeded_ ? estimate_ : 0.0; }
  bool has_estimate() const { return seeded_; }
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double estimate_ = 0.0;
  bool seeded_ = false;
};

}  // namespace arraydb::reorg

#endif  // ARRAYDB_REORG_OVERLAP_WINDOW_H_
