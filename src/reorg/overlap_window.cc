#include "reorg/overlap_window.h"

#include "util/logging.h"

namespace arraydb::reorg {

OverlapWindowEstimator::OverlapWindowEstimator(double alpha) : alpha_(alpha) {
  ARRAYDB_CHECK_GT(alpha_, 0.0);
  ARRAYDB_CHECK_LE(alpha_, 1.0);
}

void OverlapWindowEstimator::Observe(double minutes) {
  ARRAYDB_CHECK_GE(minutes, 0.0);
  estimate_ = seeded_ ? alpha_ * minutes + (1.0 - alpha_) * estimate_
                      : minutes;
  seeded_ = true;
}

}  // namespace arraydb::reorg
