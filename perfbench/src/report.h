// Percentiles with the sample rule, and the JSON report the driver prints.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace arraydb::perfbench {

/// One reported number. `samples` is how many values it summarizes;
/// `supported` is false for a percentile with fewer than 10 samples beyond
/// it (the value is still given, and flagged).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 1;
  bool supported = true;
};

/// Nearest-rank percentile `p` (0 < p < 1) of `values` as a Metric.
Metric Percentile(const std::string& name, std::vector<double> values,
                  double p, const std::string& unit);

/// Samples a percentile needs so that at least 10 lie beyond it.
int64_t SamplesFor(double p);

double Median(std::vector<double> values);

struct Report {
  std::vector<std::pair<std::string, std::string>> fingerprint;
  std::vector<std::string> flags;  // Non-Release build, scalar dispatch, ...
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;  // Extra context (not gated).
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Writes the report as one line of JSON.
void WriteReport(std::ostream& out, const Report& report);

}  // namespace arraydb::perfbench

#endif  // PERFBENCH_REPORT_H_
