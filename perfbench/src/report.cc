#include "report.h"

#include <algorithm>
#include <cmath>

#include "telemetry/json.h"

namespace arraydb::perfbench {

int64_t SamplesFor(double p) {
  // With n samples the nearest-rank percentile is element ceil(p n), and
  // n - ceil(p n) lie beyond it; the smallest n leaving 10 beyond.
  for (int64_t n = 1;; ++n) {
    const auto rank =
        static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
    if (n - rank >= 10) return n;
  }
}

Metric Percentile(const std::string& name, std::vector<double> values,
                  double p, const std::string& unit) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.samples = static_cast<int64_t>(values.size());
  m.supported = m.samples >= SamplesFor(p);
  if (values.empty()) return m;
  std::sort(values.begin(), values.end());
  auto rank =
      static_cast<int64_t>(std::ceil(p * static_cast<double>(m.samples)));
  rank = std::clamp<int64_t>(rank, 1, m.samples);
  m.value = values[static_cast<size_t>(rank - 1)];
  return m;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

void WriteMetrics(arraydb::telemetry::JsonWriter& w, const std::string& key,
                  const std::vector<Metric>& metrics) {
  w.Key(key);
  w.BeginObject();
  for (const auto& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Double(m.value, "%.9g");
    w.Key("unit");
    w.String(m.unit);
    w.Key("samples");
    w.Int(m.samples);
    w.Key("supported");
    w.Bool(m.supported);
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace

void WriteReport(std::ostream& out, const Report& report) {
  arraydb::telemetry::JsonWriter w(out, /*pretty=*/false);
  w.BeginObject();
  w.Key("fingerprint");
  w.BeginObject();
  for (const auto& [k, v] : report.fingerprint) {
    w.Key(k);
    w.String(v);
  }
  w.EndObject();
  w.Key("flags");
  w.BeginArray();
  for (const auto& f : report.flags) w.String(f);
  w.EndArray();
  w.Key("attempted");
  w.Int(report.attempted);
  w.Key("failed");
  w.Int(report.failed);
  w.Key("error_rate");
  w.Double(report.attempted > 0 ? static_cast<double>(report.failed) /
                                      static_cast<double>(report.attempted)
                                : 1.0,
           "%.9g");
  WriteMetrics(w, "end_to_end", report.end_to_end);
  WriteMetrics(w, "per_layer", report.per_layer);
  WriteMetrics(w, "detail", report.detail);
  w.EndObject();
  out << "\n";
}

}  // namespace arraydb::perfbench
