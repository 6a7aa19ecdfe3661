#include "tracer.h"

#include <cstring>
#include <fstream>

#include "telemetry/json.h"

namespace arraydb::perfbench {

int Tracer::Open(const char* name, int64_t start_ns) {
  if (!recording_) return -1;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.cycle = cycle_;
  span.episode = episode_;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::Close(int index, int64_t end_ns) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
  // Guards are scoped, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  arraydb::telemetry::JsonWriter w(out, /*pretty=*/false);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("cat");
    w.String("perfbench");
    w.Key("ph");
    w.String("X");
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(1);
    w.Key("ts");
    w.Double(static_cast<double>(s.start_ns - epoch) / 1000.0, "%.3f");
    w.Key("dur");
    w.Double(static_cast<double>(s.end_ns - s.start_ns) / 1000.0, "%.3f");
    w.Key("args");
    w.BeginObject();
    w.Key("cycle");
    w.Int(s.cycle);
    w.Key("episode");
    w.Int(s.episode);
    w.Key("parent");
    w.Int(s.parent);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  return static_cast<bool>(out.flush());
}

namespace {

// Layer of a span name: the text before the first '.'.
std::string PrefixOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

bool IsLayer(const std::string& prefix) {
  for (const char* layer : kLayers) {
    if (prefix == layer) return true;
  }
  return false;
}

}  // namespace

Ledger BuildLedger(const std::vector<Tracer::Span>& spans, int episode) {
  Ledger ledger;
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.episode != episode || s.parent < 0) continue;
    child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  double attributed_s = 0.0;
  double rotate_s = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.episode != episode) continue;
    const int64_t dur = s.end_ns - s.start_ns;
    const double self_s = static_cast<double>(dur - child_ns[i]) * 1e-9;
    const std::string prefix = PrefixOf(s.name);
    if (IsLayer(prefix)) {
      ledger.self_s_by_layer[prefix] += self_s;
      attributed_s += self_s;
    } else if (prefix == "phase") {
      ledger.phase_s[std::string(s.name + 6)] +=
          static_cast<double>(dur) * 1e-9;
    } else if (std::strcmp(s.name, "bench.episode") == 0) {
      ledger.episode_s += static_cast<double>(dur) * 1e-9;
    } else if (std::strcmp(s.name, "bench.idle") == 0) {
      ledger.phase_s["idle"] += static_cast<double>(dur) * 1e-9;
    } else if (std::strcmp(s.name, "bench.rotate") == 0) {
      rotate_s += static_cast<double>(dur) * 1e-9;
    }
  }
  ledger.busy_s = ledger.episode_s - ledger.phase_s["idle"] - rotate_s;
  if (ledger.busy_s > 0.0) {
    ledger.unattributed_share = 1.0 - attributed_s / ledger.busy_s;
  }
  return ledger;
}

}  // namespace arraydb::perfbench
