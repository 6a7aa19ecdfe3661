#include "inputs.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>

#include "util/rng.h"
#include "util/units.h"

namespace arraydb::perfbench {

using array::ArraySchema;
using array::AttrType;
using array::AttributeDesc;
using array::Coordinates;
using array::DimensionDesc;

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kSelect:
      return "select";
    case QueryClass::kSort:
      return "sort";
    case QueryClass::kJoin:
      return "join";
    case QueryClass::kStats:
      return "stats";
    case QueryClass::kWindow:
      return "window";
    case QueryClass::kKnn:
      return "knn";
  }
  return "?";
}

std::vector<std::string> WorkloadNames() {
  return {"modis_cycles", "ais_elastic", "ais_ingest"};
}

namespace {

// Port hot spots as fractions of the (longitude, latitude) extent, with a
// relative strength. AIS traffic concentrates around them.
struct Port {
  double lon;
  double lat;
  double strength;
};
constexpr Port kPorts[] = {
    {0.18, 0.30, 1.00}, {0.26, 0.22, 0.85}, {0.80, 0.62, 0.90},
    {0.05, 0.55, 0.95}, {0.07, 0.90, 0.60}, {0.72, 0.12, 0.70},
    {0.04, 0.72, 0.65}, {0.77, 0.45, 0.60}, {0.55, 0.35, 0.40},
};

// Port proximity in [0, ~1.2]: Gaussian falloff with `sigma` given as a
// fraction of the longitude extent.
double PortScore(double lon_frac, double lat_frac, double sigma) {
  double score = 0.0;
  for (const auto& port : kPorts) {
    const double dx = (lon_frac - port.lon) / sigma;
    const double dy = (lat_frac - port.lat) / (2.0 * sigma);
    score += port.strength * std::exp(-(dx * dx + dy * dy) / 2.0);
  }
  return score;
}

ArraySchema Grid(const std::string& name, int64_t times, int64_t lon,
                 int64_t lat, int64_t chunk, std::vector<AttributeDesc> attrs) {
  return ArraySchema(name,
                     {DimensionDesc{"time", 0, times - 1, 1, false},
                      DimensionDesc{"longitude", 0, lon - 1, chunk, false},
                      DimensionDesc{"latitude", 0, lat - 1, chunk, false}},
                     std::move(attrs));
}

void AddCell(CellBatch& batch, int64_t t, int64_t lon, int64_t lat,
             std::initializer_list<double> values) {
  batch.coords.insert(batch.coords.end(), {t, lon, lat});
  batch.values.insert(batch.values.end(), values);
}

CellBatch EmptyBatch(const ArraySchema& schema) {
  CellBatch batch;
  batch.dims = schema.num_dims();
  batch.attrs = schema.num_attrs();
  return batch;
}

// Distinct chunk coordinates of `batch` under `schema`, lexicographic.
std::set<Coordinates> ChunksOf(const CellBatch& batch,
                               const ArraySchema& schema) {
  std::set<Coordinates> out;
  Coordinates pos(static_cast<size_t>(batch.dims));
  for (int64_t i = 0; i < batch.size(); ++i) {
    for (int d = 0; d < batch.dims; ++d) {
      pos[static_cast<size_t>(d)] =
          batch.coords[static_cast<size_t>(i * batch.dims + d)];
    }
    out.insert(schema.ChunkOf(pos));
  }
  return out;
}

// A random cell box: times [t_hi - t_span + 1, t_hi] clamped at 0, and a
// w x h spatial window centred on a port half of the time.
exec::CellBox RandomBox(util::Rng& rng, int64_t t_hi, int64_t t_span,
                        int64_t lon_cells, int64_t lat_cells, int64_t w,
                        int64_t h) {
  const int64_t span = 1 + static_cast<int64_t>(
                               rng.NextBounded(static_cast<uint64_t>(t_span)));
  const int64_t t_lo = std::max<int64_t>(0, t_hi - span + 1);
  int64_t lon0;
  int64_t lat0;
  if (rng.NextDouble() < 0.5) {
    const auto& port =
        kPorts[rng.NextBounded(sizeof(kPorts) / sizeof(kPorts[0]))];
    lon0 = static_cast<int64_t>(port.lon * static_cast<double>(lon_cells)) -
           w / 2;
    lat0 = static_cast<int64_t>(port.lat * static_cast<double>(lat_cells)) -
           h / 2;
  } else {
    lon0 = static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(lon_cells - w + 1)));
    lat0 = static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(lat_cells - h + 1)));
  }
  lon0 = std::clamp<int64_t>(lon0, 0, lon_cells - w);
  lat0 = std::clamp<int64_t>(lat0, 0, lat_cells - h);
  return exec::CellBox{{t_lo, lon0, lat0},
                       {t_hi, lon0 + w - 1, lat0 + h - 1}};
}

// Placement-schema chunk coordinates covering `cells`, lexicographic.
std::vector<Coordinates> RouteOf(const exec::CellBox& cells,
                                 const ArraySchema& placement) {
  const Coordinates lo = placement.ChunkOf(cells.lo);
  const Coordinates hi = placement.ChunkOf(cells.hi);
  std::vector<Coordinates> route;
  for (int64_t t = lo[0]; t <= hi[0]; ++t) {
    for (int64_t x = lo[1]; x <= hi[1]; ++x) {
      for (int64_t y = lo[2]; y <= hi[2]; ++y) route.push_back({t, x, y});
    }
  }
  return route;
}

struct BoxShape {
  int64_t t_span;
  int64_t w;
  int64_t h;
};

std::vector<Box> MakeBoxes(util::Rng& rng, int count, int64_t t_hi,
                           const BoxShape& shape, const ArraySchema& cells,
                           const ArraySchema& placement) {
  std::vector<Box> boxes;
  const int64_t lon_cells = cells.dims()[1].Extent();
  const int64_t lat_cells = cells.dims()[2].Extent();
  for (int i = 0; i < count; ++i) {
    Box box;
    const int64_t w =
        shape.w / 2 +
        static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(shape.w)));
    const int64_t h =
        shape.h / 2 +
        static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(shape.h)));
    box.cells = RandomBox(rng, t_hi, shape.t_span, lon_cells, lat_cells,
                          std::min(w, lon_cells), std::min(h, lat_cells));
    box.route = RouteOf(box.cells, placement);
    boxes.push_back(std::move(box));
  }
  return boxes;
}

// Cycle `index`'s query suite: selects_before[k] selects before the k-th
// of the five other classes, so every class is spread over the cycle.
// Select boxes are numbered in order; selects alternate spans and count,
// continuing across cycles.
void MakeSuite(CycleInput& cycle, util::Rng& rng,
               const std::array<int, 5>& selects_before, int index) {
  static constexpr QueryClass kOthers[] = {QueryClass::kSort,
                                           QueryClass::kJoin,
                                           QueryClass::kStats,
                                           QueryClass::kWindow,
                                           QueryClass::kKnn};
  static constexpr double kQuantiles[] = {0.25, 0.5, 0.75, 0.9};
  int next_box = 0;
  for (size_t k = 0; k < 5; ++k) {
    const QueryClass other = kOthers[k];
    for (int s = 0; s < selects_before[k]; ++s) {
      Query q;
      q.cls = QueryClass::kSelect;
      q.box = next_box;
      q.spans = (next_box + index) % 2 == 0;
      ++next_box;
      cycle.queries.push_back(q);
    }
    Query q;
    q.cls = other;
    q.quantile = kQuantiles[rng.NextBounded(4)];
    q.seed = static_cast<uint64_t>(index) * 7919 + rng.NextBounded(1000);
    cycle.queries.push_back(q);
  }
}

int SelectsIn(const CycleInput& cycle) {
  int n = 0;
  for (const auto& q : cycle.queries) n += q.cls == QueryClass::kSelect;
  return n;
}

constexpr int kMidreorgBoxesPerCycle = 16;

// -- modis_cycles -------------------------------------------------------------

Inputs MakeModis(uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  const int64_t days = tiny ? 5 : 14;
  const int64_t lon_cells = tiny ? 64 : 160;
  const int64_t lat_cells = tiny ? 32 : 80;
  Inputs in;
  WorkloadSpec& spec = in.spec;
  spec.name = "modis_cycles";
  spec.primary_schema =
      Grid("band1", days, lon_cells, lat_cells, 4,
           {AttributeDesc{"si_value", AttrType::kInt32},
            AttributeDesc{"radiance", AttrType::kDouble},
            AttributeDesc{"reflectance", AttrType::kDouble}});
  spec.placement_schema = spec.primary_schema;
  spec.secondary = SecondaryRole::kJoinBand;
  spec.secondary_schema =
      Grid("band2", days, lon_cells, lat_cells, 4,
           {AttributeDesc{"si_value", AttrType::kInt32},
            AttributeDesc{"radiance", AttrType::kDouble},
            AttributeDesc{"reflectance", AttrType::kDouble}});
  spec.partitioner = core::PartitionerKind::kIncrementalQuadtree;
  spec.nodes_per_scaleout = 2;
  spec.max_nodes = 8;
  spec.threads = 2;
  spec.increments_per_s = 1000.0;
  spec.midreorg_selects_per_s = 100.0;
  spec.science_attr = 1;
  spec.knn_samples = 12;
  spec.group_bins = {1, 16, 16};

  util::Rng rng(util::HashCombine(seed, 0x4d4f444953ULL));  // "MODIS"
  const int64_t land_limit = lon_cells * 5 / 8;
  const double lat_center = static_cast<double>(lat_cells) / 2.0;
  int64_t total_bytes = 0;
  for (int64_t t = 0; t < days; ++t) {
    CycleInput cycle;
    cycle.primary = EmptyBatch(spec.primary_schema);
    cycle.secondary = EmptyBatch(spec.secondary_schema);
    for (int64_t lon = 0; lon < lon_cells; ++lon) {
      for (int64_t lat = 0; lat < lat_cells; ++lat) {
        // Dense land on the left of the grid, sparse ocean on the right; a
        // smooth wave in the land density gives the mild chunk-size skew.
        const bool land = lon < land_limit;
        const double wave =
            0.08 * std::sin(static_cast<double>(lon) / 9.0 +
                            static_cast<double>(lat) / 13.0);
        const double occupancy = land ? 0.85 + wave : 0.15 + wave;
        const double dist = std::abs(static_cast<double>(lat) - lat_center);
        if (rng.NextDouble() < occupancy) {
          const double radiance = 100.0 + 2.0 * static_cast<double>(lon) -
                                  1.5 * dist +
                                  3.0 * std::sin(static_cast<double>(t)) +
                                  rng.NextGaussian();
          const double reflectance = 0.2 + 0.04 * dist +
                                     0.01 * rng.NextGaussian();
          AddCell(cycle.primary, t, lon, lat,
                  {std::round(radiance * 10.0), radiance, reflectance});
        }
        if (rng.NextDouble() < occupancy) {
          const double nir = 140.0 + 1.2 * static_cast<double>(lon) -
                             0.8 * dist + 2.0 * rng.NextGaussian();
          AddCell(cycle.secondary, t, lon, lat,
                  {std::round(nir * 10.0), nir,
                   0.3 + 0.02 * dist + 0.01 * rng.NextGaussian()});
        }
      }
    }
    std::set<Coordinates> chunks = ChunksOf(cycle.primary, spec.primary_schema);
    const auto band2 = ChunksOf(cycle.secondary, spec.secondary_schema);
    chunks.insert(band2.begin(), band2.end());
    cycle.new_chunks.assign(chunks.begin(), chunks.end());
    cycle.placed_bytes =
        cycle.primary.size() * spec.primary_schema.BytesPerCell() +
        cycle.secondary.size() * spec.secondary_schema.BytesPerCell();
    total_bytes += cycle.placed_bytes;
    in.total_cells += cycle.primary.size() + cycle.secondary.size();
    in.total_chunks_placed += static_cast<int64_t>(cycle.new_chunks.size());

    MakeSuite(cycle, rng, {1, 1, 1, 1, 1}, static_cast<int>(t));
    in.cycles.push_back(std::move(cycle));
  }
  // Capacity: three +2-node trips (2 -> 8) over the run.
  spec.node_capacity_gb =
      util::BytesToGb(static_cast<double>(total_bytes)) / 7.4;
  spec.increment_gb = util::BytesToGb(static_cast<double>(total_bytes)) / 640.0;

  const BoxShape shape{3, lon_cells / 6, lat_cells / 6};
  for (int64_t t = 0; t < days; ++t) {
    auto& cycle = in.cycles[static_cast<size_t>(t)];
    cycle.boxes = MakeBoxes(rng, SelectsIn(cycle), t, shape,
                            spec.primary_schema, spec.placement_schema);
    cycle.midreorg_boxes =
        MakeBoxes(rng, kMidreorgBoxesPerCycle, std::max<int64_t>(t - 1, 0),
                  shape, spec.primary_schema, spec.placement_schema);
  }
  return in;
}

// -- AIS shared pieces ------------------------------------------------------

ArraySchema TrackSchema(const std::string& name, int64_t months,
                        int64_t lon_cells, int64_t lat_cells, int64_t chunk) {
  return Grid(name, months, lon_cells, lat_cells, chunk,
              {AttributeDesc{"speed", AttrType::kInt32},
               AttributeDesc{"ship_id", AttrType::kInt32},
               AttributeDesc{"voyage_id", AttrType::kInt32}});
}

// One month of AIS broadcasts: every position is occupied with a
// probability that rises near the ports (so cells, chunks and ships are all
// skewed toward the hot spots). Ships near port p carry ids in p's block.
void MakeTrackMonth(util::Rng& rng, int64_t month, int64_t lon_cells,
                    int64_t lat_cells, double base, double hot,
                    CellBatch& out) {
  const double season =
      1.0 + 0.3 * std::sin(2.0 * M_PI * static_cast<double>(month % 12) / 12.0);
  constexpr int kShipsPerPort = 400;
  constexpr int kNumPorts = sizeof(kPorts) / sizeof(kPorts[0]);
  for (int64_t lon = 0; lon < lon_cells; ++lon) {
    for (int64_t lat = 0; lat < lat_cells; ++lat) {
      const double fx =
          static_cast<double>(lon) / static_cast<double>(lon_cells);
      const double fy =
          static_cast<double>(lat) / static_cast<double>(lat_cells);
      const double score = PortScore(fx, fy, 0.03);
      const double p = std::min(0.95, season * (base + hot * score));
      if (rng.NextDouble() >= p) continue;
      // Nearest port's ship block near ports; transit ships elsewhere.
      int ship;
      double speed;
      if (score > 0.2) {
        int nearest = 0;
        double best = 1e300;
        for (int k = 0; k < kNumPorts; ++k) {
          const double dx = fx - kPorts[k].lon;
          const double dy = fy - kPorts[k].lat;
          if (dx * dx + dy * dy < best) {
            best = dx * dx + dy * dy;
            nearest = k;
          }
        }
        ship = nearest * kShipsPerPort +
               static_cast<int>(rng.NextBounded(kShipsPerPort));
        speed = std::abs(rng.NextGaussian()) * 2.0;
      } else {
        ship = kNumPorts * kShipsPerPort +
               static_cast<int>(rng.NextBounded(2000));
        speed = 10.0 + std::abs(rng.NextGaussian()) * 4.0;
      }
      AddCell(out, month, lon, lat,
              {std::round(speed), static_cast<double>(ship),
               static_cast<double>(ship * 100 + month / 3)});
    }
  }
}

// Vessel keys of a month: its first 64 distinct ship ids.
std::unordered_set<int64_t> VesselKeys(const CellBatch& month) {
  std::unordered_set<int64_t> keys;
  for (int64_t i = 0; i < month.size() && keys.size() < 64; ++i) {
    keys.insert(static_cast<int64_t>(
        month.values[static_cast<size_t>(i * month.attrs + 1)]));
  }
  return keys;
}

// -- ais_elastic ------------------------------------------------------------

Inputs MakeAisElastic(uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  const int64_t months = tiny ? 6 : 20;
  const int64_t lon_cells = tiny ? 128 : 256;
  const int64_t lat_cells = tiny ? 64 : 128;
  Inputs in;
  WorkloadSpec& spec = in.spec;
  spec.name = "ais_elastic";
  spec.primary_schema = TrackSchema("tracks", months, lon_cells, lat_cells, 16);
  // The chunk-metadata stream: the same cell space at 2 x 2-cell chunks.
  spec.placement_schema =
      TrackSchema("broadcast", months, lon_cells, lat_cells, 2);
  spec.place_metadata = true;
  spec.partitioner = core::PartitionerKind::kKdTree;
  spec.nodes_per_scaleout = 1;
  spec.max_nodes = 16;
  spec.threads = 1;
  spec.increments_per_s = 4000.0;
  spec.midreorg_selects_per_s = 1000.0;
  spec.science_attr = 0;
  spec.vessel_attr = 1;
  spec.knn_samples = 16;
  spec.group_bins = {1, 32, 32};

  util::Rng rng(util::HashCombine(seed, 0x41495345ULL));  // "AISE"
  const ArraySchema& meta = spec.placement_schema;
  const auto extents = meta.ChunkGridExtents();
  const int64_t bytes_per_cell = meta.BytesPerCell();

  // Chunk slots ranked by port proximity; the hottest kHot receive a Zipf
  // share of each month's hot mass, everything else a ~1 KB background.
  struct Slot {
    int64_t x;
    int64_t y;
    double score;
  };
  std::vector<Slot> slots;
  for (int64_t x = 0; x < extents[1]; ++x) {
    for (int64_t y = 0; y < extents[2]; ++y) {
      slots.push_back({x, y,
                       PortScore((static_cast<double>(x) + 0.5) /
                                     static_cast<double>(extents[1]),
                                 (static_cast<double>(y) + 0.5) /
                                     static_cast<double>(extents[2]),
                                 0.03)});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  const size_t hot = std::min<size_t>(slots.size(), tiny ? 100 : 400);
  const util::ZipfTable zipf(static_cast<int64_t>(hot), 1.15);
  std::map<std::pair<int64_t, int64_t>, double> hot_share;
  for (size_t r = 0; r < hot; ++r) {
    hot_share[{slots[r].x, slots[r].y}] = zipf.Pmf(static_cast<int64_t>(r));
  }

  int64_t total_bytes = 0;
  for (int64_t m = 0; m < months; ++m) {
    CycleInput cycle;
    const double season =
        1.0 + 0.35 * std::sin(2.0 * M_PI * (static_cast<double>(m % 12) - 7.5) /
                              12.0);
    const double hot_bytes = (tiny ? 12.0 : 50.0) * util::kMiB * season *
                             (1.0 + 0.03 * rng.NextGaussian());
    for (int64_t x = 0; x < extents[1]; ++x) {
      for (int64_t y = 0; y < extents[2]; ++y) {
        double bytes = 1000.0 * rng.NextLogNormal(0.0, 0.5);
        const auto it = hot_share.find({x, y});
        if (it != hot_share.end()) bytes += hot_bytes * it->second;
        array::ChunkInfo info;
        info.coords = {m, x, y};
        info.cell_count = std::max<int64_t>(
            1, static_cast<int64_t>(bytes) / bytes_per_cell);
        info.bytes = info.cell_count * bytes_per_cell;
        cycle.placed_bytes += info.bytes;
        cycle.metadata.push_back(std::move(info));
      }
    }
    total_bytes += cycle.placed_bytes;
    in.total_chunks_placed += static_cast<int64_t>(cycle.metadata.size());

    cycle.primary = EmptyBatch(spec.primary_schema);
    MakeTrackMonth(rng, m, lon_cells, lat_cells, 0.005, 0.22, cycle.primary);
    in.total_cells += cycle.primary.size();
    const auto chunks = ChunksOf(cycle.primary, spec.primary_schema);
    cycle.new_chunks.assign(chunks.begin(), chunks.end());
    cycle.join_keys = VesselKeys(cycle.primary);
    MakeSuite(cycle, rng, {3, 3, 3, 3, 3}, static_cast<int>(m));
    in.cycles.push_back(std::move(cycle));
  }
  // One +1-node trip per capacity crossing: 2 -> ~16 nodes.
  spec.node_capacity_gb =
      util::BytesToGb(static_cast<double>(total_bytes)) / 16.4;
  spec.increment_gb =
      util::BytesToGb(static_cast<double>(total_bytes)) /
      (tiny ? 1500.0 : 6000.0);

  const BoxShape shape{2, lon_cells / 8, lat_cells / 8};
  for (int64_t m = 0; m < months; ++m) {
    auto& cycle = in.cycles[static_cast<size_t>(m)];
    cycle.boxes = MakeBoxes(rng, SelectsIn(cycle), m, shape,
                            spec.primary_schema, spec.placement_schema);
    cycle.midreorg_boxes =
        MakeBoxes(rng, kMidreorgBoxesPerCycle, std::max<int64_t>(m - 1, 0),
                  shape, spec.primary_schema, spec.placement_schema);
  }
  return in;
}

// -- ais_ingest -------------------------------------------------------------

Inputs MakeAisIngest(uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  const int64_t months = tiny ? 6 : 30;
  const int64_t lon_cells = tiny ? 128 : 512;
  const int64_t lat_cells = tiny ? 64 : 256;
  Inputs in;
  WorkloadSpec& spec = in.spec;
  spec.name = "ais_ingest";
  spec.primary_schema = TrackSchema("tracks", months, lon_cells, lat_cells, 16);
  spec.placement_schema = spec.primary_schema;
  spec.secondary = SecondaryRole::kNewestMonth;
  spec.secondary_schema =
      TrackSchema("month", months, lon_cells, lat_cells, 8);
  spec.science_sample = true;
  spec.sample_schema = TrackSchema("sample", months, lon_cells, lat_cells, 16);
  spec.partitioner = core::PartitionerKind::kHilbertCurve;
  spec.nodes_per_scaleout = 1;
  spec.max_nodes = 6;
  spec.threads = 1;
  spec.increments_per_s = 250.0;
  spec.midreorg_selects_per_s = 100.0;
  spec.science_attr = 0;
  spec.vessel_attr = 1;
  spec.knn_samples = 8;
  spec.group_bins = {1, 32, 32};

  util::Rng rng(util::HashCombine(seed, 0x41495349ULL));  // "AISI"
  int64_t total_bytes = 0;
  for (int64_t m = 0; m < months; ++m) {
    CycleInput cycle;
    cycle.primary = EmptyBatch(spec.primary_schema);
    MakeTrackMonth(rng, m, lon_cells, lat_cells, 0.12, 0.8, cycle.primary);
    // The newest month on its own (the vessel join reads it), and every
    // 16th broadcast of it (the science array).
    cycle.secondary = cycle.primary;
    cycle.sample = EmptyBatch(spec.sample_schema);
    for (int64_t i = 0; i < cycle.primary.size(); i += 16) {
      const size_t c = static_cast<size_t>(i * 3);
      const size_t v = static_cast<size_t>(i * 3);
      AddCell(cycle.sample, cycle.primary.coords[c],
              cycle.primary.coords[c + 1], cycle.primary.coords[c + 2],
              {cycle.primary.values[v], cycle.primary.values[v + 1],
               cycle.primary.values[v + 2]});
    }
    const auto chunks = ChunksOf(cycle.primary, spec.primary_schema);
    cycle.new_chunks.assign(chunks.begin(), chunks.end());
    cycle.placed_bytes =
        cycle.primary.size() * spec.primary_schema.BytesPerCell();
    total_bytes += cycle.placed_bytes;
    in.total_cells += cycle.primary.size() + cycle.secondary.size() +
                      cycle.sample.size();
    in.total_chunks_placed += static_cast<int64_t>(cycle.new_chunks.size());
    cycle.join_keys = VesselKeys(cycle.primary);
    MakeSuite(cycle, rng, {1, 0, 0, 0, 0}, static_cast<int>(m));
    in.cycles.push_back(std::move(cycle));
  }
  // One +1-node trip per capacity crossing: 2 -> 6 nodes.
  spec.node_capacity_gb =
      util::BytesToGb(static_cast<double>(total_bytes)) / 5.6;
  spec.increment_gb = util::BytesToGb(static_cast<double>(total_bytes)) / 200.0;

  const BoxShape shape{2, lon_cells / 16, lat_cells / 16};
  for (int64_t m = 0; m < months; ++m) {
    auto& cycle = in.cycles[static_cast<size_t>(m)];
    cycle.boxes = MakeBoxes(rng, SelectsIn(cycle), m, shape,
                            spec.primary_schema, spec.placement_schema);
    cycle.midreorg_boxes =
        MakeBoxes(rng, kMidreorgBoxesPerCycle, std::max<int64_t>(m - 1, 0),
                  shape, spec.primary_schema, spec.placement_schema);
  }
  return in;
}

}  // namespace

std::optional<Inputs> MakeInputs(const std::string& name, uint64_t seed,
                                 Size size) {
  if (name == "modis_cycles") return MakeModis(seed, size);
  if (name == "ais_elastic") return MakeAisElastic(seed, size);
  if (name == "ais_ingest") return MakeAisIngest(seed, size);
  return std::nullopt;
}

}  // namespace arraydb::perfbench
