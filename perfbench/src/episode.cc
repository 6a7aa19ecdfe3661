#include "episode.h"

#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "array/array.h"
#include "array/cell_span.h"
#include "cluster/cluster.h"
#include "core/elastic_engine.h"
#include "exec/engine.h"
#include "exec/join.h"
#include "exec/operators.h"
#include "reorg/reorg_engine.h"
#include "util/rng.h"
#include "util/units.h"

namespace arraydb::perfbench {
namespace {

using array::Array;
using array::Coordinates;

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

uint64_t Mix(uint64_t a, uint64_t b) { return util::HashCombine(a, b); }

// Open-loop selects later than this are shed (and counted as failed), so
// an overloaded run ends instead of queueing without bound.
constexpr int64_t kMaxLatenessNs = 250'000'000;

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Chunk region of a cell box under `schema`, for pricing.
exec::ChunkRegion RegionOf(const exec::CellBox& box,
                           const array::ArraySchema& schema) {
  return exec::ChunkRegion{schema.ChunkOf(box.lo), schema.ChunkOf(box.hi)};
}

class Episode {
 public:
  Episode(const Inputs& inputs, int threads, Tracer& tracer, Samples& samples,
          const Reference* reference, Reference* verify_out,
          CpuRotation* rotation)
      : in_(inputs),
        spec_(inputs.spec),
        tracer_(tracer),
        samples_(samples),
        reference_(reference),
        verify_(verify_out),
        rotation_(rotation),
        threads_(threads),
        primary_(spec_.primary_schema),
        engine_(core::MakePartitioner(spec_.partitioner,
                                      spec_.placement_schema,
                                      kInitialNodes,
                                      spec_.node_capacity_gb,
                                      /*growth_dim=*/0),
                kInitialNodes, spec_.node_capacity_gb) {
    ctx_.data_plane_threads = threads;
    if (spec_.secondary != SecondaryRole::kNone) {
      secondary_.emplace(spec_.secondary_schema);
    }
    if (spec_.science_sample) sample_.emplace(spec_.sample_schema);
  }

  EpisodeOutcome Run(int max_cycles) {
    const int cycles = max_cycles < 0
                           ? static_cast<int>(in_.cycles.size())
                           : std::min<int>(max_cycles,
                                           static_cast<int>(in_.cycles.size()));
    const int64_t idle0 = samples_.idle_ns;
    {
      Timed episode(tracer_, "bench.episode");
      for (int c = 0; c < cycles; ++c) {
        if (rotation_ != nullptr) {
          // Moving to another CPU is the measurement's cost, not the
          // system's: it is left out of the busy time like the waits.
          Timed rotate(tracer_, "bench.rotate");
          rotation_->Next();
          samples_.idle_ns += rotate.Stop();
        }
        tracer_.set_cycle(c);
        Timed span(tracer_, "bench.cycle");
        RunCycle(c);
      }
      tracer_.set_cycle(-1);
      if (max_cycles < 0) {
        // Busy wall time: the paced migration's waits are excluded.
        samples_.episode_s.push_back(
            static_cast<double>(episode.Stop() - (samples_.idle_ns - idle0)) *
            1e-9);
      }
    }
    if (verify_ != nullptr) FinalChecks();
    if (reference_ != nullptr &&
        (next_result_ != reference_->results.size() && max_cycles < 0)) {
      Fail();  // A different number of results is itself a mismatch.
    }
    out_.nodes = engine_.cluster().num_nodes();
    out_.load_rsd = engine_.cluster().LoadRsd();
    out_.cells = primary_.total_cells();
    out_.chunks = primary_.num_chunks();
    return out_;
  }

 private:
  void Fail() { out_.failed += 1; }
  void Check(bool ok) {
    out_.attempted += 1;
    if (!ok) Fail();
  }

  // Records one query result: the verification episode keeps it as the
  // reference, a timed episode compares it with the reference.
  void Result(uint64_t value) {
    if (verify_ != nullptr) {
      verify_->results.push_back(value);
    } else if (reference_ != nullptr) {
      if (next_result_ >= reference_->results.size() ||
          reference_->results[next_result_] != value) {
        Fail();
      }
    }
    ++next_result_;
  }

  const Array& Science() const {
    return spec_.science_sample ? *sample_ : primary_;
  }

  // The vessel join reads the newest month where the workload keeps one.
  const Array& JoinTarget() const {
    return spec_.secondary == SecondaryRole::kNewestMonth ? *secondary_
                                                          : primary_;
  }

  void RunCycle(int c) {
    const CycleInput& cycle = in_.cycles[static_cast<size_t>(c)];
    // Phase 1 (the cyclic model's order): scale out before the insert when
    // the incoming batch would overflow the provisioned capacity.
    const auto& cluster = engine_.cluster();
    const double projected =
        cluster.TotalGb() +
        util::BytesToGb(static_cast<double>(cycle.placed_bytes));
    if (projected > cluster.CapacityGb() &&
        cluster.num_nodes() < spec_.max_nodes) {
      Migrate(c, std::min(spec_.nodes_per_scaleout,
                          spec_.max_nodes - cluster.num_nodes()));
    }
    const int64_t ingest_start = NowNs();
    Insert(cycle);
    Place(cycle);
    samples_.ingest_s += static_cast<double>(NowNs() - ingest_start) * 1e-9;
    samples_.ingest_cells +=
        cycle.primary.size() + cycle.secondary.size() + cycle.sample.size();
    RunSuite(c, cycle);
  }

  // -- Ingest -----------------------------------------------------------------

  void InsertBatch(Array& target, const CellBatch& batch, int64_t* failures) {
    Coordinates pos(static_cast<size_t>(batch.dims));
    const size_t attrs = static_cast<size_t>(batch.attrs);
    for (int64_t i = 0; i < batch.size(); ++i) {
      const int64_t* p = batch.coords.data() + i * batch.dims;
      pos.assign(p, p + batch.dims);
      const double* v = batch.values.data() + static_cast<size_t>(i) * attrs;
      // InsertCell takes its values by value: one vector per cell is the
      // API's calling convention, so it is part of the insert's cost.
      if (!target.InsertCell(pos, std::vector<double>(v, v + attrs)).ok()) {
        *failures += 1;
      }
    }
  }

  void Insert(const CycleInput& cycle) {
    Timed phase(tracer_, "phase.ingest");
    int64_t failures = 0;
    Timed t(tracer_, "array.insert");
    InsertBatch(primary_, cycle.primary, &failures);
    if (spec_.secondary == SecondaryRole::kNewestMonth) {
      secondary_.emplace(spec_.secondary_schema);  // Holds one month only.
    }
    if (secondary_.has_value()) {
      InsertBatch(*secondary_, cycle.secondary, &failures);
    }
    if (sample_.has_value()) {
      sample_.emplace(spec_.sample_schema);
      InsertBatch(*sample_, cycle.sample, &failures);
    }
    samples_.insert_ns += t.Stop();
    samples_.insert_cells +=
        cycle.primary.size() + cycle.secondary.size() + cycle.sample.size();
    out_.attempted += 1;
    if (failures > 0) Fail();
  }

  void Place(const CycleInput& cycle) {
    Timed phase(tracer_, "phase.place");
    const int64_t start = phase.start_ns();
    std::vector<array::ChunkInfo> built;
    if (!spec_.place_metadata) {
      Timed t(tracer_, "array.chunk_infos");
      built.reserve(cycle.new_chunks.size());
      for (const auto& coords : cycle.new_chunks) {
        array::ChunkInfo info;
        info.coords = coords;
        if (const auto* chunk = primary_.FindChunk(coords)) {
          info.cell_count += chunk->cell_count();
          info.bytes += chunk->bytes();
        }
        if (spec_.secondary == SecondaryRole::kJoinBand) {
          if (const auto* chunk = secondary_->FindChunk(coords)) {
            info.cell_count += chunk->cell_count();
            info.bytes += chunk->bytes();
          }
        }
        built.push_back(std::move(info));
      }
    }
    const auto& batch = spec_.place_metadata ? cycle.metadata : built;
    {
      Timed t(tracer_, "core.prewarm");
      engine_.partitioner().PrewarmPlacement(batch, threads_);
      samples_.prewarm_ns += t.Stop();
    }
    {
      Timed t(tracer_, "core.route");
      const auto stats = engine_.IngestBatch(batch);
      samples_.route_ns += t.Stop();
      out_.insert_priced_minutes += stats.minutes;
      Check(stats.chunks == static_cast<int64_t>(batch.size()));
    }
    samples_.placed_chunks += static_cast<int64_t>(batch.size());
    samples_.place_s += static_cast<double>(NowNs() - start) * 1e-9;
  }

  // -- Routing ----------------------------------------------------------------

  // Routes a box's chunks through `view`; returns how many are stored. The
  // verification episode also checks that each routed node holds a
  // readable replica: the retained source while a chunk is dual resident,
  // its owner otherwise.
  int64_t Route(const Box& box, const cluster::PlacementView& view,
                const char* name, int64_t* ns, int64_t* count) {
    Timed t(tracer_, name);
    int64_t found = 0;
    for (const auto& coords : box.route) {
      cluster::NodeId node = cluster::kInvalidNode;
      int64_t bytes = 0;
      if (view.Lookup(coords, &node, &bytes)) ++found;
    }
    *ns += t.Stop();
    *count += static_cast<int64_t>(box.route.size());
    if (verify_ != nullptr) {
      const auto& cluster = engine_.cluster();
      bool ok = true;
      for (const auto& coords : box.route) {
        cluster::NodeId node = cluster::kInvalidNode;
        int64_t bytes = 0;
        if (!view.Lookup(coords, &node, &bytes)) {
          ok = ok && !cluster.Contains(coords);
          continue;
        }
        const cluster::NodeId source = cluster.SourceReplicaOf(coords);
        const cluster::NodeId holder =
            source != cluster::kInvalidNode ? source : cluster.OwnerOf(coords);
        ok = ok && node == holder && node >= 0 && node < cluster.num_nodes();
      }
      Check(ok);
    }
    return found;
  }

  // Naive selection count through CellSpanView: the independent reference.
  int64_t NaiveCount(const Array& array, const exec::CellBox& box) const {
    array::CellSpanView view(array);
    int64_t n = 0;
    Coordinates pos;
    view.ForEachCell([&](const array::Chunk& chunk, size_t i, int64_t) {
      const int64_t* p = chunk.cell_pos(i);
      pos.assign(p, p + chunk.num_dims());
      if (box.Contains(pos)) ++n;
    });
    return n;
  }

  // -- Migration --------------------------------------------------------------

  uint64_t MidreorgSelect(const Box& box,
                          const reorg::DualResidencyView& view) {
    const int64_t found =
        Route(box, view, "cluster.view_lookup", &samples_.view_lookup_ns,
              &samples_.view_lookups);
    Timed t(tracer_, "exec.select");
    const int64_t n = exec::FilterBoxCount(primary_, box.cells, ctx_);
    t.Stop();
    return Mix(static_cast<uint64_t>(found), static_cast<uint64_t>(n));
  }

  void Migrate(int c, int nodes_to_add) {
    const CycleInput& cycle = in_.cycles[static_cast<size_t>(c)];
    Timed phase(tracer_, "phase.reorg");
    out_.scale_outs += 1;
    core::ScaleOutPrep prep;
    {
      Timed t(tracer_, "core.plan");
      prep = engine_.PrepareScaleOut(nodes_to_add);
      samples_.plan_ms.push_back(Ms(t.Stop()));
    }
    samples_.plan_chunks += static_cast<int64_t>(prep.plan.moves().size());
    auto& cluster = engine_.mutable_cluster();
    const int64_t bytes_before = cluster.TotalBytes();

    reorg::ReorgOptions options;
    options.increment_gb = spec_.increment_gb;
    // The simulated copy is a digest of chunk metadata: handing each
    // increment to a pool worker would time the wake-up, not the copy.
    options.copy_threads = 1;
    reorg::IncrementalReorgEngine reorg(&cluster, &engine_.cost_model(),
                                        options);
    const int64_t start = NowNs();
    int64_t busy_ns = 0;  // Begin, Step and Finish calls.
    {
      Timed t(tracer_, "reorg.begin");
      const auto status = reorg.Begin(prep.plan, prep.first_new_node);
      busy_ns = t.Stop();
      samples_.begin_ms.push_back(Ms(busy_ns));
      Check(status.ok());
      if (!status.ok()) return;
    }
    const auto view = reorg.View();
    if (verify_ != nullptr) {
      // Reference results of every box this migration may serve: they do
      // not depend on how far the migration has progressed.
      for (size_t b = 0; b < cycle.midreorg_boxes.size(); ++b) {
        const Box& box = cycle.midreorg_boxes[b];
        const uint64_t r = MidreorgSelect(box, view);
        verify_->midreorg[c * 1000 + static_cast<int>(b)] = r;
        if (b == 0) {
          Check(exec::FilterBoxCount(primary_, box.cells, ctx_) ==
                NaiveCount(primary_, box.cells));
        }
      }
    }

    // Once the plan is staged, increments and selects both fall due on
    // fixed schedules: increments at the migration's paced rate (its
    // bandwidth budget), selects as an open-loop stream. The coordinator
    // serves whichever is due first and waits when neither is. A select's
    // latency runs from its due time, so time spent waiting behind an
    // increment counts.
    const int64_t select_interval =
        static_cast<int64_t>(1e9 / spec_.midreorg_selects_per_s);
    const int64_t step_interval =
        static_cast<int64_t>(1e9 / spec_.increments_per_s);
    int64_t step_due = NowNs();
    int64_t select_due = step_due + select_interval;
    size_t issued = 0;
    while (reorg.pending_chunks() > 0) {
      const int64_t now = NowNs();
      if (verify_ == nullptr) {
        if (now - select_due > kMaxLatenessNs) {
          // Overloaded: shed the backlog; every shed select is a failure.
          const int64_t shed = (now - select_due) / select_interval;
          out_.attempted += shed;
          out_.failed += shed;
          select_due += shed * select_interval;
        }
        if (select_due <= now && select_due <= step_due) {
          const size_t b = issued++ % cycle.midreorg_boxes.size();
          const uint64_t r = MidreorgSelect(cycle.midreorg_boxes[b], view);
          samples_.midreorg_ms.push_back(Ms(NowNs() - select_due));
          select_due += select_interval;
          out_.attempted += 1;
          if (reference_ != nullptr) {
            const auto it =
                reference_->midreorg.find(c * 1000 + static_cast<int>(b));
            if (it == reference_->midreorg.end() || it->second != r) Fail();
          }
          continue;
        }
        if (step_due > now) {
          Timed idle(tracer_, "bench.idle");
          const int64_t until = std::min(step_due, select_due);
          while (NowNs() < until) {
            // Spin: a sleeping coordinator would wake late.
          }
          samples_.idle_ns += idle.Stop();
          continue;
        }
      }
      {
        Timed t(tracer_, "reorg.step");
        const auto step = reorg.Step();
        const int64_t ns = t.Stop();
        Check(step.ok());
        if (!step.ok()) return;
        samples_.step_ms.push_back(Ms(ns));
        samples_.step_ns += ns;
        samples_.step_chunks += step->chunks_moved;
        busy_ns += ns;
      }
      step_due += step_interval;
      if (verify_ != nullptr) {
        // Check one box's routing against the replica map after each step.
        const Box& box =
            cycle.midreorg_boxes[issued++ % cycle.midreorg_boxes.size()];
        int64_t ns = 0;
        int64_t count = 0;
        Route(box, view, "cluster.view_lookup", &ns, &count);
      }
    }
    {
      Timed t(tracer_, "reorg.finish");
      const auto status = reorg.Finish();
      const int64_t ns = t.Stop();
      samples_.finish_ms.push_back(Ms(ns));
      busy_ns += ns;
      Check(status.ok());
    }
    samples_.reorg_s += static_cast<double>(NowNs() - start) * 1e-9;
    samples_.reorg_busy_s += static_cast<double>(busy_ns) * 1e-9;
    const auto& summary = reorg.summary();
    samples_.reorg_chunks += summary.committed_chunks;
    out_.reorg_priced_minutes += summary.work_minutes;

    // After Finish: bytes are conserved and, for the incremental
    // partitioners, every move went to a new node.
    Check(cluster.TotalBytes() == bytes_before &&
          summary.committed_chunks ==
              static_cast<int64_t>(prep.plan.moves().size()) &&
          (!engine_.partitioner().IsIncremental() ||
           summary.only_to_new_nodes));
    if (verify_ != nullptr) {
      // Every chunk has exactly one valid owner and the per-node accounting
      // adds up to the total.
      bool ok = !cluster.reorg_active();
      int64_t chunks = 0;
      for (const auto& [coords, record] : cluster.chunk_map()) {
        ok = ok && record.node >= 0 && record.node < cluster.num_nodes() &&
             cluster.SourceReplicaOf(coords) == cluster::kInvalidNode;
      }
      int64_t bytes = 0;
      for (int n = 0; n < cluster.num_nodes(); ++n) {
        bytes += cluster.NodeBytes(n);
        chunks += cluster.NodeChunkCount(n);
      }
      Check(ok && bytes == cluster.TotalBytes() &&
            chunks == cluster.num_chunks());
    }
  }

  // -- Queries ----------------------------------------------------------------

  void RunSuite(int c, const CycleInput& cycle) {
    Timed phase(tracer_, "phase.query");
    bool sampled = false;
    for (const Query& q : cycle.queries) {
      const int cls = static_cast<int>(q.cls);
      const int64_t start = NowNs();
      int64_t exec_ns = 0;
      int64_t cells = 0;
      const uint64_t r = RunQuery(cycle, q, &exec_ns, &cells);
      const int64_t total = NowNs() - start;
      samples_.class_ms[static_cast<size_t>(cls)].push_back(Ms(total));
      samples_.class_ns[static_cast<size_t>(cls)] += exec_ns;
      samples_.class_cells[static_cast<size_t>(cls)] += cells;
      out_.attempted += 1;
      Result(r);
      // The cost-model comparison uses the last cycle's suite.
      const bool last = c + 1 == static_cast<int>(in_.cycles.size());
      if (last) {
        samples_.last_cycle_s[static_cast<size_t>(cls)] +=
            static_cast<double>(total) * 1e-9;
      }
      if (verify_ != nullptr) {
        VerifyQuery(cycle, q, !sampled);
        if (q.cls == QueryClass::kSelect) sampled = true;
        if (last) Price(q, cycle);
      }
    }
  }

  // Executes one query; returns its result digest. `exec_ns` receives the
  // operator's own time and `cells` the cells of the arrays it reads.
  uint64_t RunQuery(const CycleInput& cycle, const Query& q, int64_t* exec_ns,
                    int64_t* cells) {
    const Array& science = Science();
    switch (q.cls) {
      case QueryClass::kSelect: {
        const Box& box = cycle.boxes[static_cast<size_t>(q.box)];
        const int64_t found =
            Route(box, engine_.cluster(), "cluster.lookup",
                  &samples_.lookup_ns, &samples_.lookups);
        samples_.routed_found += found;
        samples_.routed_selects += 1;
        *cells = primary_.total_cells();
        Timed t(tracer_, "exec.select");
        if (!q.spans) {
          const int64_t n = exec::FilterBoxCount(primary_, box.cells, ctx_);
          *exec_ns = t.Stop();
          return Mix(static_cast<uint64_t>(found), static_cast<uint64_t>(n));
        }
        const auto view = exec::FilterBoxSpans(primary_, box.cells, ctx_);
        double sum = 0.0;
        const size_t attr = static_cast<size_t>(spec_.science_attr);
        for (const auto& cs : view.chunks()) {
          const auto& column = cs.chunk->attr_column(attr);
          for (const auto& [begin, end] : cs.spans) {
            for (uint32_t i = begin; i < end; ++i) sum += column[i];
          }
        }
        *exec_ns = t.Stop();
        // Useful work per attempt, outside the timed call.
        samples_.survived_chunks += static_cast<int64_t>(view.chunks().size());
        samples_.scanned_chunks += primary_.num_chunks();
        samples_.hit_cells += view.num_cells();
        for (const auto& cs : view.chunks()) {
          samples_.survivor_cells +=
              static_cast<int64_t>(cs.chunk->num_cells());
        }
        return Mix(Mix(static_cast<uint64_t>(found),
                       static_cast<uint64_t>(view.num_cells())),
                   Bits(sum));
      }
      case QueryClass::kSort: {
        *cells = science.total_cells();
        Timed t(tracer_, "exec.sort");
        const auto v =
            exec::AttrQuantile(science, spec_.science_attr, q.quantile, ctx_);
        *exec_ns = t.Stop();
        if (!v.ok()) Fail();
        return v.ok() ? Bits(*v) : 0;
      }
      case QueryClass::kJoin: {
        Timed t(tracer_, "exec.join");
        int64_t n = 0;
        if (spec_.vessel_attr < 0) {
          *cells = primary_.total_cells() + secondary_->total_cells();
          n = exec::DimJoinCount(primary_, *secondary_, ctx_);
        } else {
          *cells = JoinTarget().total_cells();
          n = exec::AttrJoinCount(JoinTarget(), spec_.vessel_attr,
                                  cycle.join_keys, ctx_);
        }
        *exec_ns = t.Stop();
        return static_cast<uint64_t>(n);
      }
      case QueryClass::kStats: {
        *cells = science.total_cells();
        Timed t(tracer_, "exec.stats");
        const auto groups =
            exec::GroupBySum(science, spec_.group_bins, spec_.science_attr,
                             ctx_);
        *exec_ns = t.Stop();
        uint64_t h = groups.size();
        for (const auto& [origin, sum] : groups) {
          for (int64_t x : origin) h = Mix(h, static_cast<uint64_t>(x));
          h = Mix(h, Bits(sum));
        }
        return h;
      }
      case QueryClass::kWindow: {
        *cells = science.total_cells();
        Timed t(tracer_, "exec.window");
        const auto field =
            exec::WindowAverageAll(science, spec_.science_attr, 1, ctx_);
        *exec_ns = t.Stop();
        uint64_t h = field.size();
        for (const auto& [pos, avg] : field) h = Mix(h, Bits(avg));
        return h;
      }
      case QueryClass::kKnn: {
        *cells = science.total_cells();
        Timed t(tracer_, "exec.knn");
        const auto v = exec::KnnAverageDistance(
            science, kKnnNeighbours, spec_.knn_samples, q.seed, ctx_);
        *exec_ns = t.Stop();
        if (!v.ok()) Fail();
        return v.ok() ? Bits(*v) : 0;
      }
    }
    return 0;
  }

  // Independent references for the verification episode.
  void VerifyQuery(const CycleInput& cycle, const Query& q,
                   bool sample_naive) {
    if (q.cls != QueryClass::kSelect) return;
    const Box& box = cycle.boxes[static_cast<size_t>(q.box)];
    const int64_t count = exec::FilterBoxCount(primary_, box.cells, ctx_);
    const auto spans = exec::FilterBoxSpans(primary_, box.cells, ctx_);
    Check(count == spans.num_cells());
    if (sample_naive) Check(count == NaiveCount(primary_, box.cells));
  }

  // The cost model's price of the same query on the current placement.
  void Price(const Query& q, const CycleInput& cycle) {
    exec::QuerySpec spec;
    spec.region = exec::ChunkRegion::All(3);
    switch (q.cls) {
      case QueryClass::kSelect:
        spec.kind = exec::QueryKind::kFilter;
        spec.region = RegionOf(cycle.boxes[static_cast<size_t>(q.box)].cells,
                               spec_.placement_schema);
        break;
      case QueryClass::kSort:
        spec.kind = exec::QueryKind::kSortQuantile;
        break;
      case QueryClass::kJoin:
        if (spec_.vessel_attr < 0) {
          spec.kind = exec::QueryKind::kDimJoin;
        } else {
          spec.kind = exec::QueryKind::kAttrJoin;
          spec.small_side_gb = util::BytesToGb(
              static_cast<double>(cycle.join_keys.size()) * 8.0);
        }
        break;
      case QueryClass::kStats:
        spec.kind = exec::QueryKind::kGroupBy;
        break;
      case QueryClass::kWindow:
        spec.kind = exec::QueryKind::kWindow;
        break;
      case QueryClass::kKnn:
        spec.kind = exec::QueryKind::kKnn;
        spec.knn_samples = spec_.knn_samples;
        break;
    }
    const exec::QueryEngine engine;
    verify_->class_priced_minutes[static_cast<size_t>(q.cls)] +=
        engine.Simulate(spec, engine_.cluster(), spec_.placement_schema)
            .minutes;
  }

  // Once per run: the radix dimension join against the retired set join,
  // and the vessel join against a naive scan.
  void FinalChecks() {
    const Array& a = Science();
    const Array& b = spec_.secondary == SecondaryRole::kJoinBand ? *secondary_
                                                                 : primary_;
    Check(exec::DimJoinCount(a, b, ctx_) ==
          exec::internal::DimJoinCountBySet(a, b));
    if (spec_.vessel_attr >= 0 && !in_.cycles.empty()) {
      const auto& keys = in_.cycles.back().join_keys;
      int64_t naive = 0;
      const Array& target = JoinTarget();
      array::CellSpanView view(target);
      view.ForEachCell([&](const array::Chunk& chunk, size_t i, int64_t) {
        int64_t key = 0;
        if (exec::AttrJoinKey(
                chunk.attr_value(static_cast<size_t>(spec_.vessel_attr), i),
                &key) &&
            keys.contains(key)) {
          ++naive;
        }
      });
      Check(exec::AttrJoinCount(target, spec_.vessel_attr, keys, ctx_) ==
            naive);
    }
  }

  const Inputs& in_;
  const WorkloadSpec& spec_;
  Tracer& tracer_;
  Samples& samples_;
  const Reference* reference_;
  Reference* verify_;
  CpuRotation* rotation_;
  int threads_;
  exec::ExecContext ctx_;
  Array primary_;
  std::optional<Array> secondary_;
  std::optional<Array> sample_;
  core::ElasticEngine engine_;
  EpisodeOutcome out_;
  size_t next_result_ = 0;
};

}  // namespace

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

EpisodeOutcome RunEpisode(const Inputs& inputs, int threads, Tracer& tracer,
                          Samples& samples, const Reference* reference,
                          Reference* verify_out, CpuRotation* rotation,
                          int max_cycles) {
  // Arrays and the cluster are large; keep them off the stack.
  auto episode = std::make_unique<Episode>(inputs, threads, tracer, samples,
                                           reference, verify_out, rotation);
  return episode->Run(max_cycles);
}

}  // namespace arraydb::perfbench
