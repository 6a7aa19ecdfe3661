// Serving-layer suite: typed admission rejections (each limit sheds with
// its own reason, never blocking), priority tiers + time slicing beating
// the FIFO single queue on interactive tail latency, the virtual-time
// machine's determinism, the session contract (1 session vs N concurrent
// sessions produce bit-identical per-query results), slice accounting, and
// the YieldPoint gate batch work parks on. Runs under the TSan CI job:
// SessionServer::Submit is exercised from concurrent threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "array/array.h"
#include "exec/exec_context.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "serve/serve.h"
#include "workload/sample_data.h"

namespace arraydb::serve {
namespace {

ServerOptions BaseOptions(int workers) {
  ServerOptions options;
  options.workers = workers;
  options.slice_minutes = 0.5;
  return options;
}

Request MakeRequest(const std::string& name, double minutes, double gb = 0.0,
                    double arrival = 0.0) {
  Request request;
  request.name = name;
  request.cost_minutes = minutes;
  request.scan_gb = gb;
  request.arrival_minutes = arrival;
  return request;
}

TEST(AdmissionTest, UnknownSessionAndFinishedServerReject) {
  SessionServer server(BaseOptions(1));
  EXPECT_EQ(server.Submit(0, MakeRequest("q", 1.0)),
            Admission::kRejectedUnknownSession);
  const int session = server.OpenSession(Tier::kInteractive);
  EXPECT_EQ(server.Submit(-1, MakeRequest("q", 1.0)),
            Admission::kRejectedUnknownSession);
  server.Finish();
  EXPECT_EQ(server.Submit(session, MakeRequest("q", 1.0)),
            Admission::kRejectedUnknownSession);
}

TEST(AdmissionTest, SessionQueueLimitShedsWithTypedReason) {
  ServerOptions options = BaseOptions(1);
  options.admission.max_session_queue = 1;
  SessionServer server(options);
  const int session = server.OpenSession(Tier::kBatch);
  // First request starts on the worker immediately (leaves the queue),
  // second queues, third finds the session queue full.
  EXPECT_EQ(server.Submit(session, MakeRequest("a", 10.0)),
            Admission::kAdmitted);
  EXPECT_EQ(server.Submit(session, MakeRequest("b", 10.0)),
            Admission::kAdmitted);
  EXPECT_EQ(server.Submit(session, MakeRequest("c", 10.0)),
            Admission::kRejectedSessionQueue);
  const ServeResult result = server.Finish();
  const TierStats& batch = result.tier(Tier::kBatch);
  EXPECT_EQ(batch.submitted, 3);
  EXPECT_EQ(batch.admitted, 2);
  EXPECT_EQ(batch.rejected_session_queue, 1);
  EXPECT_EQ(batch.rejected(), 1);
  EXPECT_EQ(result.completed.size(), 2u);
}

TEST(AdmissionTest, TierQueueLimitShedsAcrossSessions) {
  ServerOptions options = BaseOptions(1);
  options.admission.max_tier_queue = 1;
  SessionServer server(options);
  const int a = server.OpenSession(Tier::kBatch);
  const int b = server.OpenSession(Tier::kBatch);
  EXPECT_EQ(server.Submit(a, MakeRequest("a", 10.0)), Admission::kAdmitted);
  EXPECT_EQ(server.Submit(a, MakeRequest("b", 10.0)), Admission::kAdmitted);
  // The tier's aggregate queue is full even though session b's own queue
  // is empty.
  EXPECT_EQ(server.Submit(b, MakeRequest("c", 10.0)),
            Admission::kRejectedTierSaturated);
  const ServeResult result = server.Finish();
  EXPECT_EQ(result.tier(Tier::kBatch).rejected_tier_saturated, 1);
}

TEST(AdmissionTest, InFlightBytesLimitSheds) {
  ServerOptions options = BaseOptions(1);
  options.admission.max_inflight_gb = 10.0;
  SessionServer server(options);
  const int session = server.OpenSession(Tier::kInteractive);
  EXPECT_EQ(server.Submit(session, MakeRequest("a", 5.0, /*gb=*/8.0)),
            Admission::kAdmitted);
  EXPECT_EQ(server.Submit(session, MakeRequest("b", 5.0, /*gb=*/8.0)),
            Admission::kRejectedBytesInFlight);
  // A small request still fits under the cap: shedding is per-request,
  // not a latch.
  EXPECT_EQ(server.Submit(session, MakeRequest("c", 5.0, /*gb=*/1.0)),
            Admission::kAdmitted);
  const ServeResult result = server.Finish();
  EXPECT_EQ(result.tier(Tier::kInteractive).rejected_bytes, 1);
  EXPECT_DOUBLE_EQ(result.peak_inflight_gb, 9.0);
  // Completed requests release their bytes: a later submission readmits.
  EXPECT_EQ(result.completed.size(), 2u);
}

TEST(AdmissionTest, NamesAreStable) {
  EXPECT_STREQ(AdmissionName(Admission::kAdmitted), "admitted");
  EXPECT_STREQ(AdmissionName(Admission::kRejectedSessionQueue),
               "rejected_session_queue");
  EXPECT_STREQ(AdmissionName(Admission::kRejectedTierSaturated),
               "rejected_tier_saturated");
  EXPECT_STREQ(AdmissionName(Admission::kRejectedBytesInFlight),
               "rejected_bytes_in_flight");
  EXPECT_STREQ(TierName(Tier::kInteractive), "interactive");
  EXPECT_STREQ(TierName(Tier::kBatch), "batch");
  EXPECT_TRUE(Admitted(Admission::kAdmitted));
  EXPECT_FALSE(Admitted(Admission::kRejectedTierSaturated));
}

TEST(SummarizeTest, NearestRankPercentiles) {
  std::vector<double> latencies;
  for (int i = 1; i <= 100; ++i) latencies.push_back(i / 60000.0);  // i ms.
  const LatencySummary summary = Summarize(latencies);
  EXPECT_EQ(summary.count, 100);
  EXPECT_NEAR(summary.p50_ms, 50.0, 1e-9);
  EXPECT_NEAR(summary.p99_ms, 99.0, 1e-9);
  EXPECT_NEAR(summary.max_ms, 100.0, 1e-9);
  EXPECT_NEAR(summary.mean_ms, 50.5, 1e-9);
  EXPECT_EQ(Summarize({}).count, 0);
}

// One long batch request hogging the only worker; a short interactive
// request arrives mid-run. FIFO runs the batch to completion first;
// priority + slicing picks the point query up at the next slice boundary.
TEST(SchedulingTest, PrioritySlicingBeatsFifoOnInteractiveLatency) {
  const auto run = [](SchedulerPolicy policy) {
    ServerOptions options = BaseOptions(1);
    options.policy = policy;
    SessionServer server(options);
    const int batch = server.OpenSession(Tier::kBatch);
    const int interactive = server.OpenSession(Tier::kInteractive);
    EXPECT_EQ(server.Submit(batch, MakeRequest("scan", 10.0)),
              Admission::kAdmitted);
    EXPECT_EQ(server.Submit(interactive,
                            MakeRequest("point", 0.1, 0.0, /*arrival=*/1.2)),
              Admission::kAdmitted);
    return server.Finish();
  };

  const ServeResult fifo = run(SchedulerPolicy::Fifo());
  const ServeResult served = run(SchedulerPolicy{});

  // FIFO: the point query waits out the whole scan (10 - 1.2 + 0.1 min).
  EXPECT_NEAR(fifo.tier(Tier::kInteractive).latency.p99_ms, 8.9 * 60000.0,
              1e-6);
  // Sliced: it waits only to the next 0.5-min slice boundary (1.5) and is
  // done at 1.6 — latency 0.4 min.
  EXPECT_NEAR(served.tier(Tier::kInteractive).latency.p99_ms, 0.4 * 60000.0,
              1e-6);
  EXPECT_LT(served.tier(Tier::kInteractive).latency.p99_ms,
            fifo.tier(Tier::kInteractive).latency.p99_ms / 3.0);

  // The parked scan resumes and still finishes; slicing costs it nothing
  // in virtual time (10.1 total service on one worker).
  ASSERT_EQ(served.completed.size(), 2u);
  EXPECT_NEAR(served.makespan_minutes, 10.1, 1e-9);
  EXPECT_NEAR(fifo.makespan_minutes, 10.1, 1e-9);
}

TEST(SchedulingTest, SliceAccountingAndRunToCompletion) {
  ServerOptions options = BaseOptions(1);
  options.slice_minutes = 0.5;
  SessionServer server(options);
  const int session = server.OpenSession(Tier::kBatch);
  server.Submit(session, MakeRequest("sliced", 2.0));
  const ServeResult sliced = server.Finish();
  ASSERT_EQ(sliced.completed.size(), 1u);
  EXPECT_EQ(sliced.completed[0].slices, 4);

  ServerOptions fifo_options = BaseOptions(1);
  fifo_options.policy = SchedulerPolicy::Fifo();
  SessionServer fifo(fifo_options);
  const int s2 = fifo.OpenSession(Tier::kBatch);
  fifo.Submit(s2, MakeRequest("whole", 2.0));
  const ServeResult whole = fifo.Finish();
  ASSERT_EQ(whole.completed.size(), 1u);
  EXPECT_EQ(whole.completed[0].slices, 1);
}

TEST(SchedulingTest, ServiceDilationStretchesServiceTime) {
  ServerOptions options = BaseOptions(1);
  options.service_dilation = 1.5;
  SessionServer server(options);
  const int session = server.OpenSession(Tier::kInteractive);
  server.Submit(session, MakeRequest("q", 2.0));
  const ServeResult result = server.Finish();
  ASSERT_EQ(result.completed.size(), 1u);
  EXPECT_NEAR(result.completed[0].latency_minutes, 3.0, 1e-9);
}

// The virtual machine is a pure function of the submissions: identical
// runs produce identical completion records, field for field.
TEST(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const auto run = [] {
    ServerOptions options = BaseOptions(3);
    SessionServer server(options);
    std::vector<int> sessions;
    for (int s = 0; s < 4; ++s) {
      sessions.push_back(
          server.OpenSession(s % 2 == 0 ? Tier::kInteractive : Tier::kBatch));
    }
    for (int i = 0; i < 40; ++i) {
      server.Submit(sessions[static_cast<size_t>(i % 4)],
                    MakeRequest("q" + std::to_string(i),
                                0.2 + 0.13 * (i % 7), 0.5 * (i % 3),
                                0.05 * i));
    }
    return server.Finish();
  };
  const ServeResult a = run();
  const ServeResult b = run();
  ASSERT_EQ(a.completed.size(), b.completed.size());
  for (size_t i = 0; i < a.completed.size(); ++i) {
    EXPECT_EQ(a.completed[i].name, b.completed[i].name);
    EXPECT_EQ(a.completed[i].session, b.completed[i].session);
    EXPECT_EQ(a.completed[i].start_minutes, b.completed[i].start_minutes);
    EXPECT_EQ(a.completed[i].finish_minutes, b.completed[i].finish_minutes);
    EXPECT_EQ(a.completed[i].slices, b.completed[i].slices);
  }
  EXPECT_EQ(a.makespan_minutes, b.makespan_minutes);
  EXPECT_EQ(a.peak_inflight_gb, b.peak_inflight_gb);
}

// The session contract: per-query results are bit-identical whether the
// queries arrive through one session or N concurrent ones, at any worker
// and compute-thread setting. Compute closures run real operators.
class SessionDeterminismTest : public ::testing::Test {
 protected:
  SessionDeterminismTest()
      : modis_(workload::MakeSmallModisBand(/*days=*/4, /*seed=*/2014)) {}

  exec::CellBox BoxFor(int i) const {
    exec::CellBox box;
    for (const array::DimensionDesc& dim : modis_.schema().dims()) {
      box.lo.push_back(dim.lo);
      // Deterministic variety: successive boxes widen toward the full
      // extent (and may exceed it — the operator clips).
      box.hi.push_back(dim.lo + dim.Extent() / 2 + i);
    }
    return box;
  }

  Request ComputeRequest(int i) {
    Request request = MakeRequest("q" + std::to_string(i), 0.1 * (1 + i % 5),
                                  0.0, 0.01 * i);
    const exec::CellBox box = BoxFor(i);
    const array::Array* array = &modis_;
    request.compute = [array, box](const exec::ExecContext& context) {
      return static_cast<double>(exec::FilterBoxCount(*array, box, context));
    };
    return request;
  }

  std::map<std::string, double> Serve(int sessions_per_tier, int workers,
                                      int compute_threads,
                                      int submit_threads) {
    ServerOptions options = BaseOptions(workers);
    options.compute_threads = compute_threads;
    SessionServer server(options);
    std::vector<int> sessions;
    for (int s = 0; s < sessions_per_tier; ++s) {
      sessions.push_back(server.OpenSession(Tier::kInteractive));
      sessions.push_back(server.OpenSession(Tier::kBatch));
    }
    constexpr int kRequests = 24;
    if (submit_threads <= 1) {
      for (int i = 0; i < kRequests; ++i) {
        EXPECT_TRUE(Admitted(server.Submit(
            sessions[static_cast<size_t>(i) % sessions.size()],
            ComputeRequest(i))));
      }
    } else {
      // Concurrent submitters (the TSan-relevant path). Arrival times are
      // explicit in the requests, so admission order races only against
      // the virtual clock clamp — values must still be identical.
      std::vector<std::thread> threads;
      for (int t = 0; t < submit_threads; ++t) {
        threads.emplace_back([&, t] {
          for (int i = t; i < kRequests; i += submit_threads) {
            server.Submit(sessions[static_cast<size_t>(i) % sessions.size()],
                          ComputeRequest(i));
          }
        });
      }
      for (auto& thread : threads) thread.join();
    }
    const ServeResult result = server.Finish();
    std::map<std::string, double> values;
    for (const Completed& rec : result.completed) {
      EXPECT_TRUE(rec.has_value) << rec.name;
      values[rec.name] = rec.value;
    }
    return values;
  }

  array::Array modis_;
};

TEST_F(SessionDeterminismTest, OneSessionVsManyBitIdentical) {
  // Ground truth: direct sequential execution, no server involved.
  std::map<std::string, double> want;
  for (int i = 0; i < 24; ++i) {
    want["q" + std::to_string(i)] = static_cast<double>(
        exec::FilterBoxCount(modis_, BoxFor(i), exec::ExecContext{}));
  }
  const auto one = Serve(/*sessions_per_tier=*/1, /*workers=*/1,
                         /*compute_threads=*/1, /*submit_threads=*/1);
  EXPECT_EQ(one, want);
  const auto many = Serve(/*sessions_per_tier=*/4, /*workers=*/3,
                          /*compute_threads=*/4, /*submit_threads=*/1);
  EXPECT_EQ(many, want);
  const auto racing = Serve(/*sessions_per_tier=*/4, /*workers=*/2,
                            /*compute_threads=*/2, /*submit_threads=*/4);
  EXPECT_EQ(racing, want);
}

// YieldPoint semantics: a paused gate parks morsel workers at the pickup
// counter (no morsel starts while closed — guaranteed by the gate, not by
// timing), Resume releases them, and Pause/Resume nest.
TEST(YieldPointTest, PausedGateParksMorselWorkers) {
  exec::YieldPoint gate;
  gate.Pause();
  gate.Pause();  // Nested.
  EXPECT_TRUE(gate.paused());

  std::atomic<int64_t> processed{0};
  exec::ExecContext context;
  context.data_plane_threads = 2;
  context.morsel_grain = 8;
  context.yield = &gate;
  const exec::MorselScheduler scheduler(context);
  std::thread runner([&] {
    scheduler.Run(exec::MorselScheduler::Carve(64, 8),
                  [&](size_t, int64_t begin, int64_t end) {
                    processed.fetch_add(end - begin);
                  });
  });
  // While the gate is closed no morsel can have run; one Resume is not
  // enough (the pause nested twice).
  gate.Resume();
  EXPECT_TRUE(gate.paused());
  EXPECT_EQ(processed.load(), 0);
  gate.Resume();
  runner.join();
  EXPECT_FALSE(gate.paused());
  EXPECT_EQ(processed.load(), 64);
}

TEST(YieldPointTest, OpenGateIsTransparent) {
  exec::YieldPoint gate;
  EXPECT_FALSE(gate.paused());
  gate.Wait();  // Must not block.
  exec::ExecContext context;
  context.yield = &gate;
  const exec::MorselScheduler scheduler(context);
  std::atomic<int64_t> processed{0};
  scheduler.Run(exec::MorselScheduler::Carve(32, 8),
                [&](size_t, int64_t begin, int64_t end) {
                  processed.fetch_add(end - begin);
                });
  EXPECT_EQ(processed.load(), 32);
}

TEST(YieldPointTest, ServerContextsCarryTheGate) {
  SessionServer server(BaseOptions(1));
  EXPECT_EQ(server.interactive_context().yield, nullptr);
  EXPECT_EQ(server.batch_context().yield, &server.yield_gate());
}

}  // namespace
}  // namespace arraydb::serve
