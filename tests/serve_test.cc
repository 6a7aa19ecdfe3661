// Serving-layer suite: typed admission rejections (each limit sheds with
// its own reason, never blocking), priority tiers + time slicing beating
// the FIFO single queue on interactive tail latency, the virtual-time
// machine's determinism, the session contract (1 session vs N sessions per
// tier produce identical completion records; concurrent submitters are
// each served once), and slice accounting. Runs under the TSan CI job:
// SessionServer::Submit is exercised from concurrent threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve.h"

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

// Malformed scan_gb counts as 0 GB in flight. Unclamped, a NaN would make
// every later cap comparison false and a negative value would buy
// headroom.
TEST(AdmissionTest, NanScanBytesKeepTheInFlightCap) {
  ServerOptions options = BaseOptions(1);
  options.admission.max_inflight_gb = 1.0;
  SessionServer server(options);
  const int session = server.OpenSession(Tier::kInteractive);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(server.Submit(session, MakeRequest("nan", 1.0, nan)),
            Admission::kAdmitted);
  EXPECT_EQ(server.Submit(session, MakeRequest("huge", 1.0, /*gb=*/1000.0)),
            Admission::kRejectedBytesInFlight);
  const ServeResult result = server.Finish();
  EXPECT_EQ(result.peak_inflight_gb, 0.0);
}

TEST(AdmissionTest, NegativeScanBytesBuyNoHeadroom) {
  ServerOptions options = BaseOptions(1);
  options.admission.max_inflight_gb = 1.0;
  SessionServer server(options);
  const int session = server.OpenSession(Tier::kInteractive);
  EXPECT_EQ(server.Submit(session, MakeRequest("neg", 1.0, /*gb=*/-5.0)),
            Admission::kAdmitted);
  EXPECT_EQ(server.Submit(session, MakeRequest("one", 1.0, /*gb=*/1.0)),
            Admission::kAdmitted);
  EXPECT_EQ(server.Submit(session, MakeRequest("more", 1.0, /*gb=*/0.5)),
            Admission::kRejectedBytesInFlight);
  const ServeResult result = server.Finish();
  EXPECT_DOUBLE_EQ(result.peak_inflight_gb, 1.0);
}

// A NaN shed fraction sheds nothing: the degraded batch tier keeps its
// configured queue limit.
TEST(AdmissionTest, NanDegradedShedFractionShedsNothing) {
  ServerOptions options = BaseOptions(1);
  options.degraded = true;
  options.admission.max_tier_queue = 2;
  options.admission.degraded_batch_shed_fraction =
      std::numeric_limits<double>::quiet_NaN();
  SessionServer server(options);
  const int session = server.OpenSession(Tier::kBatch);
  // "a" starts on the worker; "b" and "c" fill the tier queue of 2.
  for (const char* name : {"a", "b", "c"}) {
    EXPECT_EQ(server.Submit(session, MakeRequest(name, 10.0)),
              Admission::kAdmitted)
        << name;
  }
  EXPECT_EQ(server.Submit(session, MakeRequest("d", 10.0)),
            Admission::kRejectedTierSaturated);
  const ServeResult result = server.Finish();
  EXPECT_EQ(result.tier(Tier::kBatch).rejected_tier_saturated, 1);
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

// The session contract at the virtual level: at the same worker count,
// the same requests give the same completion records whether they arrive
// through one session per tier or through several, and concurrent
// submitters get every request served exactly once.
constexpr int kSessionRequests = 24;

Request SessionRequest(int i) {
  return MakeRequest("q" + std::to_string(i), 0.1 * (1 + i % 5),
                     0.25 * (i % 3), 0.01 * i);
}

ServeResult ServeThroughSessions(int sessions_per_tier, int workers,
                                 int submit_threads) {
  SessionServer server(BaseOptions(workers));
  std::vector<int> sessions;
  for (int s = 0; s < sessions_per_tier; ++s) {
    sessions.push_back(server.OpenSession(Tier::kInteractive));
    sessions.push_back(server.OpenSession(Tier::kBatch));
  }
  // Request i lands in a session of tier i % 2 at every sessions_per_tier.
  const auto submit = [&](int i) {
    return server.Submit(sessions[static_cast<size_t>(i) % sessions.size()],
                         SessionRequest(i));
  };
  if (submit_threads <= 1) {
    for (int i = 0; i < kSessionRequests; ++i) {
      EXPECT_TRUE(Admitted(submit(i))) << i;
    }
  } else {
    // Concurrent submitters (the TSan-relevant path): admission order
    // races against the virtual clock clamp, so only the served set is
    // fixed, not the timings.
    std::vector<std::thread> threads;
    for (int t = 0; t < submit_threads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = t; i < kSessionRequests; i += submit_threads) {
          EXPECT_TRUE(Admitted(submit(i))) << i;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  return server.Finish();
}

TEST(SessionDeterminismTest, OneSessionVsManyGiveIdenticalRecords) {
  for (const int workers : {1, 3}) {
    const ServeResult one = ServeThroughSessions(1, workers, 1);
    const ServeResult many = ServeThroughSessions(4, workers, 1);
    ASSERT_EQ(one.completed.size(), static_cast<size_t>(kSessionRequests));
    ASSERT_EQ(many.completed.size(), one.completed.size());
    for (size_t i = 0; i < one.completed.size(); ++i) {
      const Completed& a = one.completed[i];
      const Completed& b = many.completed[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.tier, b.tier);
      EXPECT_EQ(a.arrival_minutes, b.arrival_minutes);
      EXPECT_EQ(a.start_minutes, b.start_minutes);
      EXPECT_EQ(a.finish_minutes, b.finish_minutes);
      EXPECT_EQ(a.latency_minutes, b.latency_minutes);
      EXPECT_EQ(a.slices, b.slices);
    }
    EXPECT_EQ(one.makespan_minutes, many.makespan_minutes);
    EXPECT_EQ(one.peak_inflight_gb, many.peak_inflight_gb);
  }
}

TEST(SessionDeterminismTest, ConcurrentSubmittersServeEveryRequestOnce) {
  const ServeResult racing = ServeThroughSessions(4, 2, /*submit_threads=*/4);
  EXPECT_EQ(racing.tier(Tier::kInteractive).admitted +
                racing.tier(Tier::kBatch).admitted,
            kSessionRequests);
  std::map<std::string, int> served;
  for (const Completed& rec : racing.completed) served[rec.name]++;
  ASSERT_EQ(served.size(), static_cast<size_t>(kSessionRequests));
  for (const auto& [name, count] : served) EXPECT_EQ(count, 1) << name;
}

}  // namespace
}  // namespace arraydb::serve
