// Request-level resilience tests: load shedding, deadlines, and mid-flight
// SoC death in the serving fleet; mid-pipeline failover in collaborative
// inference; and the bitrate-ladder degradation path in live transcoding.

#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/cluster/cluster.h"
#include "src/hw/specs.h"
#include "src/obs/slo.h"
#include "src/qos/breaker.h"
#include "src/workload/dl/collab.h"
#include "src/workload/dl/serving.h"
#include "src/workload/video/live.h"

namespace soccluster {
namespace {

class ServingResilienceTest : public ::testing::Test {
 protected:
  void Boot() {
    cluster_.PowerOnAll(nullptr);
    ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  }

  Duration ServiceTime(const SocServingFleet& fleet) const {
    return Duration::SecondsF(1.0 / fleet.PerSocThroughput());
  }

  Simulator sim_{41};
  SocCluster cluster_{&sim_, DefaultChassisSpec(), Snapdragon865Spec()};
};

TEST_F(ServingResilienceTest, MaxQueueShedsOverload) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  fleet.admission().SetMaxQueue(2);
  // One dispatches immediately, two queue, the other seven are shed.
  for (int i = 0; i < 10; ++i) {
    fleet.Submit();
  }
  EXPECT_EQ(fleet.shed(), 7);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(5)).ok());
  EXPECT_EQ(fleet.completed(), 3);
  EXPECT_EQ(fleet.failed(), 0);
}

TEST_F(ServingResilienceTest, DeadlineDropsStaleRequests) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  // Queueing delay beyond ~five service times means the client hung up.
  fleet.SetDeadline(Duration::SecondsF(5.0 / fleet.PerSocThroughput()));
  for (int i = 0; i < 100; ++i) {
    fleet.Submit();
  }
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());
  EXPECT_GT(fleet.completed(), 0);
  EXPECT_GT(fleet.deadline_expired(), 0);
  EXPECT_EQ(fleet.completed() + fleet.deadline_expired(), 100);
  // Expired requests never occupied a SoC, so the survivors met the bound.
  EXPECT_LT(fleet.completed(), 10);
}

TEST_F(ServingResilienceTest, WithoutRetryTheRequestIsLost) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(2);
  std::vector<std::pair<uint64_t, ClientOutcome>> outcomes;
  fleet.SetClientObserver(
      [&outcomes](uint64_t ticket, ClientOutcome outcome, Duration) {
        outcomes.emplace_back(ticket, outcome);
      });
  ClientAttribution client;
  client.ticket = 77;
  fleet.Submit(Priority::kStandard, client);  // Dispatches onto SoC 0.
  sim_.ScheduleAfter(ServiceTime(fleet) * 0.5,
                     [this] { cluster_.soc(0).Fail(); });
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(5)).ok());
  // The fleet never retries: the SoC's death ends the request, and the
  // client hears exactly one failure under its own ticket.
  EXPECT_EQ(fleet.failed(), 1);
  EXPECT_EQ(fleet.completed(), 0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].first, 77u);
  EXPECT_EQ(outcomes[0].second, ClientOutcome::kFailed);
}

TEST_F(ServingResilienceTest, BreakerDoorShedCountsAgainstTheSlo) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  CircuitBreakerConfig config;
  config.service = "test.serving";
  config.min_samples = 4;
  config.open_duration = Duration::Minutes(1);
  CircuitBreaker breaker(&sim_, config);
  for (int i = 0; i < 4; ++i) {
    breaker.RecordFailure();
  }
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  fleet.SetBreaker(&breaker);
  SloTracker* standard = fleet.slo_of(Priority::kStandard);
  const int64_t bad_before = standard->bad_total();
  fleet.Submit(Priority::kStandard);
  // Shed at the door, and that shed is a bad event like any other shed.
  EXPECT_EQ(fleet.shed(), 1);
  EXPECT_EQ(standard->bad_total(), bad_before + 1);
  EXPECT_EQ(standard->good_total(), 0);
  // Critical traffic bypasses the breaker and records nothing at the door.
  SloTracker* critical = fleet.slo_of(Priority::kCritical);
  fleet.Submit(Priority::kCritical);
  EXPECT_EQ(fleet.shed(), 1);
  EXPECT_EQ(critical->bad_total(), 0);
}

TEST_F(ServingResilienceTest, ThrottledSocServesProportionallySlower) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  const double nominal_ms = 1000.0 / fleet.PerSocThroughput();
  cluster_.soc(0).SetThrottleFactor(0.5);
  fleet.Submit();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(5)).ok());
  ASSERT_EQ(fleet.completed(), 1);
  EXPECT_NEAR(fleet.latencies().Mean(), 2.0 * nominal_ms, 0.01 * nominal_ms);
}

TEST(CollabResilienceTest, FailoverSurvivesMemberDeath) {
  Simulator sim(43);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());

  CollabResult result;
  bool done = false;
  CollaborativeInference collab(&sim, &cluster,
                                DefaultCollabConfig(DnnModel::kResNet50),
                                /*num_socs=*/5, /*pipelined=*/false);
  collab.Run([&](const CollabResult& r) {
    result = r;
    done = true;
  });
  // Kill one participant mid-run (ResNet-50 over 5 SoCs takes ~40 ms).
  sim.ScheduleAfter(Duration::MillisF(10.0),
                    [&] { cluster.soc(2).Fail(); });
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.failovers, 1);
  EXPECT_EQ(result.surviving_socs, 4);
  EXPECT_EQ(collab.num_members(), 4);
  // The failover penalty and re-run are on the critical path.
  EXPECT_GT(result.total.nanos(),
            DefaultCollabConfig(DnnModel::kResNet50).failover_penalty.nanos());
}

TEST(CollabResilienceTest, AbortsWhenEveryMemberDies) {
  Simulator sim(44);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());

  CollabResult result;
  bool done = false;
  CollaborativeInference collab(&sim, &cluster,
                                DefaultCollabConfig(DnnModel::kResNet50),
                                /*num_socs=*/2, /*pipelined=*/false);
  collab.Run([&](const CollabResult& r) {
    result = r;
    done = true;
  });
  sim.ScheduleAfter(Duration::MillisF(5.0), [&] {
    cluster.soc(0).Fail();
    cluster.soc(1).Fail();
  });
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());

  ASSERT_TRUE(done);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.surviving_socs, 0);
}

TEST(LiveResilienceTest, FailureWalksStreamsDownTheBitrateLadder) {
  Simulator sim(45);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());

  LiveTranscodingService service(&sim, &cluster, PlacementPolicy::kSpread);
  // Fill the cluster to CPU-admission rejection: every survivor is at
  // capacity, so displaced streams can only re-home at a lower rung.
  while (service
             .StartStream(VbenchVideo::kV4Presentation,
                          TranscodeBackend::kSocCpu)
             .ok()) {
  }
  const int before = service.active_streams();
  ASSERT_GT(before, 0);
  ASSERT_EQ(service.StreamsAtRung(0), before);

  const int victim_streams = service.StreamsOnSoc(0);
  ASSERT_GT(victim_streams, 0);
  cluster.soc(0).Fail();
  service.OnSocFailure(0);

  EXPECT_EQ(service.StreamsOnSoc(0), 0);
  const int degraded = static_cast<int>(service.streams_degraded());
  const int dropped = static_cast<int>(service.streams_dropped());
  EXPECT_GT(degraded + dropped, 0);
  // Conservation: every displaced stream was re-homed or dropped.
  EXPECT_EQ(service.active_streams(), before - dropped);
  EXPECT_EQ(service.StreamsAtRung(1) + service.StreamsAtRung(2), degraded);
}

}  // namespace
}  // namespace soccluster
