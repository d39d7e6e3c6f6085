// Per-request causal context: the TraceRequest* helpers stamp the context
// whether or not the tracer records, and emit the same flow chains as
// before when it does.

#include "src/obs/request.h"

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/hw/specs.h"
#include "src/sim/simulator.h"
#include "src/workload/dl/serving.h"

namespace soccluster {
namespace {

SimTime At(double seconds) {
  return SimTime::Zero() + Duration::SecondsF(seconds);
}

// (name, phase, flow id, track) of every recorded flow point, in order.
using FlowPoint = std::tuple<std::string, TraceFlow::Phase, uint64_t, int64_t>;

std::vector<FlowPoint> FlowsOf(const Tracer& tracer, uint64_t flow_id) {
  std::vector<FlowPoint> points;
  for (const TraceFlow& flow : tracer.flows()) {
    if (flow.flow_id == flow_id) {
      points.emplace_back(flow.name, flow.phase, flow.flow_id, flow.track);
    }
  }
  return points;
}

TEST(RequestTraceTest, DisabledTracerStillStampsTheContext) {
  Simulator sim;
  Tracer& tracer = sim.tracer();
  ASSERT_FALSE(tracer.enabled());
  RequestContext served;
  served.id = 5;
  TraceRequestSubmit(&tracer, &served, "svc", At(1.0));
  TraceRequestAdmit(&tracer, &served, At(2.0));
  TraceRequestDispatch(&tracer, &served, At(3.0), /*soc_index=*/4,
                       /*track=*/4);
  TraceRequestFailover(&tracer, &served, At(3.5));
  TraceRequestDispatch(&tracer, &served, At(4.0), /*soc_index=*/6,
                       /*track=*/6);
  TraceRequestComplete(&tracer, &served, At(5.0));
  EXPECT_EQ(served.category, "svc");
  EXPECT_EQ(served.submit, At(1.0));
  EXPECT_EQ(served.admit, At(2.0));
  EXPECT_EQ(served.dispatch, At(3.0));  // The first dispatch.
  EXPECT_EQ(served.complete, At(5.0));
  EXPECT_EQ(served.last_event, At(5.0));
  EXPECT_EQ(served.dispatches, 2);
  EXPECT_EQ(served.failovers, 1);
  EXPECT_EQ(served.soc_index, 6);
  EXPECT_TRUE(served.admitted);
  EXPECT_TRUE(served.completed);
  EXPECT_FALSE(served.dropped);

  RequestContext shed;
  shed.id = 6;
  TraceRequestSubmit(&tracer, &shed, "svc", At(7.0));
  TraceRequestDrop(&tracer, &shed, At(7.0));
  EXPECT_EQ(shed.submit, At(7.0));
  EXPECT_EQ(shed.complete, At(7.0));
  EXPECT_TRUE(shed.dropped);
  EXPECT_FALSE(shed.admitted);
  EXPECT_FALSE(shed.completed);

  // Null tracers stamp too, and null contexts are ignored.
  RequestContext untraced;
  TraceRequestSubmit(nullptr, &untraced, "svc", At(8.0));
  EXPECT_EQ(untraced.submit, At(8.0));
  TraceRequestDrop(&tracer, nullptr, At(8.0));

  EXPECT_TRUE(tracer.flows().empty());
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.dropped_spans(), 0);
}

TEST(RequestTraceTest, EnabledTracerEmitsServedAndShedChains) {
  Simulator sim;
  Tracer& tracer = sim.tracer();
  tracer.Enable();
  RequestContext served;
  served.id = 5;
  TraceRequestSubmit(&tracer, &served, "svc", sim.Now());
  TraceRequestAdmit(&tracer, &served, sim.Now());
  TraceRequestDispatch(&tracer, &served, sim.Now(), /*soc_index=*/4,
                       /*track=*/4);
  TraceRequestComplete(&tracer, &served, sim.Now(), /*track=*/4);
  RequestContext shed;
  shed.id = 6;
  TraceRequestSubmit(&tracer, &shed, "svc", sim.Now());
  TraceRequestDrop(&tracer, &shed, sim.Now());
  // A context without an id is stamped but never traced.
  RequestContext anonymous;
  TraceRequestSubmit(&tracer, &anonymous, "svc", sim.Now());
  EXPECT_EQ(anonymous.category, "svc");

  using Phase = TraceFlow::Phase;
  EXPECT_EQ(FlowsOf(tracer, 5),
            (std::vector<FlowPoint>{{"submit", Phase::kBegin, 5, 0},
                                    {"admit", Phase::kStep, 5, 0},
                                    {"dispatch", Phase::kStep, 5, 4},
                                    {"complete", Phase::kEnd, 5, 4}}));
  EXPECT_EQ(FlowsOf(tracer, 6),
            (std::vector<FlowPoint>{{"submit", Phase::kBegin, 6, 0},
                                    {"drop", Phase::kEnd, 6, 0}}));
  ASSERT_EQ(tracer.flows().size(), 6u);
  for (const TraceFlow& flow : tracer.flows()) {
    EXPECT_EQ(flow.category, "svc");
  }
}

TEST(RequestTraceTest, ServingFleetChainsAreUnchanged) {
  // End to end through the admission queue: one SoC, a one-deep queue,
  // three requests. The first is served, the second waits and is served,
  // the third is shed at the full queue.
  Simulator sim{41};
  SocCluster cluster{&sim, DefaultChassisSpec(), Snapdragon865Spec()};
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());
  sim.tracer().Enable();
  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  fleet.admission().SetMaxQueue(1);
  for (int i = 0; i < 3; ++i) {
    fleet.Submit();
  }
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(5)).ok());
  ASSERT_EQ(fleet.completed(), 2);
  ASSERT_EQ(fleet.shed(), 1);
  std::vector<std::vector<std::string>> chains(3);
  for (const TraceFlow& flow : sim.tracer().flows()) {
    ASSERT_EQ(flow.category, "dl.serving");
    ASSERT_GE(flow.flow_id, 1u);
    ASSERT_LE(flow.flow_id, 3u);
    chains[flow.flow_id - 1].push_back(flow.name);
  }
  const std::vector<std::string> served = {"submit", "admit", "dispatch",
                                           "complete"};
  EXPECT_EQ(chains[0], served);
  EXPECT_EQ(chains[1], served);
  EXPECT_EQ(chains[2], (std::vector<std::string>{"submit", "drop"}));
}

}  // namespace
}  // namespace soccluster
