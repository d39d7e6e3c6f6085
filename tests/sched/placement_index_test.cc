// Property test for the placement index. SocCapacityView keeps a free-slot
// bitset and Placer::Pick visits only the SoCs whose bit is set when the
// demand asks for slots. The linear reference below is the algorithm the
// index replaced: a 0..N-1 sweep that runs the full feasibility check on
// every SoC. Random sequences of reserve/release, failure/repair,
// power-off/on, quarantine toggles, external CPU load, filters, plan
// overlays, load penalties and scan bounds must leave (a) every indexed
// pick equal to the reference pick, (b) sched.score_evaluations equal to
// the reference's count, and (c) the bitset equal to its definition after
// every operation. The chassis has more than 64 SoCs so the second bitset
// word is exercised.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/cluster/cluster.h"
#include "src/hw/specs.h"
#include "src/sched/capacity.h"
#include "src/sched/placer.h"
#include "src/sim/simulator.h"

namespace soccluster {
namespace {

constexpr int kNumSocs = 80;
constexpr int kNumOps = 600;
constexpr PlacementPolicy kPolicies[] = {
    PlacementPolicy::kSpread, PlacementPolicy::kPack,
    PlacementPolicy::kBestFit, PlacementPolicy::kRandomOfK};

ClusterChassisSpec WideChassis() {
  ClusterChassisSpec chassis = DefaultChassisSpec();
  chassis.num_socs = kNumSocs;
  chassis.num_pcbs = kNumSocs / 5;
  chassis.socs_per_pcb = 5;
  return chassis;
}

PlacementDemand WithOverlay(PlacementDemand base,
                            const PlacementDemand& extra) {
  base.cpu_util += extra.cpu_util;
  base.memory_gb += extra.memory_gb;
  base.gpu_util += extra.gpu_util;
  base.dsp_util += extra.dsp_util;
  base.codec_sessions += extra.codec_sessions;
  base.slots += extra.slots;
  return base;
}

double DominantUtil(const SocCapacityView& view, int i,
                    const PlacementDemand& d) {
  const SocModel& soc = view.cluster().soc(i);
  double dominant = 0.0;
  if (d.cpu_util > 0.0) {
    dominant = std::max(dominant, soc.cpu_util() + d.cpu_util);
  }
  if (d.memory_gb > 0.0) {
    dominant = std::max(dominant, (view.MemoryUsedGb(i) + d.memory_gb) /
                                      view.MemoryCapacityGb(i));
  }
  if (d.slots > 0 && view.slot_capacity() > 0) {
    dominant = std::max(dominant,
                        static_cast<double>(view.SlotsUsed(i) + d.slots) /
                            view.slot_capacity());
  }
  return dominant;
}

struct ReferencePick {
  int soc_index = -1;
  int64_t evaluated = 0;
};

// The linear reference: every SoC below the bound is checked, in index
// order, exactly as the Placer did before the free-slot index. `rng`
// mirrors the placer's kRandomOfK stream.
ReferencePick LinearPick(PlacementPolicy policy, const SocCapacityView& view,
                         const Placer& placer, const PlacementDemand& demand,
                         const Placer::Filter& filter,
                         const PlanOverlay* overlay, int scan_bound,
                         int random_k, Rng* rng) {
  const int bound = scan_bound < 0 ? view.num_socs()
                                   : std::min(scan_bound, view.num_socs());
  std::vector<int> feasible;
  for (int i = 0; i < bound; ++i) {
    if (filter && !filter(i)) {
      continue;
    }
    const PlacementDemand d =
        overlay != nullptr ? WithOverlay(demand, overlay->Get(i)) : demand;
    if (view.Fits(i, d)) {
      feasible.push_back(i);
    }
  }
  ReferencePick pick;
  switch (policy) {
    case PlacementPolicy::kSpread:
    case PlacementPolicy::kPack: {
      double best = std::numeric_limits<double>::infinity();
      for (const int i : feasible) {
        const double key = policy == PlacementPolicy::kSpread
                               ? placer.Load(i)
                               : -placer.Load(i);
        if (key < best) {
          best = key;
          pick.soc_index = i;
        }
      }
      pick.evaluated = static_cast<int64_t>(feasible.size());
      break;
    }
    case PlacementPolicy::kBestFit: {
      double best = -1.0;
      for (const int i : feasible) {
        const PlacementDemand d =
            overlay != nullptr ? WithOverlay(demand, overlay->Get(i))
                               : demand;
        const double score = DominantUtil(view, i, d);
        if (score > best) {
          best = score;
          pick.soc_index = i;
        }
      }
      pick.evaluated = static_cast<int64_t>(feasible.size());
      break;
    }
    case PlacementPolicy::kRandomOfK: {
      if (feasible.empty()) {
        break;
      }
      const int size = static_cast<int>(feasible.size());
      const int k = std::min(random_k, size);
      double best = std::numeric_limits<double>::infinity();
      for (int j = 0; j < k; ++j) {
        const int swap_with = static_cast<int>(
            rng->UniformInt(j, static_cast<int64_t>(size) - 1));
        std::swap(feasible[static_cast<size_t>(j)],
                  feasible[static_cast<size_t>(swap_with)]);
        const int candidate = feasible[static_cast<size_t>(j)];
        const double load = placer.Load(candidate);
        if (load < best || (load == best && candidate < pick.soc_index)) {
          best = load;
          pick.soc_index = candidate;
        }
      }
      pick.evaluated = k;
      break;
    }
  }
  return pick;
}

void ExpectBitsetInvariant(const SocCapacityView& view, int op) {
  const std::vector<uint64_t>& words = view.free_slot_words();
  ASSERT_EQ(words.size(), static_cast<size_t>((view.num_socs() + 63) / 64));
  for (int i = 0; i < static_cast<int>(words.size()) * 64; ++i) {
    const bool bit = (words[static_cast<size_t>(i / 64)] >> (i % 64)) & 1;
    const bool free =
        i < view.num_socs() && view.SlotsUsed(i) < view.slot_capacity();
    ASSERT_EQ(bit, free) << "op " << op << " soc " << i;
  }
}

struct Reservation {
  int soc_index;
  PlacementDemand demand;
};

class PlacementIndexProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

void RunSequence(uint64_t seed, int slot_capacity, PlacementPolicy policy) {
  SCOPED_TRACE(PlacementPolicyName(policy));
  Simulator sim(seed);
  SocCluster cluster(&sim, WideChassis(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());
  SocCapacityView::Options view_options;
  view_options.slot_capacity = slot_capacity;
  SocCapacityView view(&cluster, view_options);
  Placer::Options options;
  options.policy = policy;
  options.load.slot_weight = 1.0;
  options.load.memory_weight_per_gb = 0.05;
  options.random_k = 3;
  options.seed = seed * 31 + 7;
  Placer placer(&sim, &view, options);
  Counter* evaluations = sim.metrics().GetCounter(
      "sched.score_evaluations", {{"policy", PlacementPolicyName(policy)}});
  Rng reference_rng(options.seed);
  Rng rng(seed);
  std::vector<Reservation> held;
  int64_t picks = 0;
  int64_t placed = 0;
  ExpectBitsetInvariant(view, -1);

  for (int op = 0; op < kNumOps; ++op) {
    const int soc = static_cast<int>(rng.UniformInt(0, kNumSocs - 1));
    switch (rng.UniformInt(0, 12)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        PlacementDemand demand;
        // Mostly slot demands (the indexed path), some slot-free ones.
        demand.slots =
            rng.Bernoulli(0.9) ? static_cast<int>(rng.UniformInt(1, slot_capacity))
                               : 0;
        if (rng.Bernoulli(0.5)) {
          demand.cpu_util = rng.Uniform(0.0, 0.3);
        }
        if (rng.Bernoulli(0.3)) {
          demand.memory_gb = rng.Uniform(0.0, 3.0);
        }
        Placer::Filter filter;
        if (rng.Bernoulli(0.3)) {
          const int modulus = static_cast<int>(rng.UniformInt(2, 5));
          const int skip = static_cast<int>(rng.UniformInt(0, modulus - 1));
          filter = [modulus, skip](int i) { return i % modulus != skip; };
        }
        PlanOverlay overlay;
        const bool use_overlay = rng.Bernoulli(0.2);
        if (use_overlay) {
          for (int n = static_cast<int>(rng.UniformInt(1, 6)); n > 0; --n) {
            PlacementDemand extra;
            extra.slots = static_cast<int>(rng.UniformInt(0, 1));
            extra.cpu_util = rng.Uniform(0.0, 0.2);
            overlay.Add(static_cast<int>(rng.UniformInt(0, kNumSocs - 1)),
                        extra);
          }
        }
        const int scan_bound =
            rng.Bernoulli(0.4) ? static_cast<int>(rng.UniformInt(0, kNumSocs))
                               : -1;
        const PlanOverlay* overlay_ptr = use_overlay ? &overlay : nullptr;
        const ReferencePick expected =
            LinearPick(policy, view, placer, demand, filter, overlay_ptr,
                       scan_bound, options.random_k, &reference_rng);
        const int64_t evaluations_before = evaluations->value();
        const int picked =
            placer.Pick(demand, filter, overlay_ptr, nullptr, scan_bound);
        ASSERT_EQ(picked, expected.soc_index) << "op " << op;
        ASSERT_EQ(evaluations->value() - evaluations_before,
                  expected.evaluated)
            << "op " << op;
        ++picks;
        if (picked >= 0) {
          view.Reserve(picked, demand);
          held.push_back({picked, demand});
          ++placed;
        }
        break;
      }
      case 4:
      case 5:
        if (!held.empty()) {
          const size_t at = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
          view.Release(held[at].soc_index, held[at].demand);
          held[at] = held.back();
          held.pop_back();
        }
        break;
      case 6:
        cluster.soc(soc).Fail();
        break;
      case 7:
        cluster.soc(soc).Repair();
        (void)cluster.soc(soc).PowerOn(Duration::Seconds(5), nullptr);
        break;
      case 8:
        // Refused while CPU work is charged; that is part of the sequence.
        (void)cluster.soc(soc).PowerOff();
        break;
      case 9:
        cluster.soc(soc).SetQuarantined(!cluster.soc(soc).quarantined());
        break;
      case 10:
        if (rng.Bernoulli(0.3)) {
          placer.set_penalty(nullptr);
        } else {
          std::vector<double> penalty(kNumSocs);
          for (double& p : penalty) {
            p = rng.Bernoulli(0.2) ? rng.Uniform(0.0, 2.0) : 0.0;
          }
          placer.set_penalty([penalty](int i) {
            return penalty[static_cast<size_t>(i)];
          });
        }
        break;
      case 11:
        // Load charged outside the view (a co-resident service).
        (void)cluster.soc(soc).AddCpuUtil(
            rng.Bernoulli(0.5) ? rng.Uniform(0.0, 0.4)
                               : -std::min(0.2, cluster.soc(soc).cpu_util()));
        break;
      default:
        ASSERT_TRUE(sim.RunFor(Duration::Seconds(3)).ok());
        break;
    }
    ExpectBitsetInvariant(view, op);
  }
  // The sequence must reach both outcomes, or the comparison is vacuous.
  EXPECT_GT(placed, 0);
  EXPECT_LT(placed, picks);
}

TEST_P(PlacementIndexProperty, IndexedPicksMatchLinearReference) {
  const auto [seed, slot_capacity] = GetParam();
  for (const PlacementPolicy policy : kPolicies) {
    RunSequence(seed, slot_capacity, policy);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSlotCapacities, PlacementIndexProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13, 21, 42),
                       ::testing::Values(1, 3)));

// With no slot pool a slot demand must still reach Fits() and CHECK-fail,
// as it did under the linear scan, rather than find an empty index.
TEST(PlacementIndexDeathTest, SlotDemandWithoutPoolStillChecks) {
  Simulator sim(1);
  SocCluster cluster(&sim, WideChassis(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());
  SocCapacityView view(&cluster);
  Placer placer(&sim, &view, Placer::Options());
  PlacementDemand demand;
  demand.slots = 1;
  EXPECT_DEATH(placer.Pick(demand), "slot demand against a view");
}

}  // namespace
}  // namespace soccluster
