// SloTracker burn-rate math and the multi-window fire/clear state machine,
// plus the SloEngine registry and its JSON timeline export.

#include "src/obs/slo.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"

namespace soccluster {
namespace {

SloSpec TestSpec() {
  SloSpec spec;
  spec.name = "svc/standard";
  spec.service = "svc";
  spec.class_name = "standard";
  spec.threshold = Duration::Seconds(1);
  spec.objective = 0.99;  // 1% error budget.
  spec.fast_window = Duration::Seconds(30);
  spec.slow_window = Duration::Minutes(2);
  spec.burn_threshold = 3.0;
  return spec;
}

SimTime At(double seconds) {
  return SimTime::Zero() + Duration::SecondsF(seconds);
}

TEST(SloTrackerTest, BurnRateIsBadFractionOverBudget) {
  SloTracker tracker(TestSpec());
  // 1% bad over the window = exactly 1.0x budget burn.
  for (int i = 0; i < 99; ++i) {
    tracker.Record(At(10.0), true);
  }
  tracker.Record(At(10.0), false);
  EXPECT_NEAR(tracker.BurnRate(At(10.0), Duration::Seconds(30)), 1.0, 1e-9);
  // 10% bad burns 10x the budget.
  SloTracker hot(TestSpec());
  for (int i = 0; i < 90; ++i) {
    hot.Record(At(10.0), true);
  }
  for (int i = 0; i < 10; ++i) {
    hot.Record(At(10.0), false);
  }
  EXPECT_NEAR(hot.BurnRate(At(10.0), Duration::Seconds(30)), 10.0, 1e-9);
  // An empty window burns nothing.
  EXPECT_DOUBLE_EQ(tracker.BurnRate(At(500.0), Duration::Seconds(30)), 0.0);
}

TEST(SloTrackerTest, FiresOnlyWhenBothWindowsBurn) {
  SloTracker tracker(TestSpec());
  // Two minutes of healthy traffic fill the slow window.
  for (int second = 0; second < 120; ++second) {
    for (int i = 0; i < 100; ++i) {
      tracker.Record(At(second), true);
    }
  }
  // A short burst of errors saturates the fast window, but the slow
  // window still holds two minutes of good traffic: no page.
  for (int i = 0; i < 200; ++i) {
    tracker.Record(At(121.0), false);
  }
  EXPECT_GE(tracker.BurnRate(At(121.0), Duration::Seconds(30)), 3.0);
  EXPECT_LT(tracker.BurnRate(At(121.0), Duration::Minutes(2)), 3.0);
  EXPECT_FALSE(tracker.firing());
  // Sustained errors push the slow window over too: now it fires.
  for (int second = 122; second < 240; ++second) {
    for (int i = 0; i < 100; ++i) {
      tracker.Record(At(second), false);
    }
  }
  EXPECT_TRUE(tracker.firing());
  ASSERT_EQ(tracker.alerts().size(), 1u);
  EXPECT_TRUE(tracker.alerts()[0].firing);
  EXPECT_GE(tracker.alerts()[0].fast_burn, 3.0);
  EXPECT_GE(tracker.alerts()[0].slow_burn, 3.0);
}

TEST(SloTrackerTest, ClearsWhenBurnSubsides) {
  SloTracker tracker(TestSpec());
  for (int second = 0; second < 120; ++second) {
    tracker.Record(At(second), false);
  }
  ASSERT_TRUE(tracker.firing());
  // Healthy traffic ages the errors out of both windows.
  for (int second = 120; second < 300; ++second) {
    tracker.Record(At(second), true);
  }
  EXPECT_FALSE(tracker.firing());
  ASSERT_EQ(tracker.alerts().size(), 2u);
  EXPECT_TRUE(tracker.alerts()[0].firing);
  EXPECT_FALSE(tracker.alerts()[1].firing);
  EXPECT_LT(tracker.alerts()[0].time, tracker.alerts()[1].time);
}

TEST(SloTrackerTest, AdvanceRecordsClearAfterDrain) {
  // The bench drain-end pattern: traffic stops while the alert is firing;
  // a later Advance sees empty windows (burn 0) and records the clear.
  SloTracker tracker(TestSpec());
  for (int second = 0; second < 120; ++second) {
    tracker.Record(At(second), false);
  }
  ASSERT_TRUE(tracker.firing());
  tracker.Advance(At(600.0));
  EXPECT_FALSE(tracker.firing());
  ASSERT_EQ(tracker.alerts().size(), 2u);
  EXPECT_FALSE(tracker.alerts()[1].firing);
  // Re-advancing at the same time is a no-op.
  tracker.Advance(At(600.0));
  EXPECT_EQ(tracker.alerts().size(), 2u);
}

TEST(SloTrackerTest, RecordLatencyComparesAgainstThreshold) {
  SloTracker tracker(TestSpec());
  tracker.RecordLatency(At(1.0), Duration::Millis(500));   // Good.
  tracker.RecordLatency(At(1.0), Duration::Seconds(1));    // Good (<=).
  tracker.RecordLatency(At(1.0), Duration::MillisF(1001));  // Bad.
  EXPECT_EQ(tracker.good_total(), 2);
  EXPECT_EQ(tracker.bad_total(), 1);
}

// The tracker's windowing before the sums were cached: the same ring, but
// every Advance rescans it for both windows. SloTracker must reproduce its
// alert timeline and burn rates exactly.
class RescanningTracker {
 public:
  explicit RescanningTracker(const SloSpec& spec)
      : spec_(spec),
        width_(spec.slow_window.nanos() / spec.buckets),
        ring_(static_cast<size_t>(spec.buckets) + 1) {}

  void Record(SimTime now, bool good) {
    const int64_t epoch = now.nanos() / width_;
    Bucket& slot = ring_[static_cast<size_t>(
        epoch % static_cast<int64_t>(ring_.size()))];
    if (slot.epoch != epoch) {
      slot = Bucket{epoch, 0, 0};
    }
    ++(good ? slot.good : slot.bad);
    Advance(now);
  }

  void Advance(SimTime now) {
    const double fast = BurnRate(now, spec_.fast_window);
    const double slow = BurnRate(now, spec_.slow_window);
    const double limit = spec_.burn_threshold;
    if (!firing_ && fast >= limit && slow >= limit) {
      firing_ = true;
      alerts_.push_back(SloAlert{now, true, fast, slow});
    } else if (firing_ && fast < limit && slow < limit) {
      firing_ = false;
      alerts_.push_back(SloAlert{now, false, fast, slow});
    }
  }

  double BurnRate(SimTime now, Duration window) const {
    const int64_t epoch_now = now.nanos() / width_;
    const int64_t span = std::max<int64_t>(window.nanos() / width_, 1);
    int64_t good = 0;
    int64_t bad = 0;
    for (const Bucket& slot : ring_) {
      if (slot.epoch > epoch_now - span && slot.epoch <= epoch_now) {
        good += slot.good;
        bad += slot.bad;
      }
    }
    if (good + bad == 0) {
      return 0.0;
    }
    return (static_cast<double>(bad) / static_cast<double>(good + bad)) /
           (1.0 - spec_.objective);
  }

  const std::vector<SloAlert>& alerts() const { return alerts_; }

 private:
  struct Bucket {
    int64_t epoch = -1;
    int64_t good = 0;
    int64_t bad = 0;
  };
  SloSpec spec_;
  int64_t width_;
  std::vector<Bucket> ring_;
  bool firing_ = false;
  std::vector<SloAlert> alerts_;
};

// Drives both trackers through one random Record/Advance sequence with
// non-decreasing time, mixing the step kinds that stress the cache:
// same-epoch bursts, one-bucket steps, gaps longer than the ring,
// Advance-only stretches, and repeated calls at one instant.
void ExpectMatchesRescan(const SloSpec& spec, uint64_t seed) {
  SloTracker tracker(spec);
  RescanningTracker reference(spec);
  Rng rng(seed);
  const int64_t width = spec.slow_window.nanos() / spec.buckets;
  int64_t now_ns = 0;
  // Error phases long enough to fire, so the timeline is not empty.
  double bad_share = 0.0;
  for (int op = 0; op < 20000; ++op) {
    if (op % 500 == 0) {
      bad_share = rng.Bernoulli(0.5) ? rng.Uniform(0.05, 0.9) : 0.0;
    }
    switch (rng.UniformInt(0, 9)) {
      case 0:
        break;  // Same instant.
      case 1:
        now_ns += width;  // Exactly one bucket on.
        break;
      case 2:
        now_ns += spec.slow_window.nanos() * rng.UniformInt(2, 4);
        break;  // Past the whole ring.
      default:
        now_ns += rng.UniformInt(0, width / 4);  // Mostly same epoch.
        break;
    }
    const SimTime now = SimTime::FromNanos(now_ns);
    const int64_t calls = rng.UniformInt(1, 6);
    const bool advance_only = rng.Bernoulli(0.15);
    for (int64_t c = 0; c < calls; ++c) {
      if (advance_only) {
        tracker.Advance(now);
        reference.Advance(now);
      } else {
        const bool good = !rng.Bernoulli(bad_share);
        tracker.Record(now, good);
        reference.Record(now, good);
      }
    }
    ASSERT_EQ(tracker.BurnRate(now, spec.fast_window),
              reference.BurnRate(now, spec.fast_window))
        << "seed " << seed << " op " << op;
    ASSERT_EQ(tracker.BurnRate(now, spec.slow_window),
              reference.BurnRate(now, spec.slow_window))
        << "seed " << seed << " op " << op;
  }
  const std::vector<SloAlert>& got = tracker.alerts();
  const std::vector<SloAlert>& want = reference.alerts();
  EXPECT_GE(want.size(), 2u) << "seed " << seed << " never fired and cleared";
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << "seed " << seed << " alert " << i;
    EXPECT_EQ(got[i].firing, want[i].firing) << "seed " << seed;
    EXPECT_EQ(got[i].fast_burn, want[i].fast_burn) << "seed " << seed;
    EXPECT_EQ(got[i].slow_burn, want[i].slow_burn) << "seed " << seed;
  }
}

TEST(SloTrackerTest, CachedWindowsMatchFullRescan) {
  for (uint64_t seed : {1u, 2u, 3u, 7u, 42u, 99u}) {
    ExpectMatchesRescan(TestSpec(), seed);
  }
}

TEST(SloTrackerTest, CachedWindowsMatchRescanWhenTheSlowWindowOutrunsTheRing) {
  // 100 ns over 60 buckets floors to 1-ns buckets: the slow window spans
  // 100 buckets of a 61-slot ring, so filling a slot recycles one that is
  // still inside the window.
  SloSpec spec = TestSpec();
  spec.fast_window = Duration::Nanos(30);
  spec.slow_window = Duration::Nanos(100);
  for (uint64_t seed : {1u, 2u, 3u, 7u, 42u, 99u}) {
    ExpectMatchesRescan(spec, seed);
  }
}

TEST(SloEngineTest, RegisterDeduplicatesByName) {
  SloEngine engine;
  SloTracker* first = engine.Register(TestSpec());
  SloSpec again = TestSpec();
  again.objective = 0.5;  // Ignored: the first registration wins.
  SloTracker* second = engine.Register(again);
  EXPECT_EQ(first, second);
  EXPECT_DOUBLE_EQ(first->spec().objective, 0.99);
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_EQ(engine.Find("svc/standard"), first);
  EXPECT_EQ(engine.Find("absent"), nullptr);
}

TEST(SloEngineTest, AdvanceSweepsEveryTracker) {
  SloEngine engine;
  SloSpec a = TestSpec();
  SloSpec b = TestSpec();
  b.name = "svc/best_effort";
  b.class_name = "best_effort";
  SloTracker* ta = engine.Register(a);
  SloTracker* tb = engine.Register(b);
  for (int second = 0; second < 120; ++second) {
    ta->Record(At(second), false);
    tb->Record(At(second), false);
  }
  ASSERT_TRUE(ta->firing());
  ASSERT_TRUE(tb->firing());
  engine.Advance(At(600.0));
  EXPECT_FALSE(ta->firing());
  EXPECT_FALSE(tb->firing());
}

TEST(SloEngineTest, JsonTimelineHasSpecsTotalsAndAlerts) {
  SloEngine engine;
  SloTracker* tracker = engine.Register(TestSpec());
  for (int second = 0; second < 120; ++second) {
    tracker->Record(At(second), false);
  }
  engine.Advance(At(600.0));  // Records the clear.
  std::ostringstream out;
  engine.WriteJson(out, At(600.0));
  const std::string json = out.str();
  EXPECT_NE(json.find("\"time_s\":600"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"svc/standard\""), std::string::npos);
  EXPECT_NE(json.find("\"service\":\"svc\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"standard\""), std::string::npos);
  EXPECT_NE(json.find("\"objective\":0.99"), std::string::npos);
  EXPECT_NE(json.find("\"bad\":120"), std::string::npos);
  EXPECT_NE(json.find("\"firing\":false"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"fire\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"clear\""), std::string::npos);
}

}  // namespace
}  // namespace soccluster
