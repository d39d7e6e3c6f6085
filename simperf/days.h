// The benchmark's simulated days. Each workload builds one simulated day
// from a seed; the set-up span (chassis, 26-s simulated boot, fleet, tier
// and managers, tier/source start) is the constructor, the day itself is
// Run(), and Finish() checks the headline claims and digests the state.

#ifndef SIMPERF_DAYS_H_
#define SIMPERF_DAYS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simperf/profiler.h"
#include "src/sim/simulator.h"

namespace simperf {

enum class Workload { kRideoutNaive, kRideoutBudgeted, kOverloadStorm };

bool ParseWorkload(std::string_view name, Workload* workload);
const char* WorkloadName(Workload workload);

// Workload sizes. The ride-out days share one set so both see the same
// arrival sequence at one seed.
struct Sizes {
  int64_t users = 1'000'000;
  int socs = 8;           // Ride-out serving fleet.
  int day_minutes = 12;   // Ride-out day, compressed from 24 h.
  int post_minutes = 6;   // Ride-out post-trigger assertion window.
  int surge_minutes = 12; // Storm surge at 3x rated serving load.
};

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "count";
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct DayResult {
  uint64_t digest = 0;
  int64_t sessions = 0;  // Ride-out days: sessions started.
  int64_t issued = 0;    // Simulated requests issued (first attempts).
  int64_t good = 0;      // Completed within the client deadline.
  int64_t requests = 0;  // Attempts handed to the services, retries included.
  int64_t latency_samples = 0;
  // Simulated serving latency of completed requests.
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<Check> checks;
  // Per-layer counts of the day.
  std::vector<Metric> counts;

  double failed_share() const {
    return issued > 0 ? 1.0 - static_cast<double>(good) /
                                  static_cast<double>(issued)
                      : 1.0;
  }
  bool ok() const;
};

class Day {
 public:
  virtual ~Day() = default;
  Day(const Day&) = delete;
  Day& operator=(const Day&) = delete;

  // Runs the day to its end-of-day marker: RunUntil when untraced, a
  // Step() loop charging each event to the profiler when traced.
  void Run();
  virtual DayResult Finish() = 0;

 protected:
  Day(uint64_t seed, Profiler* profiler) : sim_(seed), profiler_(profiler) {}
  // Schedules the end-of-day marker both run modes stop at.
  void ScheduleEnd(soccluster::SimTime end);

  soccluster::Simulator sim_;
  Profiler* profiler_;  // Null when untraced.

 private:
  soccluster::SimTime end_;
  bool ended_ = false;
};

// Builds the day (the timed set-up span). `profiler` is null when
// untraced; when set, the harness's seams are timed through it.
std::unique_ptr<Day> BuildDay(Workload workload, uint64_t seed,
                              const Sizes& sizes, Profiler* profiler);

}  // namespace simperf

#endif  // SIMPERF_DAYS_H_
