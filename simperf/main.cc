// simperf: host cost of the simulator's flagship days.
//
//   simperf --workload <rideout_naive|rideout_budgeted|overload_storm>
//           --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's simulated day from the seed and repeats it for
// --seconds of host time, one day after another on one thread. Every day
// is checked: its headline claims must hold and its state digest must
// equal the first day's. --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced days and reports the per-module split of
// the traced ones.
//
// The days of a run are bit-identical replays, so host interference can
// only add time to a day: the fastest day is the run's estimate of a day's
// host cost (wall_s, requests_per_s). Likewise setup_s is the fastest of
// the run's set-ups.
// The last stdout line is the result object; earlier lines describe the run.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simperf/days.h"
#include "simperf/profiler.h"

namespace simperf {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up is a sub-millisecond span, so besides each measured day's own
// set-up this many extra builds (torn down unrun) are timed before every
// day.
constexpr int kExtraSetupsPerDay = 8;
// Share of traced wall time that must be attributed to named modules.
constexpr double kMinAttributedShare = 0.90;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Options {
  Workload workload = Workload::kRideoutNaive;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      have_workload = ParseWorkload(value, &options->workload);
    } else if (std::strcmp(flag, "--seed") == 0) {
      options->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options->seconds = std::strtod(value, &end);
      have_seconds = *value != '\0' && *end == '\0' && options->seconds > 0;
    } else if (std::strcmp(flag, "--trace") == 0) {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// Checks collected across every day of the run.
class Verdict {
 public:
  void AddDay(const DayResult& result, uint64_t expected_digest,
           const char* kind) {
    ++attempted_;
    bool ok = result.ok();
    for (const Check& check : result.checks) {
      if (!check.ok) {
        Fail(std::string(kind) + " day: claim " + check.name + " missed (" +
             check.detail + ")");
      }
    }
    if (result.digest != expected_digest) {
      ok = false;
      char buffer[128];
      std::snprintf(buffer, sizeof(buffer),
                    "%s day: digest %016llx != %016llx", kind,
                    static_cast<unsigned long long>(result.digest),
                    static_cast<unsigned long long>(expected_digest));
      Fail(buffer);
    }
    failed_ += ok ? 0 : 1;
  }
  void Require(bool ok, const std::string& what) {
    if (!ok) {
      Fail(what);
    }
  }
  bool correct() const { return problems_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  void Fail(const std::string& what) {
    if (problems_.size() < 20) {
      std::printf("simperf: FAILED %s\n", what.c_str());
    }
    problems_.push_back(what);
  }
  std::vector<std::string> problems_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

void PrintRunInfo(const Options& options, const Sizes& sizes) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "simperf: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"ndebug\": %s, \"nproc\": %ld, \"users\": %lld, \"rideout_socs\": "
      "%d, \"rideout_day_minutes\": %d, \"rideout_post_minutes\": %d, "
      "\"storm_surge_minutes\": %d, \"setups_per_day\": %d}\n",
      WorkloadName(options.workload),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, __VERSION__, SIMPERF_BUILD_TYPE,
      ndebug ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
      static_cast<long long>(sizes.users), sizes.socs, sizes.day_minutes,
      sizes.post_minutes, sizes.surge_minutes, kExtraSetupsPerDay + 1);
}

void PrintDay(const DayResult& result) {
  std::printf("simperf: digest %016llx, sessions %lld, issued %lld, good "
              "%lld, requests %lld, latency samples %lld (mean %.3f ms, p50 "
              "%.3f ms, p99 %.3f ms)\n",
              static_cast<unsigned long long>(result.digest),
              static_cast<long long>(result.sessions),
              static_cast<long long>(result.issued),
              static_cast<long long>(result.good),
              static_cast<long long>(result.requests),
              static_cast<long long>(result.latency_samples), result.mean_ms,
              result.p50_ms, result.p99_ms);
  for (const Check& check : result.checks) {
    std::printf("simperf: claim %-28s %s  %s\n", check.name.c_str(),
                check.ok ? "ok    " : "MISSED", check.detail.c_str());
  }
}

struct Timed {
  DayResult result;
  double setup_s = 0.0;
  double wall_s = 0.0;
};

Timed RunDay(const Options& options, const Sizes& sizes, Profiler* profiler) {
  Timed timed;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Day> day =
      BuildDay(options.workload, options.seed, sizes, profiler);
  timed.setup_s = SecondsSince(start);
  const Clock::time_point run_start = Clock::now();
  day->Run();
  timed.wall_s = SecondsSince(run_start);
  timed.result = day->Finish();
  return timed;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: simperf --workload "
                 "<rideout_naive|rideout_budgeted|overload_storm> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const Sizes sizes;
  PrintRunInfo(options, sizes);

  Verdict verdict;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  std::vector<std::unique_ptr<Profiler>> profilers;
  DayResult first;
  const Clock::time_point measure_start = Clock::now();
  do {
    for (int i = 0; i < kExtraSetupsPerDay; ++i) {
      const Clock::time_point start = Clock::now();
      std::unique_ptr<Day> day =
          BuildDay(options.workload, options.seed, sizes, nullptr);
      setup_s.push_back(SecondsSince(start));
    }
    const Timed plain = RunDay(options, sizes, nullptr);
    setup_s.push_back(plain.setup_s);
    if (wall_s.empty()) {
      first = plain.result;
      PrintDay(first);
    }
    verdict.AddDay(plain.result, first.digest, "untraced");
    wall_s.push_back(plain.wall_s);
    if (options.trace) {
      auto profiler = std::make_unique<Profiler>();
      const Timed traced = RunDay(options, sizes, profiler.get());
      verdict.AddDay(traced.result, first.digest, "traced");
      traced_wall_s.push_back(traced.wall_s);
      profilers.push_back(std::move(profiler));
    }
  } while (SecondsSince(measure_start) < options.seconds);

  std::string walls;
  for (const double wall : wall_s) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " %.6f", wall);
    walls += buffer;
  }
  const double fastest = *std::min_element(wall_s.begin(), wall_s.end());
  std::printf("simperf: %zu untraced days, fastest %.6f s, median %.6f s; "
              "wall_s per day:%s\n",
              wall_s.size(), fastest, Median(wall_s), walls.c_str());
  const double fastest_setup =
      *std::min_element(setup_s.begin(), setup_s.end());
  std::printf("simperf: %zu set-ups, fastest %.9f s, median %.9f s\n",
              setup_s.size(), fastest_setup, Median(setup_s));

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"wall_s", fastest, "s"},
        {"setup_s", fastest_setup, "s"},
        {"requests_per_s", static_cast<double>(first.requests) / fastest,
         "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"failed_share", first.failed_share(), "fraction"},
        {"sim_mean_ms", first.mean_ms, "ms"},
        {"sim_p99_ms", first.p99_ms, "ms"},
    };
  } else {
    // The fastest traced day stands for the run, as for untraced days.
    const size_t pick = static_cast<size_t>(
        std::min_element(traced_wall_s.begin(), traced_wall_s.end()) -
        traced_wall_s.begin());
    const Profiler& profiler = *profilers[pick];
    const double traced_wall = traced_wall_s[pick];
    const double untraced_wall = fastest;

    metrics = first.counts;
    for (int b = 0; b < Profiler::kNumBuckets; ++b) {
      metrics.push_back(
          {Profiler::BucketName(b),
           static_cast<double>(profiler.self_ns(b)) * 1e-9, "s"});
      for (const auto& traced : profilers) {
        verdict.Require(traced->min_self_ns(b) >= 0,
                        std::string("negative self time in ") +
                            Profiler::BucketName(b));
      }
    }
    const double submit_calls =
        static_cast<double>(profiler.calls(Profiler::kServingSubmit));
    const double events = static_cast<double>(profiler.steps());
    const double attributed =
        static_cast<double>(profiler.attributed_ns()) * 1e-9 / traced_wall;
    metrics.push_back(
        {"workload.serving.submit_ns",
         submit_calls > 0 ? static_cast<double>(profiler.self_ns(
                                Profiler::kServingSubmit)) /
                                submit_calls
                          : 0.0,
         "ns"});
    metrics.push_back(
        {"trace.wheel_ticks",
         static_cast<double>(profiler.calls(Profiler::kTraceWheel)), "count"});
    metrics.push_back(
        {"trace.observer_calls",
         static_cast<double>(profiler.calls(Profiler::kTraceObserver)),
         "count"});
    metrics.push_back({"sim.host_ns_per_event",
                       events > 0 ? untraced_wall * 1e9 / events : 0.0, "ns"});
    metrics.push_back({"trace_overhead", traced_wall / untraced_wall - 1.0,
                       "fraction"});
    metrics.push_back({"attributed_share", attributed, "fraction"});

    std::printf("simperf: traced %zu days; untraced wall %.6f s, traced "
                "wall %.6f s, attributed %.4f\n",
                traced_wall_s.size(), untraced_wall, traced_wall, attributed);
    const std::vector<std::string> labels = profiler.labels_seen();
    std::string joined;
    for (const std::string& label : labels) {
      joined += (joined.empty() ? "" : " ") +
                (label.empty() ? std::string("<unlabeled>") : label);
    }
    std::printf("simperf: labels seen: %s\n", joined.c_str());
    for (const std::string& label : profiler.unmapped_labels()) {
      verdict.Require(false, "label maps to no module: " + label);
    }
    verdict.Require(attributed >= kMinAttributedShare,
                    "attributed share below 0.90");
  }

  PrintResult(verdict.correct(), verdict.attempted(), verdict.failed(),
              metrics);
  return verdict.correct() ? 0 : 1;
}

}  // namespace
}  // namespace simperf

int main(int argc, char** argv) { return simperf::Main(argc, argv); }
