#include "simperf/days.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/stats.h"
#include "src/core/overload.h"
#include "src/trace/loadgen.h"
#include "src/trace/session.h"

namespace simperf {

using namespace soccluster;  // NOLINT: the harness drives the whole library.

namespace {

// Client contract shared by both ride-out days and the storm's deadline,
// copied from bench_metastable_rideout / bench_overload_storm.
constexpr Duration kClientTimeout = Duration::Seconds(1);
constexpr Duration kClientDeadline = Duration::Seconds(2);
constexpr int kStormServingSocs = 40;
constexpr double kStormMultiplier = 3.0;

std::string Fmt(const char* format, double a, double b = 0.0) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

// Sums every instrument of one counter name across its label sets.
double SumCounter(const MetricRegistry& registry, std::string_view name) {
  double total = 0.0;
  for (const MetricRegistry::Entry& entry : registry.Entries()) {
    if (entry.name == name && entry.counter != nullptr) {
      total += static_cast<double>(entry.counter->value());
    }
  }
  return total;
}

double MaxGauge(const MetricRegistry& registry, std::string_view name) {
  double peak = 0.0;
  for (const MetricRegistry::Entry& entry : registry.Entries()) {
    if (entry.name == name && entry.gauge != nullptr) {
      peak = std::max(peak, entry.gauge->value());
    }
  }
  return peak;
}

// SLO alert transitions after a final evaluation at the day's end.
std::pair<int64_t, int64_t> SloTransitions(Simulator& sim) {
  sim.obs().slos.Advance(sim.Now());
  int64_t fires = 0;
  int64_t clears = 0;
  for (const auto& tracker : sim.obs().slos.trackers()) {
    for (const SloAlert& alert : tracker->alerts()) {
      ++(alert.firing ? fires : clears);
    }
  }
  return {fires, clears};
}

// The client tier's per-layer counts. `issued` are first attempts and
// `submitted` all attempts; pre/post are the ride-out goodput windows.
void AddTierCounts(int64_t sessions, int64_t issued, int64_t submitted,
                   int64_t good, int64_t wasted, double pre, double post,
                   DayResult* result) {
  const double attempts = static_cast<double>(submitted);
  result->counts.push_back(
      {"trace.sessions", static_cast<double>(sessions), "count"});
  result->counts.push_back(
      {"trace.amplification",
       issued > 0 ? attempts / static_cast<double>(issued) : 0.0, "x"});
  result->counts.push_back(
      {"trace.good_per_submit",
       submitted > 0 ? static_cast<double>(good) / attempts : 0.0,
       "fraction"});
  result->counts.push_back(
      {"trace.wasted", static_cast<double>(wasted), "count"});
  result->counts.push_back({"trace.pre_goodput", pre, "fraction"});
  result->counts.push_back({"trace.post_goodput", post, "fraction"});
}

// Per-layer counts every workload reports (names are the benchmark's
// per_layer metrics). `submits` is the harness's count of fleet submits.
void AddLayerCounts(Simulator& sim, const SocServingFleet& fleet,
                    int64_t submits, int peak_level, int64_t faults,
                    std::pair<int64_t, int64_t> slo, DayResult* result) {
  const MetricRegistry& registry = sim.metrics();
  auto add = [result](std::string name, double value,
                       const char* unit = "count") {
    result->counts.push_back({std::move(name), value, unit});
  };
  add("sim.events", static_cast<double>(sim.events_processed()));
  add("sim.events_cancelled", static_cast<double>(sim.events_cancelled()));
  add("sim.max_pending", static_cast<double>(sim.max_pending_events()));
  add("workload.serving.submit_calls", static_cast<double>(submits));
  add("workload.serving.completed", static_cast<double>(fleet.completed()));
  add("workload.serving.shed", static_cast<double>(fleet.shed()));
  add("workload.serving.expired",
      static_cast<double>(fleet.deadline_expired()));
  add("workload.live.demoted",
      SumCounter(registry, "video.live.brownout_demoted"));
  add("workload.serverless.invocations",
      SumCounter(registry, "serverless.invocations"));
  add("workload.gaming.sessions",
      SumCounter(registry, "gaming.sessions_started"));
  add("qos.admission.admitted", SumCounter(registry, "qos.admission.admitted"));
  add("qos.admission.dropped", SumCounter(registry, "qos.admission.dropped"));
  add("qos.admission.max_queue_length",
      MaxGauge(registry, "qos.admission.max_queue_length"));
  add("qos.admission.sojourn_p99_ms",
      sim.metrics()
          .GetHistogram("qos.admission.sojourn_ms",
                        {{"service", "dl.serving"}})
          ->Percentile(99),
      "ms");
  add("qos.brownout.engagements",
      SumCounter(registry, "qos.brownout.engagements"));
  add("qos.brownout.peak_level", static_cast<double>(peak_level));
  add("qos.breaker.opens", SumCounter(registry, "qos.breaker.opens"));
  const double placements = SumCounter(registry, "sched.placements");
  const double evaluations = SumCounter(registry, "sched.score_evaluations");
  add("sched.placements", placements);
  add("sched.score_evaluations", evaluations);
  add("sched.evals_per_placement",
      placements > 0 ? evaluations / placements : 0.0, "x");
  add("sched.rejections", SumCounter(registry, "sched.rejections"));
  add("core.preemptions",
      SumCounter(registry, "orchestrator.replicas_preempted"));
  add("core.evictions", SumCounter(registry, "orchestrator.evictions"));
  add("cluster.faults", static_cast<double>(faults));
  add("obs.slo.trackers", static_cast<double>(sim.obs().slos.size()));
  add("obs.slo.fires", static_cast<double>(slo.first));
  add("obs.slo.clears", static_cast<double>(slo.second));
}

// Builds the 60-SoC chassis and runs its 26-s simulated boot.
std::unique_ptr<SocCluster> BootChassis(Simulator* sim) {
  auto cluster = std::make_unique<SocCluster>(sim, DefaultChassisSpec(),
                                              Snapdragon865Spec());
  cluster->PowerOnAll(nullptr);
  SOC_CHECK(sim->RunFor(Duration::Seconds(26)).ok());
  return cluster;
}

void Latency(const SocServingFleet& fleet, DayResult* result) {
  const SampleStats& latencies = fleet.latencies();
  result->latency_samples = static_cast<int64_t>(latencies.count());
  result->mean_ms = latencies.count() > 0 ? latencies.Mean() : 0.0;
  result->p50_ms = latencies.count() > 0 ? latencies.Percentile(50) : 0.0;
  result->p99_ms = latencies.count() > 0 ? latencies.Percentile(99) : 0.0;
}

// ---------------------------------------------------------------------------
// Ride-out days (bench_metastable_rideout, one retry discipline per day).

struct Trigger {
  SimTime flash_start;
  Duration ramp;
  Duration hold;
  Duration decay;
  SimTime clear;
};

Trigger MakeTrigger(Duration day) {
  Trigger trigger;
  trigger.flash_start = SimTime::Zero() + day * (21.0 / 24.0);
  trigger.ramp = day / 30.0;
  trigger.hold = day / 12.0;
  trigger.decay = day / 60.0;
  trigger.clear = trigger.flash_start + trigger.ramp + trigger.hold +
                  trigger.decay * 2.0;
  return trigger;
}

class RideoutDay final : public Day {
 public:
  RideoutDay(bool budgeted, uint64_t seed, const Sizes& sizes,
             Profiler* profiler)
      : Day(seed, profiler), budgeted_(budgeted), sizes_(sizes), seed_(seed) {
    cluster_ = BootChassis(&sim_);

    fleet_ = std::make_unique<SocServingFleet>(
        &sim_, cluster_.get(), DlDevice::kSocCpu, DnnModel::kResNet50,
        Precision::kFp32);
    fleet_->SetActiveCount(sizes_.socs);
    bmc_ = std::make_unique<BmcModel>(&sim_, cluster_.get(), BmcConfig{});
    ClusterOverloadConfig overload_config;
    overload_config.wall_cap =
        Power::Watts(255.0 + 195.0 * sizes_.socs / 40.0);
    manager_ = std::make_unique<ClusterOverloadManager>(
        &sim_, cluster_.get(), bmc_.get(), overload_config);
    if (budgeted_) {
      fleet_->SetDeadline(kClientDeadline);
      fleet_->SetHonorClientDeadline(true);
      fleet_->admission().SetMaxQueue(500);
      bmc_->StartSampling();
      manager_->AttachServing(fleet_.get());
      manager_->Start();
    } else {
      fleet_->admission().SetMaxQueue(5000);
    }

    const Duration day = Duration::Minutes(sizes_.day_minutes);
    trigger_ = MakeTrigger(day);
    const double peak_rps = 0.95 * sizes_.socs * fleet_->PerSocThroughput();
    tier_ = std::make_unique<SessionTier>(
        &sim_, TierConfig(peak_rps, day),
        std::vector<SessionCohortConfig>{{"east", 0.55, 0.0},
                                         {"west", 0.45, 3.0}});
    SocServingFleet* fleet = fleet_.get();
    if (profiler_ == nullptr) {
      tier_->SetSubmit([this, fleet](Priority priority,
                                     const ClientAttribution& client) {
        ++submits_;
        fleet->Submit(priority, client);
      });
      fleet_->SetClientObserver(tier_->Observer());
    } else {
      tier_->SetSubmit([this, fleet](Priority priority,
                                     const ClientAttribution& client) {
        ++submits_;
        profiler_->Seam(Profiler::kServingSubmit,
                        [&] { fleet->Submit(priority, client); });
      });
      fleet_->SetClientObserver(
          [this, observer = tier_->Observer()](
              uint64_t ticket, ClientOutcome outcome, Duration latency) {
            profiler_->Seam(Profiler::kTraceObserver,
                            [&] { observer(ticket, outcome, latency); });
          });
    }
    fleet_->SetEventAnchorGroup(tier_->anchor_group());

    // Correlated fault burst riding the flash crowd (~10% of the fleet).
    fault_count_ = std::max(1, sizes_.socs / 10);
    for (int k = 0; k < fault_count_; ++k) {
      const int victim = (12 + 5 * k) * sizes_.socs / 40;
      const SimTime fail_at =
          trigger_.flash_start + trigger_.ramp + Duration::Seconds(20 * k);
      SocCluster* cluster = cluster_.get();
      sim_.ScheduleAt(fail_at, [cluster, victim] {
        cluster->soc(victim).Fail();
      }, "cluster.fault");
      sim_.ScheduleAt(fail_at + Duration::Seconds(90), [cluster, victim] {
        cluster->soc(victim).Repair();
      }, "cluster.repair");
    }

    const Duration horizon = day * 1.5;
    tier_->Start(horizon);
    ClusterOverloadManager* manager = manager_.get();
    probe_ = std::make_unique<PeriodicTask>(
        &sim_, Duration::Seconds(5),
        [this, manager] {
          peak_level_ = std::max(peak_level_, manager->brownout_level());
        },
        "obs.probe");
    probe_->Start();
    ScheduleEnd(sim_.Now() + horizon + Duration::Minutes(5));
  }

  DayResult Finish() override {
    DayResult result;
    StateDigest digest;
    sim_.DigestState(digest);
    cluster_->DigestState(digest);
    fleet_->DigestState(digest);
    tier_->DigestState(digest);
    manager_->governor().DigestState(digest);
    result.digest = digest.value();
    result.sessions = tier_->sessions_started();
    result.issued = tier_->issued();
    result.good = tier_->good();
    result.requests = submits_;
    Latency(*fleet_, &result);

    // Goodput before the flash and after the trigger clears. Recovered, as
    // in the bench: three consecutive post-clear windows reach 95% of the
    // pre-trigger goodput, and the post window's last three still hold it.
    const int64_t window_ns = tier_->config().counter_window.nanos();
    const size_t flash_idx =
        static_cast<size_t>(trigger_.flash_start.nanos() / window_ns);
    const size_t clear_idx = static_cast<size_t>(
        (trigger_.clear.nanos() + window_ns - 1) / window_ns);
    const size_t post_end =
        clear_idx + static_cast<size_t>(
                        Duration::Minutes(sizes_.post_minutes).nanos() /
                        window_ns);
    const double pre =
        tier_->GoodputOver(flash_idx >= 10 ? flash_idx - 10 : 0, flash_idx);
    const double post = tier_->GoodputOver(clear_idx, post_end);
    const double recover_bar = 0.95 * pre;
    bool reached = false;
    for (size_t w = clear_idx; w + 3 <= post_end && !reached; ++w) {
      reached = tier_->GoodputOver(w, w + 3) >= recover_bar;
    }
    const bool recovered =
        reached &&
        tier_->GoodputOver(post_end >= 3 ? post_end - 3 : 0, post_end) >=
            recover_bar;
    const auto slo = SloTransitions(sim_);

    if (budgeted_) {
      result.checks.push_back(
          {"budgeted_recovers", recovered,
           Fmt("post-trigger goodput %.4f vs pre %.4f (bar: >= 95%% of pre)",
               post, pre)});
      result.checks.push_back({"slo_fires", slo.first >= 1,
                               Fmt("%.0f burn-rate alerts fired",
                                   static_cast<double>(slo.first))});
      result.checks.push_back({"slo_clears", slo.second >= 1,
                               Fmt("%.0f burn-rate alerts cleared",
                                   static_cast<double>(slo.second))});
    } else {
      result.checks.push_back(
          {"naive_stays_collapsed", !recovered,
           Fmt("post-trigger goodput %.4f vs pre %.4f (must not recover)",
               post, pre)});
    }

    AddTierCounts(result.sessions, result.issued, tier_->submitted(),
                  result.good, tier_->wasted(), pre, post, &result);
    AddLayerCounts(sim_, *fleet_, submits_, peak_level_, fault_count_, slo,
                   &result);
    return result;
  }

 private:
  SessionTierConfig TierConfig(double peak_rps, Duration day) const {
    SessionTierConfig config;
    config.users = sizes_.users;
    config.peak_rps = peak_rps;
    config.diurnal.day = day;
    FlashCrowd crowd;
    crowd.start = trigger_.flash_start;
    crowd.ramp = trigger_.ramp;
    crowd.hold = trigger_.hold;
    crowd.decay = trigger_.decay;
    crowd.peak_multiplier = 4.0;
    config.flash_crowds.push_back(crowd);
    config.requests_per_session = 4.0;
    config.think_median = Duration::Seconds(20);
    config.think_sigma = 0.7;
    config.client_timeout = kClientTimeout;
    config.client_deadline = kClientDeadline;
    config.give_up_after = Duration::Minutes(4);
    config.retry_mode = budgeted_ ? RetryMode::kBudgeted : RetryMode::kNaive;
    config.naive_retry_delay = Duration::Millis(250);
    config.backoff.max_attempts = 4;
    config.backoff.initial_backoff = Duration::Millis(200);
    config.backoff.max_backoff = Duration::Seconds(5);
    config.budget_tokens_per_success = 0.1;
    config.budget_max_tokens = 100.0;
    config.counter_window = day / 120.0;
    config.seed = seed_;
    return config;
  }

  bool budgeted_;
  Sizes sizes_;
  uint64_t seed_;
  Trigger trigger_;
  std::unique_ptr<SocCluster> cluster_;
  std::unique_ptr<SocServingFleet> fleet_;
  std::unique_ptr<BmcModel> bmc_;
  std::unique_ptr<ClusterOverloadManager> manager_;
  std::unique_ptr<SessionTier> tier_;
  std::unique_ptr<PeriodicTask> probe_;
  int fault_count_ = 0;
  int peak_level_ = 0;
  int64_t submits_ = 0;
};

// ---------------------------------------------------------------------------
// Overload storm (bench_overload_storm at 3x, rated source).

// Deterministic 20/50/30 class mix keyed off the submit counter.
Priority MixedPriority(int64_t n) {
  const int slot = static_cast<int>(n % 10);
  if (slot < 2) {
    return Priority::kCritical;
  }
  return slot < 7 ? Priority::kStandard : Priority::kBestEffort;
}

// Engagements only deepen forward through the rung list and every release
// undoes the most recent un-released engagement.
bool LadderOrderOk(const std::vector<BrownoutGovernor::LadderEvent>& events) {
  std::vector<std::pair<int, int>> engaged;
  for (const auto& event : events) {
    if (event.engage) {
      if (!engaged.empty() && event.rung < engaged.back().first) {
        return false;
      }
      engaged.emplace_back(event.rung, event.level);
    } else {
      if (engaged.empty() || event.rung != engaged.back().first ||
          event.level != engaged.back().second) {
        return false;
      }
      engaged.pop_back();
    }
  }
  return true;
}

class StormDay final : public Day {
 public:
  StormDay(uint64_t seed, const Sizes& sizes, Profiler* profiler)
      : Day(seed, profiler) {
    cluster_ = BootChassis(&sim_);
    bmc_ = std::make_unique<BmcModel>(&sim_, cluster_.get(), BmcConfig{});
    bmc_->StartSampling();

    fleet_ = std::make_unique<SocServingFleet>(
        &sim_, cluster_.get(), DlDevice::kSocCpu, DnnModel::kResNet50,
        Precision::kFp32);
    fleet_->SetActiveCount(kStormServingSocs);
    fleet_->SetDeadline(kClientDeadline);
    fleet_->admission().SetMaxQueue(500);
    live_ = std::make_unique<LiveTranscodingService>(
        &sim_, cluster_.get(), PlacementPolicy::kSpread);
    serverless_ = std::make_unique<ServerlessPlatform>(
        &sim_, cluster_.get(), ServerlessConfig{});
    gaming_ = std::make_unique<GamingWorkload>(&sim_, cluster_.get(),
                                               GamingWorkloadConfig{});
    orchestrator_ = std::make_unique<Orchestrator>(&sim_, cluster_.get(),
                                                   PlacementPolicy::kSpread);
    Status status = orchestrator_->RegisterWorkload(
        "batch", ReplicaDemand{0.05, 0.1}, Priority::kBestEffort);
    SOC_CHECK(status.ok()) << status.ToString();
    status = orchestrator_->ScaleTo("batch", 8);
    SOC_CHECK(status.ok()) << status.ToString();

    ClusterOverloadConfig config;
    config.wall_cap = Power::Watts(450.0);
    manager_ = std::make_unique<ClusterOverloadManager>(
        &sim_, cluster_.get(), bmc_.get(), config);
    manager_->AttachServing(fleet_.get());
    manager_->AttachLive(live_.get());
    manager_->AttachServerless(serverless_.get());
    manager_->AttachGaming(gaming_.get());
    manager_->AttachOrchestrator(orchestrator_.get());
    manager_->Start();

    const Duration surge = Duration::Minutes(sizes.surge_minutes);
    for (int i = 0; i < 30; ++i) {
      live_->RequestStream(VbenchVideo::kV3Game3, TranscodeBackend::kSocCpu,
                           MixedPriority(i));
    }
    functions_ = std::make_unique<ServerlessWorkload>(
        &sim_, serverless_.get(), /*num_functions=*/20,
        /*total_rate_per_s=*/20.0 * kStormMultiplier, seed + 3);
    SOC_CHECK(functions_->Start(surge).ok());
    gaming_->Start(surge);

    const double rate =
        kStormMultiplier * kStormServingSocs * fleet_->PerSocThroughput();
    SocServingFleet* fleet = fleet_.get();
    OpenLoopSource::Sink sink;
    if (profiler_ == nullptr) {
      sink = [this, fleet] { fleet->Submit(MixedPriority(submits_++)); };
    } else {
      sink = [this, fleet] {
        profiler_->Seam(Profiler::kServingSubmit, [&] {
          fleet->Submit(MixedPriority(submits_++));
        });
      };
    }
    source_ = std::make_unique<OpenLoopSource>(&sim_, rate, surge,
                                               std::move(sink));
    source_->Start();

    // Thermal excursion over the middle third of the surge.
    SocCluster* cluster = cluster_.get();
    sim_.ScheduleAfter(surge / 3.0, [cluster] {
      for (int i = 0; i < kStormServingSocs / 3; ++i) {
        cluster->soc(i).SetThrottleFactor(0.65);
      }
    }, "cluster.throttle_on");
    sim_.ScheduleAfter(surge * (2.0 / 3.0), [cluster] {
      for (int i = 0; i < kStormServingSocs / 3; ++i) {
        cluster->soc(i).SetThrottleFactor(1.0);
      }
    }, "cluster.throttle_off");
    // Hard SoC faults with oracle detection; boards return a minute later.
    for (int k = 0; k < kFaults; ++k) {
      const int victim = 20 + 5 * k;
      sim_.ScheduleAfter(surge / 4.0 + Duration::Seconds(15 * k),
                         [this, victim] { FailSoc(victim); },
                         "cluster.fault");
      sim_.ScheduleAfter(surge / 4.0 + Duration::Seconds(15 * k + 60),
                         [cluster, victim] { cluster->soc(victim).Repair(); },
                         "cluster.repair");
    }

    ClusterOverloadManager* manager = manager_.get();
    probe_ = std::make_unique<PeriodicTask>(
        &sim_, Duration::Seconds(1),
        [this, manager] {
          peak_level_ = std::max(peak_level_, manager->brownout_level());
        },
        "obs.probe");
    probe_->Start();
    // The surge, then a 10-minute drain in which the ladder walks back.
    ScheduleEnd(sim_.Now() + surge + Duration::Minutes(10));
  }

  DayResult Finish() override {
    DayResult result;
    StateDigest digest;
    sim_.DigestState(digest);
    cluster_->DigestState(digest);
    fleet_->DigestState(digest);
    live_->DigestState(digest);
    serverless_->DigestState(digest);
    gaming_->DigestState(digest);
    orchestrator_->DigestState(digest);
    manager_->governor().DigestState(digest);
    result.digest = digest.value();
    result.issued = source_->generated();
    const SampleStats& latencies = fleet_->latencies();
    for (const double ms : latencies.samples()) {
      result.good += ms <= kClientDeadline.ToMillis() ? 1 : 0;
    }
    const double invocations =
        SumCounter(sim_.metrics(), "serverless.invocations");
    result.requests = submits_ + static_cast<int64_t>(invocations);
    Latency(*fleet_, &result);

    const SampleStats& critical = fleet_->latencies_of(Priority::kCritical);
    const double critical_p99 =
        critical.count() > 0 ? critical.Percentile(99) : 0.0;
    const CircuitBreaker* breaker = manager_->serving_breaker();
    SOC_CHECK(breaker != nullptr);
    const BrownoutGovernor& governor = manager_->governor();
    const bool released_clean =
        !manager_->IsBrownedOut() &&
        governor.engagements() == governor.releases() &&
        fleet_->admission().admit_floor() == Priority::kBestEffort &&
        live_->brownout_rung() == 0 && !serverless_->defer_cold_starts() &&
        gaming_->session_cap() == -1 && !orchestrator_->placement_hold();
    const auto slo = SloTransitions(sim_);
    const double sketch_p99 =
        sim_.metrics().GetHistogram("dl.serving.latency_ms")->Percentile(99);
    const double exact_p99 = result.p99_ms;

    // Bounds copied from the overload-smoke and slo-smoke CI jobs, at 3x.
    const double shed_be =
        static_cast<double>(fleet_->shed_of(Priority::kBestEffort));
    result.checks.push_back({"sheds_best_effort", shed_be > 0,
                             Fmt("%.0f best-effort requests shed", shed_be)});
    result.checks.push_back(
        {"breaker_opens", breaker->opens() > 0,
         Fmt("%.0f serving breaker opens",
             static_cast<double>(breaker->opens()))});
    result.checks.push_back(
        {"critical_p99_under_deadline",
         critical_p99 < kClientDeadline.ToMillis(),
         Fmt("critical p99 %.1f ms vs %.0f ms deadline", critical_p99,
             kClientDeadline.ToMillis())});
    result.checks.push_back({"ladder_engages", peak_level_ > 0,
                             Fmt("peak brownout level %.0f",
                                 static_cast<double>(peak_level_))});
    result.checks.push_back({"ladder_lifo", LadderOrderOk(governor.history()),
                             Fmt("%.0f engagements, %.0f releases",
                                 static_cast<double>(governor.engagements()),
                                 static_cast<double>(governor.releases()))});
    result.checks.push_back(
        {"ladder_released", released_clean, "every rung walked back"});
    result.checks.push_back({"slo_fires", slo.first >= 1,
                             Fmt("%.0f burn-rate alerts fired",
                                 static_cast<double>(slo.first))});
    result.checks.push_back({"slo_clears", slo.second >= 1,
                             Fmt("%.0f burn-rate alerts cleared",
                                 static_cast<double>(slo.second))});
    result.checks.push_back(
        {"sketch_p99_agrees",
         exact_p99 > 0 && std::abs(sketch_p99 - exact_p99) / exact_p99 < 0.03,
         Fmt("sketch p99 %.2f ms vs exact %.2f ms", sketch_p99, exact_p99)});

    // The rated source neither retries nor tracks sessions.
    AddTierCounts(0, result.issued, submits_, result.good, 0, 0.0, 0.0,
                  &result);
    AddLayerCounts(sim_, *fleet_, submits_, peak_level_, kFaults, slo,
                   &result);
    return result;
  }

 private:
  static constexpr int kFaults = 4;

  void FailSoc(int victim) {
    cluster_->soc(victim).Fail();
    if (profiler_ == nullptr) {
      live_->OnSocFailure(victim);
      orchestrator_->OnSocFailure(victim);
      return;
    }
    profiler_->Seam(Profiler::kLive, [&] { live_->OnSocFailure(victim); });
    profiler_->Seam(Profiler::kOrchestrator,
                    [&] { orchestrator_->OnSocFailure(victim); });
  }

  std::unique_ptr<SocCluster> cluster_;
  std::unique_ptr<BmcModel> bmc_;
  std::unique_ptr<SocServingFleet> fleet_;
  std::unique_ptr<LiveTranscodingService> live_;
  std::unique_ptr<ServerlessPlatform> serverless_;
  std::unique_ptr<GamingWorkload> gaming_;
  std::unique_ptr<Orchestrator> orchestrator_;
  std::unique_ptr<ClusterOverloadManager> manager_;
  std::unique_ptr<ServerlessWorkload> functions_;
  std::unique_ptr<OpenLoopSource> source_;
  std::unique_ptr<PeriodicTask> probe_;
  int peak_level_ = 0;
  int64_t submits_ = 0;
};

}  // namespace

bool ParseWorkload(std::string_view name, Workload* workload) {
  for (const Workload w : {Workload::kRideoutNaive, Workload::kRideoutBudgeted,
                           Workload::kOverloadStorm}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kRideoutNaive:
      return "rideout_naive";
    case Workload::kRideoutBudgeted:
      return "rideout_budgeted";
    case Workload::kOverloadStorm:
      return "overload_storm";
  }
  return "unknown";
}

bool DayResult::ok() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& check) { return check.ok; });
}

void Day::ScheduleEnd(SimTime end) {
  end_ = end;
  sim_.ScheduleAt(end, [this] { ended_ = true; }, "sim.end_of_day");
}

void Day::Run() {
  if (profiler_ == nullptr) {
    SOC_CHECK(sim_.RunUntil(end_).ok());
    SOC_CHECK(ended_);
    return;
  }
  while (!ended_) {
    sim_.RecordFiredEvents(SimTime::Zero(), SimTime::Max(), 1);
    profiler_->BeginStep();
    SOC_CHECK(sim_.Step()) << "event queue drained before the end marker";
    profiler_->EndStep(sim_.fired_events().front().label);
  }
  // RunUntil also fires events that share the marker's timestamp but
  // were queued behind it; do the same so both modes stop in one state.
  SOC_CHECK(sim_.RunUntil(end_).ok());
}

std::unique_ptr<Day> BuildDay(Workload workload, uint64_t seed,
                              const Sizes& sizes, Profiler* profiler) {
  switch (workload) {
    case Workload::kRideoutNaive:
      return std::make_unique<RideoutDay>(false, seed, sizes, profiler);
    case Workload::kRideoutBudgeted:
      return std::make_unique<RideoutDay>(true, seed, sizes, profiler);
    case Workload::kOverloadStorm:
      return std::make_unique<StormDay>(seed, sizes, profiler);
  }
  return nullptr;
}

}  // namespace simperf
