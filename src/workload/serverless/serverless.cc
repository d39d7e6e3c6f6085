#include "src/workload/serverless/serverless.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "src/base/check.h"

namespace soccluster {

namespace {

constexpr double kMbPerGb = 1024.0;

SocCapacityView::Options ViewOptions(const ServerlessConfig& config) {
  SocCapacityView::Options options;
  // Function instances are charged against the platform's budget (the SoC
  // spec memory minus what Android keeps), not the raw spec memory.
  options.memory_capacity_gb = config.soc_memory_budget_mb / kMbPerGb;
  return options;
}

// Most-free-memory placement == spread by resident instance memory.
Placer::Options PlacerOptions() {
  Placer::Options options;
  options.policy = PlacementPolicy::kSpread;
  options.load.cpu_weight = 0.0;
  options.load.memory_weight_per_gb = 1.0;
  return options;
}

PlacementDemand InstanceDemand(double memory_mb) {
  PlacementDemand demand;
  demand.memory_gb = memory_mb / kMbPerGb;
  return demand;
}

AdmissionQueue::Options DeferralOptions(const ServerlessConfig& config) {
  AdmissionQueue::Options options;
  options.service = "serverless";
  options.max_queue = config.defer_queue_cap;
  return options;
}

}  // namespace

ServerlessPlatform::ServerlessPlatform(Simulator* sim, SocCluster* cluster,
                                       ServerlessConfig config)
    : sim_(sim), cluster_(cluster), config_(config), rng_(config.seed),
      view_(cluster, ViewOptions(config)),
      placer_(sim, &view_, PlacerOptions()),
      admission_(sim, DeferralOptions(config)) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  MetricRegistry& metrics = sim_->metrics();
  invocations_metric_ = metrics.GetCounter("serverless.invocations");
  cold_starts_metric_ = metrics.GetCounter("serverless.cold_starts");
  rejected_metric_ = metrics.GetCounter("serverless.rejected");
  deferred_metric_ = metrics.GetCounter("serverless.deferred");
  qos_shed_metric_ = metrics.GetCounter("serverless.qos_shed");
  failed_metric_ = metrics.GetCounter("serverless.failed");
  latency_metric_ = metrics.GetHistogram("serverless.latency_ms");
  // Invocation latency is per-request on the Zipf workloads — sketch-backed
  // keeps the registry fixed-memory (exact samples stay in stats_).
  latency_metric_->EnableSketch();
  for (int c = 0; c < kNumPriorities; ++c) {
    SloSpec spec;
    const char* cls = PriorityName(static_cast<Priority>(c));
    spec.name = std::string("serverless/") + cls;
    spec.service = "serverless";
    spec.class_name = cls;
    slos_[static_cast<size_t>(c)] = sim_->obs().slos.Register(spec);
  }
  admission_.set_on_drop(
      [this](const AdmissionQueue::Item& item,
             AdmissionQueue::DropReason reason) { OnAdmissionDrop(item, reason); });
}

void ServerlessPlatform::OnAdmissionDrop(const AdmissionQueue::Item& item,
                                         AdmissionQueue::DropReason reason) {
  auto deferred = std::static_pointer_cast<DeferredInvocation>(item.payload);
  ++stats_.qos_shed;
  qos_shed_metric_->Increment();
  Tracer& tracer = sim_->tracer();
  tracer.AddArg(deferred->trace.span, "qos_shed",
                AdmissionQueue::DropReasonName(reason));
  TraceRequestDrop(&tracer, &deferred->trace.ctx, sim_->Now());
  slos_[static_cast<size_t>(item.priority)]->Record(sim_->Now(), false);
  NotifyClient(deferred->trace.client,
               reason == AdmissionQueue::DropReason::kExpired
                   ? ClientOutcome::kExpired
                   : ClientOutcome::kShed,
               sim_->Now() - item.enqueue);
  tracer.EndSpan(deferred->trace.span);
  if (breaker_ != nullptr && reason == AdmissionQueue::DropReason::kQueueFull) {
    breaker_->RecordFailure();
  }
}

void ServerlessPlatform::SetAdmitFloor(Priority floor) {
  admit_floor_ = floor;
  admission_.SetAdmitFloor(floor);
}

void ServerlessPlatform::SetDeferColdStarts(bool defer) {
  if (defer == defer_cold_starts_) {
    return;
  }
  defer_cold_starts_ = defer;
  if (!defer_cold_starts_) {
    DrainDeferred();  // Parked cold starts may provision now.
  }
}

Status ServerlessPlatform::RegisterFunction(const FunctionSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("function name is empty");
  }
  if (functions_.contains(spec.name)) {
    return Status::AlreadyExists("function " + spec.name +
                                 " already registered");
  }
  if (spec.memory_mb <= 0.0 || spec.memory_mb > config_.soc_memory_budget_mb ||
      spec.cpu_util <= 0.0 || spec.cpu_util > 1.0 ||
      spec.exec_median.nanos() <= 0) {
    return Status::InvalidArgument("invalid function spec");
  }
  functions_.emplace(spec.name, spec);
  return Status::Ok();
}

ServerlessPlatform::Instance* ServerlessPlatform::FindWarmInstance(
    const std::string& function) {
  for (auto& [id, instance] : instances_) {
    if (instance.function == function && !instance.busy &&
        view_.IsPlaceable(instance.soc_index)) {
      return &instance;
    }
  }
  return nullptr;
}

void ServerlessPlatform::NotifyClient(const ClientAttribution& client,
                                      ClientOutcome outcome,
                                      Duration latency) {
  if (client_observer_ && client.attributed()) {
    client_observer_(client.ticket, outcome, latency);
  }
}

Status ServerlessPlatform::Invoke(const std::string& function,
                                  Callback on_done, Priority priority,
                                  const ClientAttribution& client) {
  const auto it = functions_.find(function);
  if (it == functions_.end()) {
    return Status::NotFound("function " + function + " not registered");
  }
  const FunctionSpec& spec = it->second;
  ++stats_.invocations;
  invocations_metric_->Increment();
  if (priority > admit_floor_ ||
      (breaker_ != nullptr && priority != Priority::kCritical &&
       !breaker_->Allow())) {
    ++stats_.qos_shed;
    qos_shed_metric_->Increment();
    slos_[static_cast<size_t>(priority)]->Record(sim_->Now(), false);
    NotifyClient(client, ClientOutcome::kShed, Duration::Zero());
    return Status::Ok();  // Shed by policy, not an API error.
  }
  const SimTime enqueue = sim_->Now();
  Tracer& tracer = sim_->tracer();
  InvocationTrace trace;
  trace.id = next_invocation_id_++;
  trace.span = tracer.BeginAsyncSpan("invocation", "serverless", trace.id);
  tracer.AddArg(trace.span, "function", function);
  trace.ctx.id = trace.id;
  trace.ctx.priority = static_cast<int>(priority);
  trace.client = client;
  TraceRequestSubmit(&tracer, &trace.ctx, "serverless.request", sim_->Now());

  if (Instance* warm = FindWarmInstance(function)) {
    sim_->Cancel(warm->eviction);
    warm->eviction = EventHandle();
    RunOn(warm, spec, enqueue, trace, std::move(on_done));
    return Status::Ok();
  }

  if (defer_cold_starts_) {
    // Brownout: park the cold start instead of provisioning while power
    // is scarce. The parked invocation runs when deferral releases, a
    // warm instance frees up, or its deferral deadline lapses (shed).
    auto deferred = std::make_shared<DeferredInvocation>();
    deferred->function = function;
    deferred->on_done = std::move(on_done);
    deferred->trace = trace;
    deferred->enqueue = enqueue;
    tracer.AddArg(trace.span, "deferred", "true");
    RequestContext* ctx = &deferred->trace.ctx;
    if (admission_.Offer(priority, config_.defer_timeout,
                         std::move(deferred), ctx)) {
      ++stats_.deferred;
      deferred_metric_->Increment();
    }
    return Status::Ok();
  }

  ColdStart(spec, enqueue, trace, std::move(on_done));
  return Status::Ok();
}

void ServerlessPlatform::ColdStart(const FunctionSpec& spec, SimTime enqueue,
                                   InvocationTrace trace, Callback on_done) {
  Tracer& tracer = sim_->tracer();
  const int soc_index =
      placer_.Pick(InstanceDemand(spec.memory_mb), nullptr, nullptr,
                   &trace.ctx);
  if (soc_index < 0) {
    ++stats_.rejected;
    rejected_metric_->Increment();
    tracer.AddArg(trace.span, "rejected", "true");
    TraceRequestDrop(&tracer, &trace.ctx, sim_->Now());
    slos_[static_cast<size_t>(trace.ctx.priority)]->Record(sim_->Now(), false);
    NotifyClient(trace.client, ClientOutcome::kShed, sim_->Now() - enqueue);
    tracer.EndSpan(trace.span);
    return;  // Shed, not an API error.
  }
  ++stats_.cold_starts;
  cold_starts_metric_->Increment();
  const SpanId cold_span =
      tracer.BeginAsyncSpan("cold_start", "serverless", trace.id, trace.span);
  view_.Reserve(soc_index, InstanceDemand(spec.memory_mb));
  const int64_t id = next_instance_id_++;
  instances_.emplace(id, Instance{id, spec.name, soc_index, true,
                                  EventHandle()});
  sim_->ScheduleAfter(spec.cold_start, [this, id, spec, enqueue, trace,
                                        cold_span,
                                        cb = std::move(on_done)]() mutable {
    sim_->tracer().EndSpan(cold_span);
    const auto inst = instances_.find(id);
    if (inst == instances_.end()) {
      TraceRequestDrop(&sim_->tracer(), &trace.ctx, sim_->Now());
      slos_[static_cast<size_t>(trace.ctx.priority)]->Record(sim_->Now(),
                                                             false);
      NotifyClient(trace.client, ClientOutcome::kFailed,
                   sim_->Now() - enqueue);
      sim_->tracer().EndSpan(trace.span);
      return;  // SoC failed mid-provision.
    }
    inst->second.busy = true;
    RunOn(&inst->second, spec, enqueue, trace, std::move(cb));
  }, "serverless.cold_start");
}

void ServerlessPlatform::DrainDeferred() {
  while (admission_.size() > 0) {
    std::optional<AdmissionQueue::Item> item = admission_.Pop();
    if (!item.has_value()) {
      return;  // Everything parked had timed out.
    }
    auto deferred = std::static_pointer_cast<DeferredInvocation>(item->payload);
    const auto it = functions_.find(deferred->function);
    SOC_CHECK(it != functions_.end());
    const FunctionSpec& spec = it->second;
    if (Instance* warm = FindWarmInstance(deferred->function)) {
      sim_->Cancel(warm->eviction);
      warm->eviction = EventHandle();
      RunOn(warm, spec, deferred->enqueue, deferred->trace,
            std::move(deferred->on_done));
      continue;
    }
    if (defer_cold_starts_) {
      // Still deferring and nothing warm for the head: keep waiting,
      // preserving FIFO order within the class.
      admission_.RestoreFront(std::move(*item));
      return;
    }
    ColdStart(spec, deferred->enqueue, deferred->trace,
              std::move(deferred->on_done));
  }
}

void ServerlessPlatform::RunOn(Instance* instance, const FunctionSpec& spec,
                               SimTime enqueue, InvocationTrace trace,
                               Callback on_done) {
  Tracer& tracer = sim_->tracer();
  SocModel& soc = cluster_->soc(instance->soc_index);
  // The SoC may have failed between provisioning and bring-up; shed the
  // invocation and reclaim the instance's memory.
  if (!view_.IsPlaceable(instance->soc_index)) {
    ++stats_.rejected;
    rejected_metric_->Increment();
    tracer.AddArg(trace.span, "rejected", "true");
    TraceRequestDrop(&tracer, &trace.ctx, sim_->Now());
    slos_[static_cast<size_t>(trace.ctx.priority)]->Record(sim_->Now(), false);
    NotifyClient(trace.client, ClientOutcome::kShed, sim_->Now() - enqueue);
    tracer.EndSpan(trace.span);
    instance->busy = false;
    Evict(instance->id);
    return;
  }
  instance->busy = true;
  TraceRequestDispatch(&tracer, &trace.ctx, sim_->Now(), instance->soc_index,
                       0);
  const SpanId exec_span =
      tracer.BeginAsyncSpan("exec", "serverless", trace.id, trace.span);
  tracer.AddArg(exec_span, "soc", static_cast<int64_t>(instance->soc_index));
  // CPU may be saturated by co-resident invocations; clamp to headroom
  // (a real runtime would time-slice — the power model only needs the
  // aggregate utilization, which saturates the same way).
  const double grant = std::min(spec.cpu_util, soc.CpuHeadroom());
  if (grant > 0.0) {
    const Status status = soc.AddCpuUtil(grant);
    SOC_CHECK(status.ok()) << status.ToString();
  }
  // Thermally throttled SoCs execute functions proportionally slower —
  // this is the fail-slow signal the gray-failure scorer feeds on.
  const Duration exec = Duration::SecondsF(
      rng_.LogNormalMedian(spec.exec_median.ToSeconds(), spec.exec_sigma) /
      soc.throttle_factor());
  const int64_t id = instance->id;
  // fail_count() at grant time: a fail/repair/reboot cycle before the
  // execution ends leaves IsUsable() true but wiped the CPU charge.
  const int64_t fail_epoch = soc.fail_count();
  sim_->ScheduleAfter(exec, [this, id, grant, fail_epoch, exec, enqueue, trace,
                             exec_span, cb = std::move(on_done)]() mutable {
    sim_->tracer().EndSpan(exec_span);
    bool ok = false;
    const auto it = instances_.find(id);
    if (it != instances_.end()) {
      SocModel& host = cluster_->soc(it->second.soc_index);
      const bool alive = host.IsUsable() && host.fail_count() == fail_epoch;
      if (alive && grant > 0.0) {
        const Status status = host.AddCpuUtil(-grant);
        SOC_CHECK(status.ok()) << status.ToString();
      }
      // Zombie hosts keep heartbeating but drop the work on the floor: the
      // invocation fails even though the SoC looks healthy to the monitor.
      ok = alive && !host.zombie();
      if (attempt_observer_) {
        attempt_observer_(it->second.soc_index, exec, ok);
      }
    }
    FinishInvocation(id, enqueue, trace, ok, std::move(cb));
  }, "serverless.exec");
}

void ServerlessPlatform::FinishInvocation(int64_t instance_id, SimTime enqueue,
                                          InvocationTrace trace, bool ok,
                                          Callback on_done) {
  if (ok) {
    const double latency_ms = (sim_->Now() - enqueue).ToMillis();
    stats_.latency_ms.Add(latency_ms);
    latency_metric_->Observe(latency_ms);
    slos_[static_cast<size_t>(trace.ctx.priority)]->RecordLatency(
        sim_->Now(), sim_->Now() - enqueue);
    NotifyClient(trace.client, ClientOutcome::kSuccess, sim_->Now() - enqueue);
    TraceRequestComplete(&sim_->tracer(), &trace.ctx, sim_->Now());
  } else {
    ++stats_.failed;
    failed_metric_->Increment();
    sim_->tracer().AddArg(trace.span, "failed", "true");
    TraceRequestDrop(&sim_->tracer(), &trace.ctx, sim_->Now());
    slos_[static_cast<size_t>(trace.ctx.priority)]->Record(sim_->Now(), false);
    NotifyClient(trace.client, ClientOutcome::kFailed, sim_->Now() - enqueue);
  }
  sim_->tracer().EndSpan(trace.span);
  const auto it = instances_.find(instance_id);
  if (it != instances_.end()) {
    it->second.busy = false;
    if (config_.keep_alive.IsZero()) {
      Evict(instance_id);
    } else {
      ArmEviction(&it->second);
    }
  }
  if (admission_.size() > 0) {
    DrainDeferred();  // The now-warm instance may serve a parked invocation.
  }
  if (on_done) {
    on_done();
  }
}

void ServerlessPlatform::ArmEviction(Instance* instance) {
  const int64_t id = instance->id;
  instance->eviction =
      sim_->ScheduleAfter(config_.keep_alive, [this, id] { Evict(id); },
                          "serverless.evict");
}

void ServerlessPlatform::Evict(int64_t instance_id) {
  const auto it = instances_.find(instance_id);
  if (it == instances_.end() || it->second.busy) {
    return;
  }
  const auto spec = functions_.find(it->second.function);
  SOC_CHECK(spec != functions_.end());
  view_.Release(it->second.soc_index, InstanceDemand(spec->second.memory_mb));
  sim_->Cancel(it->second.eviction);
  instances_.erase(it);
}

int ServerlessPlatform::InstanceCount(const std::string& function) const {
  int count = 0;
  for (const auto& [id, instance] : instances_) {
    if (instance.function == function) {
      ++count;
    }
  }
  return count;
}

int ServerlessPlatform::WarmInstanceCount(const std::string& function) const {
  int count = 0;
  for (const auto& [id, instance] : instances_) {
    if (instance.function == function && !instance.busy) {
      ++count;
    }
  }
  return count;
}

double ServerlessPlatform::SocMemoryMb(int soc_index) const {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, cluster_->num_socs());
  return view_.MemoryUsedGb(soc_index) * kMbPerGb;
}

ServerlessWorkload::ServerlessWorkload(Simulator* sim,
                                       ServerlessPlatform* platform,
                                       int num_functions,
                                       double total_rate_per_s, uint64_t seed)
    : sim_(sim), platform_(platform), num_functions_(num_functions),
      total_rate_(total_rate_per_s), rng_(seed) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(platform_ != nullptr);
  SOC_CHECK_GT(num_functions_, 0);
  SOC_CHECK_GT(total_rate_, 0.0);
}

Status ServerlessWorkload::Start(Duration duration) {
  // Zipf(1.1) popularity; execution profiles scale with rank (popular
  // functions are short and light, tail functions are heavier).
  double normalizer = 0.0;
  for (int rank = 1; rank <= num_functions_; ++rank) {
    normalizer += 1.0 / std::pow(rank, 1.1);
  }
  double cumulative = 0.0;
  for (int rank = 1; rank <= num_functions_; ++rank) {
    FunctionSpec spec;
    spec.name = "fn" + std::to_string(rank);
    spec.memory_mb = 128.0 + 64.0 * (rank % 5);
    spec.exec_median = Duration::MillisF(40.0 + 30.0 * (rank % 7));
    spec.exec_sigma = 0.6;
    spec.cpu_util = 0.10 + 0.04 * (rank % 4);
    SOC_RETURN_IF_ERROR(platform_->RegisterFunction(spec));
    names_.push_back(spec.name);
    cumulative += (1.0 / std::pow(rank, 1.1)) / normalizer;
    cumulative_popularity_.push_back(cumulative);
  }
  source_ = std::make_unique<OpenLoopSource>(
      sim_, total_rate_, duration, [this] { InvokeOne(); }, &rng_,
      "serverless.arrival");
  source_->Start();
  return Status::Ok();
}

void ServerlessWorkload::InvokeOne() {
  const double u = rng_.NextDouble();
  size_t pick = cumulative_popularity_.size() - 1;
  for (size_t i = 0; i < cumulative_popularity_.size(); ++i) {
    if (u < cumulative_popularity_[i]) {
      pick = i;
      break;
    }
  }
  const Status status = platform_->Invoke(names_[pick], nullptr);
  SOC_CHECK(status.ok()) << status.ToString();
}

void ServerlessPlatform::DigestState(StateDigest& digest) const {
  digest.Mix(rng_.StateFingerprint());
  view_.DigestState(digest);
  admission_.DigestState(digest);
  digest.Mix(static_cast<int>(admit_floor_));
  digest.Mix(defer_cold_starts_);
  digest.Mix(static_cast<uint64_t>(instances_.size()));
  for (const auto& [id, instance] : instances_) {
    digest.Mix(id);
    digest.Mix(std::string_view(instance.function));
    digest.Mix(instance.soc_index);
    digest.Mix(instance.busy);
  }
  digest.Mix(next_instance_id_);
  digest.Mix(next_invocation_id_);
  digest.Mix(stats_.invocations);
  digest.Mix(stats_.cold_starts);
  digest.Mix(stats_.rejected);
  digest.Mix(stats_.deferred);
  digest.Mix(stats_.qos_shed);
  digest.Mix(static_cast<uint64_t>(stats_.latency_ms.count()));
  for (const double sample : stats_.latency_ms.samples()) {
    digest.Mix(sample);
  }
}

}  // namespace soccluster
