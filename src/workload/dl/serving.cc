#include "src/workload/dl/serving.h"

#include <utility>

#include "src/base/check.h"

namespace soccluster {

namespace {

SocCapacityView::Options FleetViewOptions() {
  SocCapacityView::Options options;
  options.slot_capacity = 1;  // One request at a time per SoC engine.
  return options;
}

Placer::Options FleetPlacerOptions() {
  Placer::Options options;
  options.policy = PlacementPolicy::kSpread;
  options.load.cpu_weight = 0.0;
  options.load.slot_weight = 1.0;
  // A full fleet means the request waits in the queue; that back-pressure
  // is not an admission rejection.
  options.count_rejections = false;
  return options;
}

AdmissionQueue::Options FleetAdmissionOptions() {
  AdmissionQueue::Options options;
  options.service = "dl.serving";
  return options;
}

}  // namespace

SocServingFleet::SocServingFleet(Simulator* sim, SocCluster* cluster,
                                 DlDevice soc_device, DnnModel model,
                                 Precision precision)
    : sim_(sim), cluster_(cluster), device_(soc_device), model_(model),
      precision_(precision), view_(cluster, FleetViewOptions()),
      placer_(sim, &view_, FleetPlacerOptions()),
      admission_(sim, FleetAdmissionOptions()) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK(soc_device == DlDevice::kSocCpu ||
            soc_device == DlDevice::kSocGpu || soc_device == DlDevice::kSocDsp)
      << "fleet devices must live on the SoC";
  SOC_CHECK(DlEngineModel::Supports(device_, model_, precision_));
  MetricRegistry& metrics = sim_->metrics();
  submitted_metric_ = metrics.GetCounter("dl.serving.submitted");
  completed_metric_ = metrics.GetCounter("dl.serving.completed");
  shed_metric_ = metrics.GetCounter("dl.serving.shed");
  expired_metric_ = metrics.GetCounter("dl.serving.expired");
  failed_metric_ = metrics.GetCounter("dl.serving.failed");
  latency_metric_ = metrics.GetHistogram("dl.serving.latency_ms");
  // The fleet serves the open-loop millions-of-requests scenarios; the
  // registry histogram is sketch-backed so memory stays O(buckets). Exact
  // per-request samples remain in latencies_ for digests and baselines.
  latency_metric_->EnableSketch();
  max_queue_metric_ = metrics.GetGauge("dl.serving.max_queue_length");
  for (int c = 0; c < kNumPriorities; ++c) {
    SloSpec spec;
    const char* cls = PriorityName(static_cast<Priority>(c));
    spec.name = std::string("dl.serving/") + cls;
    spec.service = "dl.serving";
    spec.class_name = cls;
    slos_[static_cast<size_t>(c)] = sim_->obs().slos.Register(spec);
  }
  Tracer& tracer = sim_->tracer();
  for (int i = 0; i < cluster_->num_socs(); ++i) {
    std::string name = "soc";
    if (i < 10) {
      name.push_back('0');
    }
    name += std::to_string(i);
    tracer.SetTrackName(SocTrack(i), name);
  }
  admission_.set_on_drop(
      [this](const AdmissionQueue::Item& item,
             AdmissionQueue::DropReason reason) { OnAdmissionDrop(item, reason); });
}

void SocServingFleet::OnAdmissionDrop(const AdmissionQueue::Item& item,
                                      AdmissionQueue::DropReason reason) {
  auto request = std::static_pointer_cast<RequestState>(item.payload);
  Tracer& tracer = sim_->tracer();
  // Incoming drops carry no spans yet (id 0 => no-op); queued victims do.
  tracer.EndSpan(request->queue_span);
  TraceRequestDrop(&tracer, &request->ctx, sim_->Now());
  slos_[static_cast<size_t>(request->priority)]->Record(sim_->Now(), false);
  NotifyClient(request, reason == AdmissionQueue::DropReason::kExpired
                            ? ClientOutcome::kExpired
                            : ClientOutcome::kShed);
  if (reason == AdmissionQueue::DropReason::kExpired) {
    // The client has given up; starting the inference would waste a SoC
    // slot on a response nobody reads.
    ++deadline_expired_;
    ++expired_of_[static_cast<size_t>(request->priority)];
    expired_metric_->Increment();
  } else {
    ++shed_;
    ++shed_of_[static_cast<size_t>(request->priority)];
    shed_metric_->Increment();
    if (breaker_ != nullptr &&
        reason != AdmissionQueue::DropReason::kAdmitFloor) {
      // Queue-pressure sheds feed the breaker's failure rate; admission-
      // floor drops are a deliberate brownout policy, not service distress.
      breaker_->RecordFailure();
    }
  }
  tracer.EndSpan(request->request_span);
}

double SocServingFleet::PerSocThroughput() const {
  return DlEngineModel::Throughput(device_, model_, precision_, 1);
}

void SocServingFleet::SetActiveCount(int count) {
  SOC_CHECK_GE(count, 0);
  SOC_CHECK_LE(count, cluster_->num_socs());
  active_count_ = count;
  TryDispatch();
}

void SocServingFleet::SetDeadline(Duration deadline) {
  SOC_CHECK_GE(deadline.nanos(), 0);
  deadline_ = deadline;
}

void SocServingFleet::SetDispatchLimit(int limit) {
  SOC_CHECK_GE(limit, 0);
  dispatch_limit_ = limit;
  TryDispatch();  // Raising (or removing) the limit may unblock the queue.
}

void SocServingFleet::NotifyClient(const RequestPtr& request,
                                   ClientOutcome outcome) {
  if (client_observer_ && request->client.attributed()) {
    client_observer_(request->client.ticket, outcome,
                     sim_->Now() - request->enqueue);
  }
}

void SocServingFleet::Submit(Priority priority,
                             const ClientAttribution& client) {
  submitted_metric_->Increment();
  if (breaker_ != nullptr && priority != Priority::kCritical &&
      !breaker_->Allow()) {
    // Fast-fail at the door while the breaker is open; queueing the request
    // would only deepen the backlog the breaker exists to drain.
    ++shed_;
    ++shed_of_[static_cast<size_t>(priority)];
    shed_metric_->Increment();
    slos_[static_cast<size_t>(priority)]->Record(sim_->Now(), false);
    if (client_observer_ && client.attributed()) {
      client_observer_(client.ticket, ClientOutcome::kShed, Duration::Zero());
    }
    return;
  }
  // The effective deadline clamps to the client's own per-attempt budget
  // when the server honors it — then the existing dispatch-time purge
  // drops abandoned work for free.
  Duration deadline = deadline_;
  if (honor_client_deadline_ && client.attributed() &&
      client.deadline.nanos() > 0 &&
      (deadline.nanos() == 0 || client.deadline < deadline)) {
    deadline = client.deadline;
  }
  auto request = std::make_shared<RequestState>();
  request->enqueue = sim_->Now();
  request->priority = priority;
  request->client = client;
  // The id is allocated before admission (unlike the spans) so the causal
  // chain can show the shed decision for requests that never get in.
  request->request_id = next_request_id_++;
  request->ctx.id = request->request_id;
  request->ctx.priority = static_cast<int>(priority);
  Tracer& tracer = sim_->tracer();
  TraceRequestSubmit(&tracer, &request->ctx, "dl.serving", sim_->Now());
  if (!admission_.Offer(priority, deadline, request, &request->ctx)) {
    return;  // Shed; accounted in OnAdmissionDrop.
  }
  request->request_span =
      tracer.BeginAsyncSpan("request", "dl.serving", request->request_id);
  tracer.AddArg(request->request_span, "model", DnnModelName(model_));
  request->queue_span = tracer.BeginAsyncSpan(
      "queue", "dl.serving", request->request_id, request->request_span);
  max_queue_metric_->SetMax(static_cast<double>(admission_.max_queue_length()));
  TryDispatch();
}

void SocServingFleet::Abandon(const RequestPtr& request) {
  ++failed_;
  failed_metric_->Increment();
  NotifyClient(request, ClientOutcome::kFailed);
  if (breaker_ != nullptr) {
    breaker_->RecordFailure();
  }
  TraceRequestDrop(&sim_->tracer(), &request->ctx, sim_->Now());
  slos_[static_cast<size_t>(request->priority)]->Record(sim_->Now(), false);
  sim_->tracer().EndSpan(request->request_span);
}

void SocServingFleet::TryDispatch() {
  while (admission_.size() > 0) {
    if (dispatch_limit_ > 0 && in_flight_ >= dispatch_limit_) {
      return;  // Brownout: concurrency capped; completions re-trigger.
    }
    PlacementDemand slot;
    slot.slots = 1;
    // Only the active prefix serves; the bound keeps the pick from
    // visiting the parked remainder of the chassis.
    const int chosen =
        placer_.Pick(slot, nullptr, nullptr, nullptr, active_count_);
    if (chosen < 0) {
      return;
    }
    // Pop purges deadline-expired heads (OnAdmissionDrop closes their
    // spans and counts them) before yielding a dispatchable request.
    std::optional<AdmissionQueue::Item> item = admission_.Pop();
    if (!item.has_value()) {
      return;  // The backlog was entirely expired.
    }
    RequestPtr request = std::static_pointer_cast<RequestState>(item->payload);
    Tracer& tracer = sim_->tracer();
    tracer.EndSpan(request->queue_span);
    TraceRequestDispatch(&tracer, &request->ctx, sim_->Now(), chosen,
                         SocTrack(chosen));
    view_.Reserve(chosen, slot);
    ++in_flight_;
    request->attempt_start = sim_->Now();
    // The request's inference phase, in two views: the async child follows
    // the request, the track span shows the SoC busy.
    const SpanId infer_span = tracer.BeginAsyncSpan(
        "infer", "dl.serving", request->request_id, request->request_span);
    tracer.AddArg(infer_span, "soc", static_cast<int64_t>(chosen));
    const SpanId infer_track_span =
        tracer.BeginSpan("infer", "dl.serving", SocTrack(chosen));
    SocModel& soc = cluster_->soc(chosen);
    Status status;
    // CPU inference claims the cores additively: co-resident services
    // (serverless, gaming, CPU transcodes) charge the same cores, so grab
    // what is left rather than overwriting their shares. Alone on the SoC
    // the grant is exactly 1.0 — identical to the old absolute write.
    double cpu_grant = 0.0;
    switch (device_) {
      case DlDevice::kSocCpu:
        cpu_grant = soc.CpuHeadroom();
        if (cpu_grant > 0.0) {
          status = soc.AddCpuUtil(cpu_grant);
        }
        break;
      case DlDevice::kSocGpu:
        status = soc.SetGpuUtil(1.0);
        break;
      default:
        status = soc.SetDspUtil(1.0);
        break;
    }
    SOC_CHECK(status.ok()) << status.ToString();
    const int64_t fail_epoch = soc.fail_count();
    // A thermal excursion slows the engine without shrinking capacity.
    const Duration service = Duration::SecondsF(
        1.0 / (PerSocThroughput() * soc.throttle_factor()));
    sim_->ScheduleAfter(
        service,
        [this, chosen, request, fail_epoch, cpu_grant, infer_track_span,
         infer_span]() mutable {
          FinishOn(chosen, std::move(request), fail_epoch, cpu_grant,
                   infer_track_span, infer_span);
        },
        "dl.serving.finish", event_anchor_);
  }
}

void SocServingFleet::RecordCompletion(int soc_index,
                                       const RequestPtr& request) {
  const Duration latency = sim_->Now() - request->enqueue;
  const double latency_ms = latency.ToMillis();
  if (exact_latency_samples_) {
    latencies_.Add(latency_ms);
    latencies_of_[static_cast<size_t>(request->priority)].Add(latency_ms);
  }
  latency_metric_->Observe(latency_ms);
  slos_[static_cast<size_t>(request->priority)]->RecordLatency(sim_->Now(),
                                                               latency);
  NotifyClient(request, ClientOutcome::kSuccess);
  if (attempt_observer_) {
    // Evidence is the attempt's own latency (dispatch to here), not the
    // request's: central queueing delay is fleet-wide, and charging it to
    // whichever SoC drew the request would smear suspicion everywhere.
    attempt_observer_(soc_index, sim_->Now() - request->attempt_start, true);
  }
}

void SocServingFleet::Complete(int soc_index, const RequestPtr& request) {
  ++completed_;
  ++completed_of_[static_cast<size_t>(request->priority)];
  completed_metric_->Increment();
  if (breaker_ != nullptr) {
    breaker_->RecordSuccess();
  }
  TraceRequestComplete(&sim_->tracer(), &request->ctx, sim_->Now(),
                       SocTrack(soc_index));
  Tracer& tracer = sim_->tracer();
  if (response_size_.bits() > 0) {
    // Ship the response through the fabric; the request closes when the
    // last byte reaches the external node.
    const SpanId net_span = tracer.BeginAsyncSpan(
        "network", "dl.serving", request->request_id, request->request_span);
    const SpanId request_span = request->request_span;
    Result<FlowId> flow = cluster_->network().StartFlow(
        cluster_->soc_node(soc_index), cluster_->external_node(),
        response_size_, DataRate::Zero(),
        [this, soc_index, request, net_span, request_span] {
          Tracer& t = sim_->tracer();
          t.EndSpan(net_span);
          t.EndSpan(request_span);
          if (latency_includes_response_) {
            RecordCompletion(soc_index, request);
          }
        });
    SOC_CHECK(flow.ok()) << flow.status().ToString();
    if (!latency_includes_response_) {
      RecordCompletion(soc_index, request);
    }
  } else {
    tracer.EndSpan(request->request_span);
    RecordCompletion(soc_index, request);
  }
}

void SocServingFleet::FinishOn(int soc_index, RequestPtr request,
                               int64_t fail_epoch, double cpu_grant,
                               SpanId infer_track_span, SpanId infer_span) {
  PlacementDemand slot;
  slot.slots = 1;
  view_.Release(soc_index, slot);
  --in_flight_;
  SocModel& soc = cluster_->soc(soc_index);
  // The attempt succeeded only if the SoC never failed while it ran; a
  // fail/repair/reboot cycle leaves IsUsable() true but bumps fail_count().
  const bool alive = soc.fail_count() == fail_epoch && soc.IsUsable();
  // A zombie SoC heartbeats and holds its utilization, but the request
  // comes back broken — the attempt failed even though the SoC is "up".
  const bool zombie_attempt = alive && soc.zombie();
  if (alive) {
    Status status;
    switch (device_) {
      case DlDevice::kSocCpu:
        if (cpu_grant > 0.0) {
          status = soc.AddCpuUtil(-cpu_grant);
        }
        break;
      case DlDevice::kSocGpu:
        status = soc.SetGpuUtil(0.0);
        break;
      default:
        status = soc.SetDspUtil(0.0);
        break;
    }
    SOC_CHECK(status.ok()) << status.ToString();
  }
  Tracer& tracer = sim_->tracer();
  tracer.EndSpan(infer_track_span);
  tracer.EndSpan(infer_span);
  if (zombie_attempt && attempt_observer_) {
    // Zombie attempts are the error evidence the gray detector keys on: a
    // dead SoC stops heartbeating, a zombie only stops serving.
    attempt_observer_(soc_index, Duration::Zero(), /*ok=*/false);
  }
  if (alive && !zombie_attempt) {
    Complete(soc_index, request);
  } else {
    Abandon(request);
  }
  TryDispatch();
}

GpuBatchServer::GpuBatchServer(Simulator* sim, DiscreteGpuModel* gpu,
                               DlDevice device, DnnModel model,
                               Precision precision, int max_batch,
                               Duration batch_timeout)
    : sim_(sim), gpu_(gpu), device_(device), model_(model),
      precision_(precision), max_batch_(max_batch),
      batch_timeout_(batch_timeout) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(gpu_ != nullptr);
  SOC_CHECK(IsDiscreteGpu(device));
  SOC_CHECK_GE(max_batch_, 1);
  SOC_CHECK(DlEngineModel::Supports(device_, model_, precision_));
  MetricRegistry& metrics = sim_->metrics();
  submitted_metric_ = metrics.GetCounter("dl.gpu_batch.submitted");
  completed_metric_ = metrics.GetCounter("dl.gpu_batch.completed");
  batches_metric_ = metrics.GetCounter("dl.gpu_batch.batches");
  latency_metric_ = metrics.GetHistogram("dl.gpu_batch.latency_ms");
  batch_size_metric_ = metrics.GetHistogram("dl.gpu_batch.batch_size");
  sim_->tracer().SetTrackName(GpuTrack(), "gpu");
}

void GpuBatchServer::Submit() {
  queue_.push_back(sim_->Now());
  submitted_metric_->Increment();
  MaybeLaunch(/*timeout_expired=*/false);
}

void GpuBatchServer::MaybeLaunch(bool timeout_expired) {
  if (running_ || queue_.empty()) {
    return;
  }
  const bool full = static_cast<int>(queue_.size()) >= max_batch_;
  if (!full && !timeout_expired) {
    if (!timeout_event_.valid()) {
      timeout_event_ = sim_->ScheduleAfter(batch_timeout_, [this] {
        timeout_event_ = EventHandle();
        MaybeLaunch(/*timeout_expired=*/true);
      });
    }
    return;
  }
  sim_->Cancel(timeout_event_);
  timeout_event_ = EventHandle();

  const int batch = std::min<int>(max_batch_, static_cast<int>(queue_.size()));
  std::vector<SimTime> members;
  members.reserve(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    members.push_back(queue_.front());
    queue_.pop_front();
  }
  running_ = true;
  batches_metric_->Increment();
  batch_size_metric_->Observe(static_cast<double>(batch));
  Tracer& tracer = sim_->tracer();
  const SpanId batch_span =
      tracer.BeginSpan("batch", "dl.gpu_batch", GpuTrack());
  tracer.AddArg(batch_span, "batch_size", static_cast<int64_t>(batch));
  // Drive the GPU meter at the batch's marginal power.
  const Power marginal =
      DlEngineModel::MarginalPower(device_, model_, precision_, batch);
  const double util =
      marginal.watts() / (gpu_->spec().max_power - gpu_->spec().idle).watts();
  Status status = gpu_->SetComputeUtil(std::min(1.0, util));
  SOC_CHECK(status.ok()) << status.ToString();

  const Duration latency =
      DlEngineModel::Latency(device_, model_, precision_, batch);
  sim_->ScheduleAfter(
      latency, [this, members = std::move(members), batch_span]() mutable {
        FinishBatch(std::move(members), batch_span);
      });
}

void GpuBatchServer::FinishBatch(std::vector<SimTime> batch,
                                 SpanId batch_span) {
  running_ = false;
  Status status = gpu_->SetComputeUtil(0.0);
  SOC_CHECK(status.ok()) << status.ToString();
  sim_->tracer().EndSpan(batch_span);
  const SimTime now = sim_->Now();
  for (SimTime enqueue_time : batch) {
    ++completed_;
    completed_metric_->Increment();
    const double latency_ms = (now - enqueue_time).ToMillis();
    latencies_.Add(latency_ms);
    latency_metric_->Observe(latency_ms);
  }
  MaybeLaunch(/*timeout_expired=*/false);
}

void SocServingFleet::DigestState(StateDigest& digest) const {
  digest.Mix(active_count_);
  view_.DigestState(digest);
  admission_.DigestState(digest);
  digest.Mix(completed_);
  digest.Mix(shed_);
  digest.Mix(deadline_expired_);
  digest.Mix(failed_);
  for (size_t i = 0; i < kNumPriorities; ++i) {
    digest.Mix(completed_of_[i]);
    digest.Mix(shed_of_[i]);
    digest.Mix(expired_of_[i]);
    digest.Mix(static_cast<uint64_t>(latencies_of_[i].count()));
  }
  digest.Mix(static_cast<uint64_t>(latencies_.count()));
  for (const double sample : latencies_.samples()) {
    digest.Mix(sample);
  }
  digest.Mix(deadline_.nanos());
  digest.Mix(latency_includes_response_);
  digest.Mix(dispatch_limit_);
  digest.Mix(in_flight_);
  digest.Mix(next_request_id_);
}

}  // namespace soccluster
