// DES components of the DL-serving study (§5): a per-SoC serving fleet
// (one engine per SoC, central FIFO queue) and a batching server for
// discrete GPUs (TensorRT-style: collect up to max_batch requests or wait
// out a timeout, then run the batch). Open-loop request sources live in
// src/trace/loadgen.h.

#ifndef SRC_WORKLOAD_DL_SERVING_H_
#define SRC_WORKLOAD_DL_SERVING_H_

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/client.h"
#include "src/base/priority.h"
#include "src/base/stats.h"
#include "src/cluster/cluster.h"
#include "src/hw/gpu.h"
#include "src/obs/request.h"
#include "src/obs/slo.h"
#include "src/qos/admission.h"
#include "src/qos/breaker.h"
#include "src/sched/placer.h"
#include "src/workload/dl/engine.h"
#include "src/workload/dl/model.h"

namespace soccluster {

// Serves single requests on a set of cluster SoCs. Each active SoC runs one
// request at a time at the engine's service rate (scaled down while the SoC
// is thermally throttled); requests queue centrally. Driving the per-SoC
// utilization through SocModel makes the cluster's power track load — the
// mechanism behind Figure 12.
//
// Admission runs through a shared priority-aware AdmissionQueue
// (src/qos/admission.h): three priority classes dispatched highest class
// first, queue caps that shed from the lowest class, optional CoDel
// sojourn shedding, and deadline-expiry purge at dispatch. Queue policy
// (length cap, CoDel) is configured on admission() directly; an optional
// per-service circuit breaker (SetBreaker) fast-fails non-critical
// submissions while the service is overwhelmed.
//
// A request is dispatched at most once. SetDeadline drops a request whose
// queueing delay already exceeds the deadline at dispatch time (doomed work
// is never started, counted under "dl.serving.expired" separately from
// shed). A request whose serving SoC dies mid-inference ends as failed
// (ClientOutcome::kFailed); retrying it is the client's decision — the
// session tier's retry disciplines (src/trace/session.h) make it. A
// mid-flight SoC death is detected by comparing the SoC's fail_count()
// against a snapshot taken at dispatch — a fail/repair/reboot race cannot
// masquerade as success.
//
// Every request is traced end-to-end as a nested async span group
// (category "dl.serving"): request ⊃ queue → infer → network, plus a
// synchronous "infer" span on the serving SoC's track, so an exported trace
// shows both the request timeline and per-SoC occupancy. Counters and the
// latency histogram land in the registry under "dl.serving.*".
class SocServingFleet {
 public:
  SocServingFleet(Simulator* sim, SocCluster* cluster, DlDevice soc_device,
                  DnnModel model, Precision precision);
  SocServingFleet(const SocServingFleet&) = delete;
  SocServingFleet& operator=(const SocServingFleet&) = delete;

  // Declares the first `count` usable SoCs as the active serving set.
  // Shrinking does not abort in-flight work.
  void SetActiveCount(int count);
  int active_count() const { return active_count_; }

  // When nonzero, each completed inference also ships its response of
  // `size` through the cluster fabric to the external node as a bulk flow
  // (traced as the request's "network" phase). Completion counters and
  // latency stats still close at inference end, so enabling the response
  // path changes neither throughput nor the reported latencies.
  void SetResponseSize(DataSize size) { response_size_ = size; }
  // Moves latency accounting (stats, SLOs, attempt evidence) from
  // inference end to response delivery, so a browned-out uplink shows up
  // in the recorded tail. No effect while response_size is zero. Off by
  // default — existing benches keep their inference-end semantics.
  void SetLatencyIncludesResponse(bool include) {
    latency_includes_response_ = include;
  }

  // Per-attempt evidence tap for gray-failure detection: invoked with the
  // serving SoC, the attempt's service latency, and whether the attempt
  // succeeded. Workload code reports evidence outward and never aggregates
  // per-SoC stats itself — DegradationScorer (src/core/graydetect.h) owns
  // the scoring; wire this to it (ChaosRunner and the gray bench do).
  using AttemptObserver = std::function<void(int soc_index, Duration latency,
                                             bool ok)>;
  void SetAttemptObserver(AttemptObserver observer) {
    attempt_observer_ = std::move(observer);
  }

  // The fleet's admission queue. Queue policy — length cap, CoDel sojourn
  // shedding, brownout admission floor — is set here (the qos layer owns
  // queue-cap semantics; the fleet no longer carries its own).
  AdmissionQueue& admission() { return admission_; }
  const AdmissionQueue& admission() const { return admission_; }
  // Drop requests whose queueing delay exceeds `deadline` (checked at
  // dispatch). Zero (default) disables. Snapshotted per request at Submit.
  void SetDeadline(Duration deadline);
  // Caps concurrently dispatched requests (brownout "shrink serving" rung).
  // Zero (default) disables.
  void SetDispatchLimit(int limit);
  // Fast-fails non-critical Submit() calls while `breaker` is open (shed
  // at the door, counted per class and recorded as a bad SLO event, like
  // every other shed). Critical traffic bypasses the breaker
  // — during a brownout the critical SLO outranks drain speed. Null
  // (default) disables; the breaker is fed successes on completion and
  // failures on abandonment and queue-pressure sheds.
  void SetBreaker(CircuitBreaker* breaker) { breaker_ = breaker; }

  void Submit() { Submit(Priority::kStandard); }
  void Submit(Priority priority) { Submit(priority, ClientAttribution{}); }
  // Client-attributed submission (src/base/client.h): the outcome —
  // success, shed, expiry, or abandonment — is reported exactly once to
  // the client observer, tagged with the caller's ticket. The session tier
  // (src/trace/session.h) drives the fleet through this overload.
  void Submit(Priority priority, const ClientAttribution& client);
  // Installs the single per-service outcome tap. Unattributed submissions
  // (ticket 0) never invoke it.
  void SetClientObserver(ClientObserver observer) {
    client_observer_ = std::move(observer);
  }
  // When enabled, an attributed request's admission deadline is clamped to
  // the client's own per-attempt deadline, so work the client has already
  // abandoned is purged at dispatch instead of burning a SoC slot — the
  // server-side half of retry-storm ride-out. Off by default.
  void SetHonorClientDeadline(bool honor) { honor_client_deadline_ = honor; }
  // Exact per-request latency samples (SampleStats) power digests and
  // small-run baselines but cost O(requests) memory. Million-request
  // session runs disable them and read the sketch-backed registry
  // histogram instead. On by default.
  void SetExactLatencySamples(bool exact) { exact_latency_samples_ = exact; }
  // Seq-anchors the fleet's inference-completion events into `group`. An
  // open-loop session tier quantizes submissions onto its wheel grid, which
  // makes equal-timestamp collisions between tier events and
  // deterministic-latency completions systematic; sharing the tier's group
  // (SessionTier::anchor_group) pins the admission pipeline's order under
  // tie-break perturbation. Zero (default) leaves the events unanchored.
  void SetEventAnchorGroup(uint64_t group) { event_anchor_ = group; }

  int64_t completed() const { return completed_; }
  int64_t shed() const { return shed_; }
  int64_t deadline_expired() const { return deadline_expired_; }
  int64_t failed() const { return failed_; }
  int queue_length() const { return admission_.size(); }
  const SampleStats& latencies() const { return latencies_; }
  // Per-class views of the same accounting.
  int64_t completed_of(Priority p) const { return ByClass(completed_of_, p); }
  int64_t shed_of(Priority p) const { return ByClass(shed_of_, p); }
  int64_t expired_of(Priority p) const { return ByClass(expired_of_, p); }
  const SampleStats& latencies_of(Priority p) const {
    return latencies_of_[static_cast<size_t>(p)];
  }
  // Engine service rate of one SoC (samples/s), unthrottled.
  double PerSocThroughput() const;

  // Dispatch placer — exposed so callers can install a load penalty
  // (e.g. GrayFailureManager::PlacementPenalty steering work off suspects).
  Placer& placer() { return placer_; }

  // Per-class latency SLO tracker ("dl.serving/<class>", registered at
  // construction): a completion is good iff latency <= the spec threshold;
  // sheds, expiries, and abandonments are bad. Use to re-spec thresholds
  // before traffic starts, or to read burn state after a run.
  SloTracker* slo_of(Priority p) { return slos_[static_cast<size_t>(p)]; }

  // Mixes the ledgers, admission queue, request accounting (per class),
  // and the full latency sample sequence.
  void DigestState(StateDigest& digest) const;

 private:
  struct RequestState {
    SimTime enqueue;
    SimTime attempt_start;  // Dispatch time.
    Priority priority = Priority::kStandard;
    uint64_t request_id = 0;
    SpanId request_span = 0;
    SpanId queue_span = 0;
    // Client attribution (ticket 0 = unattributed legacy submission).
    ClientAttribution client;
    // Causal-trace context (observers-only; never digested).
    RequestContext ctx;
  };
  using RequestPtr = std::shared_ptr<RequestState>;

  static int64_t ByClass(const std::array<int64_t, kNumPriorities>& a,
                         Priority p) {
    return a[static_cast<size_t>(p)];
  }

  void OnAdmissionDrop(const AdmissionQueue::Item& item,
                       AdmissionQueue::DropReason reason);
  void TryDispatch();
  void FinishOn(int soc_index, RequestPtr request, int64_t fail_epoch,
                double cpu_grant, SpanId infer_track_span, SpanId infer_span);
  void Complete(int soc_index, const RequestPtr& request);
  // Latency accounting for a completed request (stats, SLO, evidence);
  // runs at inference end or response delivery per the latency mode.
  void RecordCompletion(int soc_index, const RequestPtr& request);
  // Ends a request whose SoC died under it (or came back broken) as failed.
  void Abandon(const RequestPtr& request);
  // Reports a terminal outcome to the client observer (at most once per
  // attributed request; observers-only, never digested).
  void NotifyClient(const RequestPtr& request, ClientOutcome outcome);
  // Display track hosting SoC `i`'s synchronous spans.
  static int64_t SocTrack(int soc_index) { return 100 + soc_index; }

  Simulator* sim_;
  SocCluster* cluster_;
  DlDevice device_;
  DnnModel model_;
  Precision precision_;
  int active_count_ = 0;
  // One engine slot per SoC; dispatch spreads over free slots (== the
  // historical first-free scan, since free engines all carry zero load).
  SocCapacityView view_;
  Placer placer_;
  AdmissionQueue admission_;
  CircuitBreaker* breaker_ = nullptr;  // Not owned; null: no breaker.
  int64_t completed_ = 0;
  int64_t shed_ = 0;
  int64_t deadline_expired_ = 0;
  int64_t failed_ = 0;
  std::array<int64_t, kNumPriorities> completed_of_{};
  std::array<int64_t, kNumPriorities> shed_of_{};
  std::array<int64_t, kNumPriorities> expired_of_{};
  std::array<SampleStats, kNumPriorities> latencies_of_;
  SampleStats latencies_;
  DataSize response_size_;  // Zero: no response transfer.
  bool latency_includes_response_ = false;
  AttemptObserver attempt_observer_;  // Null: no evidence tap.
  ClientObserver client_observer_;    // Null: no client tier attached.
  bool honor_client_deadline_ = false;
  uint64_t event_anchor_ = 0;  // Zero: unanchored (SetEventAnchorGroup).
  bool exact_latency_samples_ = true;
  Duration deadline_;       // Zero: none.
  int dispatch_limit_ = 0;  // Zero: unbounded.
  int in_flight_ = 0;       // Requests currently holding an engine slot.
  uint64_t next_request_id_ = 1;
  Counter* submitted_metric_;
  Counter* completed_metric_;
  Counter* shed_metric_;
  Counter* expired_metric_;
  Counter* failed_metric_;
  HistogramMetric* latency_metric_;
  Gauge* max_queue_metric_;
  std::array<SloTracker*, kNumPriorities> slos_{};
};

// Batching server for one discrete GPU. Each launched batch is traced as a
// synchronous "batch" span (category "dl.gpu_batch", batch size attached as
// an arg) on a dedicated GPU track; counters and histograms land under
// "dl.gpu_batch.*" in the registry.
class GpuBatchServer {
 public:
  GpuBatchServer(Simulator* sim, DiscreteGpuModel* gpu, DlDevice device,
                 DnnModel model, Precision precision, int max_batch,
                 Duration batch_timeout);
  GpuBatchServer(const GpuBatchServer&) = delete;
  GpuBatchServer& operator=(const GpuBatchServer&) = delete;

  void Submit();

  int64_t completed() const { return completed_; }
  int queue_length() const { return static_cast<int>(queue_.size()); }
  const SampleStats& latencies() const { return latencies_; }

 private:
  void MaybeLaunch(bool timeout_expired);
  void FinishBatch(std::vector<SimTime> batch, SpanId batch_span);
  // Display track hosting the GPU's batch spans.
  static int64_t GpuTrack() { return 90; }

  Simulator* sim_;
  DiscreteGpuModel* gpu_;
  DlDevice device_;
  DnnModel model_;
  Precision precision_;
  int max_batch_;
  Duration batch_timeout_;
  std::deque<SimTime> queue_;
  bool running_ = false;
  EventHandle timeout_event_;
  int64_t completed_ = 0;
  SampleStats latencies_;
  Counter* submitted_metric_;
  Counter* completed_metric_;
  Counter* batches_metric_;
  HistogramMetric* latency_metric_;
  HistogramMetric* batch_size_metric_;
};

}  // namespace soccluster

#endif  // SRC_WORKLOAD_DL_SERVING_H_
