// Host-time attribution for the traced run.
//
// The traced run drives the day one Simulator::Step() at a time. Each step
// is timed with steady_clock and charged to the module its event label
// rolls up to. The seams the harness wires itself (the tier->fleet submit,
// the fleet->tier client observer, the rated source's callback, the storm's
// failure notifications) are timed as nested frames. Frames sit on a stack, so a frame's self
// time is its elapsed time minus the elapsed time of the frames nested in
// it: a shed outcome reported through the observer from inside Submit is
// charged to the observer, not twice.

#ifndef SIMPERF_PROFILER_H_
#define SIMPERF_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace simperf {

class Profiler {
 public:
  using Clock = std::chrono::steady_clock;

  // Attribution buckets, reported as "<name>" in seconds of self time.
  enum Bucket : int {
    kSimMarker = 0,    // sim.*: the end-of-day marker.
    kTraceWheel,       // session.wheel
    kTraceArrival,     // session.arrival
    kTraceSource,      // source.arrival (rated source's own re-arm)
    kTraceObserver,    // seam: fleet -> tier ClientObserver
    kServingSubmit,    // seam: tier/source -> SocServingFleet::Submit
    kServingFinish,    // dl.serving.*
    kLive,             // seam: live failure notification
    kServerless,       // serverless.*
    kGaming,           // gaming.*
    kBrownoutTick,     // brownout.*
    kOrchestrator,     // seam: orchestrator failure notification
    kBmcSample,        // bmc.*
    kClusterFault,     // cluster.*: the harness's faults, repairs, throttles
    kObsProbe,         // obs.*: the harness's brownout-level probe
    kUnlabeled,        // events scheduled without a label
    kNumBuckets,
  };

  static const char* BucketName(int bucket);

  // Brackets one Simulator::Step(); the label is known only once the
  // step has fired, so it is passed at the end.
  void BeginStep() { Push(); }
  void EndStep(const std::string& label) {
    ++steps_;
    Pop(LookUp(label));
  }

  // Times `fn` as a nested frame charged to `bucket`.
  template <typename Fn>
  void Seam(Bucket bucket, Fn&& fn) {
    Push();
    std::forward<Fn>(fn)();
    Pop(bucket);
  }

  int64_t self_ns(int bucket) const { return self_ns_[bucket]; }
  int64_t calls(int bucket) const { return calls_[bucket]; }
  int64_t steps() const { return steps_; }
  // Smallest self time any frame of the bucket recorded (0 if none).
  int64_t min_self_ns(int bucket) const { return min_self_ns_[bucket]; }
  // Self time charged to a named module (everything but kUnlabeled and
  // labels no prefix claims).
  int64_t attributed_ns() const;
  // Labels seen that no prefix claims; must stay empty.
  const std::set<std::string>& unmapped_labels() const { return unmapped_; }
  // Every distinct label seen, for the label-coverage check.
  std::vector<std::string> labels_seen() const;

 private:
  struct Frame {
    Clock::time_point start;
    int64_t child_ns = 0;
  };
  static constexpr int kUnmapped = kNumBuckets;

  void Push() { stack_.push_back(Frame{Clock::now(), 0}); }
  void Pop(int bucket);
  int LookUp(const std::string& label);

  std::vector<Frame> stack_;
  int64_t self_ns_[kNumBuckets + 1] = {};
  int64_t calls_[kNumBuckets + 1] = {};
  int64_t min_self_ns_[kNumBuckets + 1] = {};
  int64_t steps_ = 0;
  std::unordered_map<std::string, int> label_bucket_;
  std::set<std::string> unmapped_;
};

}  // namespace simperf

#endif  // SIMPERF_PROFILER_H_
