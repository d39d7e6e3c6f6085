#include "simperf/profiler.h"

#include <algorithm>
#include <string_view>

namespace simperf {
namespace {

struct Rule {
  std::string_view prefix;
  Profiler::Bucket bucket;
};

// Label prefix -> bucket. Labels are the interned event labels of the
// simulator (src/) plus the harness's own (days.cc).
constexpr Rule kRules[] = {
    {"sim.", Profiler::kSimMarker},
    {"session.wheel", Profiler::kTraceWheel},
    {"session.arrival", Profiler::kTraceArrival},
    {"source.", Profiler::kTraceSource},
    {"dl.serving.", Profiler::kServingFinish},
    {"serverless.", Profiler::kServerless},
    {"gaming.", Profiler::kGaming},
    {"brownout.", Profiler::kBrownoutTick},
    {"bmc.", Profiler::kBmcSample},
    {"cluster.", Profiler::kClusterFault},
    {"obs.", Profiler::kObsProbe},
};

constexpr const char* kBucketNames[Profiler::kNumBuckets] = {
    "sim.marker_s",
    "trace.wheel_s",
    "trace.arrival_s",
    "trace.source_s",
    "trace.observer_s",
    "workload.serving.submit_s",
    "workload.serving.finish_s",
    "workload.live_s",
    "workload.serverless_s",
    "workload.gaming_s",
    "qos.brownout.tick_s",
    "core.orchestrator_s",
    "cluster.bmc.sample_s",
    "cluster.fault_s",
    "obs.probe_s",
    "unlabeled_s",
};

// The bucket an event label rolls up to, by prefix; kUnlabeled for the
// empty label and -1 for a label no prefix claims.
int BucketOfLabel(std::string_view label) {
  if (label.empty()) {
    return Profiler::kUnlabeled;
  }
  for (const Rule& rule : kRules) {
    if (label.substr(0, rule.prefix.size()) == rule.prefix) {
      return rule.bucket;
    }
  }
  return -1;
}

}  // namespace

const char* Profiler::BucketName(int bucket) { return kBucketNames[bucket]; }

int Profiler::LookUp(const std::string& label) {
  const auto it = label_bucket_.find(label);
  if (it != label_bucket_.end()) {
    return it->second;
  }
  int bucket = BucketOfLabel(label);
  if (bucket < 0) {
    unmapped_.insert(label);
    bucket = kUnmapped;
  }
  label_bucket_.emplace(label, bucket);
  return bucket;
}

void Profiler::Pop(int bucket) {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           frame.start)
          .count();
  const int64_t self = elapsed - frame.child_ns;
  if (calls_[bucket] == 0 || self < min_self_ns_[bucket]) {
    min_self_ns_[bucket] = self;
  }
  self_ns_[bucket] += self;
  ++calls_[bucket];
  if (!stack_.empty()) {
    stack_.back().child_ns += elapsed;
  }
}

int64_t Profiler::attributed_ns() const {
  int64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (b != kUnlabeled) {
      total += self_ns_[b];
    }
  }
  return total;
}

std::vector<std::string> Profiler::labels_seen() const {
  std::vector<std::string> labels;
  labels.reserve(label_bucket_.size());
  for (const auto& [label, bucket] : label_bucket_) {
    labels.push_back(label);
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace simperf
