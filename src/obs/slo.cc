#include "src/obs/slo.h"

#include <fstream>
#include <utility>

#include "src/base/check.h"
#include "src/obs/json.h"

namespace soccluster {

SloTracker::SloTracker(SloSpec spec) : spec_(std::move(spec)) {
  SOC_CHECK(!spec_.name.empty()) << "SloSpec needs a name";
  SOC_CHECK(spec_.objective > 0.0 && spec_.objective < 1.0)
      << "SLO objective must be in (0, 1): " << spec_.name;
  SOC_CHECK(spec_.buckets >= 2) << "SLO ring needs >= 2 buckets";
  SOC_CHECK(spec_.fast_window <= spec_.slow_window)
      << "fast window must not exceed the slow window: " << spec_.name;
  bucket_width_ = Duration::Nanos(spec_.slow_window.nanos() / spec_.buckets);
  SOC_CHECK(bucket_width_.nanos() > 0)
      << "slow window too small for bucket count: " << spec_.name;
  // One extra slot so the bucket being filled never evicts the oldest
  // bucket still inside the slow window.
  ring_.resize(static_cast<size_t>(spec_.buckets) + 1);
}

SloTracker::Counts SloTracker::WindowCounts(SimTime now,
                                            Duration window) const {
  Counts counts;
  const int64_t epoch_now = EpochOf(now);
  int64_t span = window.nanos() / bucket_width_.nanos();
  if (span < 1) {
    span = 1;
  }
  const int64_t oldest = epoch_now - span + 1;
  for (const Bucket& slot : ring_) {
    if (slot.epoch >= oldest && slot.epoch <= epoch_now) {
      counts.good += slot.good;
      counts.bad += slot.bad;
    }
  }
  return counts;
}

double SloTracker::Burn(Counts counts) const {
  const int64_t total = counts.good + counts.bad;
  if (total == 0) {
    return 0.0;
  }
  const double bad_fraction =
      static_cast<double>(counts.bad) / static_cast<double>(total);
  const double error_budget = 1.0 - spec_.objective;
  return bad_fraction / error_budget;
}

double SloTracker::BurnRate(SimTime now, Duration window) const {
  return Burn(WindowCounts(now, window));
}

void SloTracker::Record(SimTime now, bool good) {
  const int64_t epoch = EpochOf(now);
  Bucket& slot = ring_[static_cast<size_t>(epoch % static_cast<int64_t>(
      ring_.size()))];
  if (slot.epoch != epoch) {
    // Recycling a slot may drop a bucket that a cached window still counts.
    slot = Bucket{epoch, 0, 0};
    cache_epoch_ = -1;
  } else if (epoch != cache_epoch_) {
    cache_epoch_ = -1;
  }
  // Both windows end in the current epoch, so a valid cache counts the
  // outcome in both sums.
  const bool cached = cache_epoch_ >= 0;
  if (good) {
    ++slot.good;
    ++good_total_;
    if (cached) {
      ++fast_.good;
      ++slow_.good;
    }
  } else {
    ++slot.bad;
    ++bad_total_;
    if (cached) {
      ++fast_.bad;
      ++slow_.bad;
    }
  }
  Advance(now);
}

void SloTracker::Advance(SimTime now) {
  const int64_t epoch = EpochOf(now);
  if (epoch != cache_epoch_) {
    fast_ = WindowCounts(now, spec_.fast_window);
    slow_ = WindowCounts(now, spec_.slow_window);
    cache_epoch_ = epoch;
  }
  SOC_DCHECK(fast_ == WindowCounts(now, spec_.fast_window) &&
             slow_ == WindowCounts(now, spec_.slow_window))
      << "cached SLO window sums diverged from the ring: " << spec_.name;
  const double fast = Burn(fast_);
  const double slow = Burn(slow_);
  const bool over = fast >= spec_.burn_threshold && slow >= spec_.burn_threshold;
  const bool under = fast < spec_.burn_threshold && slow < spec_.burn_threshold;
  if (!firing_ && over) {
    firing_ = true;
    alerts_.push_back(SloAlert{now, true, fast, slow});
  } else if (firing_ && under) {
    firing_ = false;
    alerts_.push_back(SloAlert{now, false, fast, slow});
  }
}

SloTracker* SloEngine::Register(const SloSpec& spec) {
  if (SloTracker* existing = Find(spec.name)) {
    return existing;
  }
  trackers_.push_back(std::make_unique<SloTracker>(spec));
  return trackers_.back().get();
}

SloTracker* SloEngine::Find(std::string_view name) {
  for (const auto& tracker : trackers_) {
    if (tracker->spec().name == name) {
      return tracker.get();
    }
  }
  return nullptr;
}

const SloTracker* SloEngine::Find(std::string_view name) const {
  return const_cast<SloEngine*>(this)->Find(name);
}

void SloEngine::Advance(SimTime now) {
  for (const auto& tracker : trackers_) {
    tracker->Advance(now);
  }
}

void SloEngine::WriteJson(std::ostream& out, SimTime now) const {
  JsonWriter w(&out);
  w.BeginObject();
  w.KeyValue("time_s", now.ToSeconds());
  w.Key("slos");
  w.BeginArray();
  for (const auto& tracker : trackers_) {
    const SloSpec& spec = tracker->spec();
    w.BeginObject();
    w.KeyValue("name", std::string_view(spec.name));
    w.KeyValue("service", std::string_view(spec.service));
    w.KeyValue("class", std::string_view(spec.class_name));
    if (!spec.cohort.empty()) {
      w.KeyValue("cohort", std::string_view(spec.cohort));
    }
    w.KeyValue("threshold_ms", spec.threshold.ToMillis());
    w.KeyValue("objective", spec.objective);
    w.KeyValue("fast_window_s", spec.fast_window.ToSeconds());
    w.KeyValue("slow_window_s", spec.slow_window.ToSeconds());
    w.KeyValue("burn_threshold", spec.burn_threshold);
    w.KeyValue("good", tracker->good_total());
    w.KeyValue("bad", tracker->bad_total());
    w.KeyValue("firing", tracker->firing());
    w.KeyValue("fast_burn", tracker->BurnRate(now, spec.fast_window));
    w.KeyValue("slow_burn", tracker->BurnRate(now, spec.slow_window));
    w.Key("alerts");
    w.BeginArray();
    for (const SloAlert& alert : tracker->alerts()) {
      w.BeginObject();
      w.KeyValue("time_s", alert.time.ToSeconds());
      w.KeyValue("type", alert.firing ? "fire" : "clear");
      w.KeyValue("fast_burn", alert.fast_burn);
      w.KeyValue("slow_burn", alert.slow_burn);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
}

Status SloEngine::WriteJsonFile(const std::string& path, SimTime now) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open slo output file " + path);
  }
  WriteJson(out, now);
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing slo timeline to " + path);
  }
  return Status::Ok();
}

}  // namespace soccluster
