// Per-request causal context: the admission -> placement -> dispatch ->
// completion path of one request, stamped as it crosses layers and emitted
// as Perfetto flow events that link the existing spans across tracks.
//
// A workload allocates one RequestContext per logical request (the service
// owns it; the AdmissionQueue and Placer only borrow a pointer), then calls
// the Trace* helpers at each hop. Helpers always stamp the context — the
// stamps are cheap plain stores — and emit a flow point only when the
// tracer is enabled, so instrumented paths never branch on enablement
// themselves. The helpers are inline and the enablement test is the
// tracer's inline one: with the tracer off a hop costs its stores plus one
// branch, and leaves the header only when a flow point is recorded.
// Everything here is observers-only state: nothing is folded into digests
// and nothing feeds back into the simulation.

#ifndef SRC_OBS_REQUEST_H_
#define SRC_OBS_REQUEST_H_

#include <cstdint>
#include <string_view>

#include "src/base/units.h"
#include "src/obs/trace.h"

namespace soccluster {

struct RequestContext {
  uint64_t id = 0;          // Service-unique; doubles as the flow id.
  // Flow category, set by TraceRequestSubmit. Layers that only borrow the
  // context (Placer) reuse it so their flow points join the same chain.
  // A view: the submitted category must outlive the context (services pass
  // string literals), so stamping it per request copies no characters.
  std::string_view category;
  int priority = 0;         // Priority class at submission.
  int soc_index = -1;       // Last dispatch target (-1 before dispatch).

  // Lifecycle stamps (zero until the hop happens).
  SimTime submit;
  SimTime admit;
  SimTime dispatch;         // First dispatch.
  SimTime complete;         // Completion or terminal drop.
  SimTime last_event;       // Most recent hop of any kind.

  int dispatches = 0;
  int failovers = 0;
  bool admitted = false;
  bool completed = false;
  bool dropped = false;
};

// True when a hop of `ctx` records a flow point.
inline bool TraceRequestFlows(const Tracer* tracer, const RequestContext* ctx) {
  return tracer != nullptr && tracer->enabled() && ctx->id != 0;
}

// Flow emission helpers. TraceRequestSubmit stamps `category` into the
// context (use the service's span category, e.g. "dl.serving", so request
// ids from different services cannot collide into one chain); every later
// hop reuses it, which keeps a chain's points consistent even when the
// context crosses layers (AdmissionQueue, Placer). `tracer` and `ctx` may
// be null; a context with id 0 is stamped but never traced.
inline void TraceRequestSubmit(Tracer* tracer, RequestContext* ctx,
                               std::string_view category, SimTime now,
                               int64_t track = 0) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ctx->submit = now;
  ctx->category = category;
  if (TraceRequestFlows(tracer, ctx)) {
    tracer->FlowBegin("submit", category, ctx->id, track);
  }
}

inline void TraceRequestAdmit(Tracer* tracer, RequestContext* ctx,
                              SimTime now, int64_t track = 0) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ctx->admit = now;
  ctx->admitted = true;
  if (TraceRequestFlows(tracer, ctx)) {
    tracer->FlowStep("admit", ctx->category, ctx->id, track);
  }
}

inline void TraceRequestDispatch(Tracer* tracer, RequestContext* ctx,
                                 SimTime now, int soc_index, int64_t track) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  if (ctx->dispatches == 0) {
    ctx->dispatch = now;
  }
  ++ctx->dispatches;
  ctx->soc_index = soc_index;
  if (TraceRequestFlows(tracer, ctx)) {
    tracer->FlowStep("dispatch", ctx->category, ctx->id, track);
  }
}

inline void TraceRequestFailover(Tracer* tracer, RequestContext* ctx,
                                 SimTime now, int64_t track = 0) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ++ctx->failovers;
  if (TraceRequestFlows(tracer, ctx)) {
    tracer->FlowStep("failover", ctx->category, ctx->id, track);
  }
}

inline void TraceRequestComplete(Tracer* tracer, RequestContext* ctx,
                                 SimTime now, int64_t track = 0) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ctx->complete = now;
  ctx->completed = true;
  if (TraceRequestFlows(tracer, ctx)) {
    tracer->FlowEnd("complete", ctx->category, ctx->id, track);
  }
}

inline void TraceRequestDrop(Tracer* tracer, RequestContext* ctx, SimTime now,
                             int64_t track = 0) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ctx->complete = now;
  ctx->dropped = true;
  if (TraceRequestFlows(tracer, ctx)) {
    tracer->FlowEnd("drop", ctx->category, ctx->id, track);
  }
}

}  // namespace soccluster

#endif  // SRC_OBS_REQUEST_H_
