#include "src/obs/request.h"

namespace soccluster {
namespace {

bool Ready(const Tracer* tracer, const RequestContext* ctx) {
  return tracer != nullptr && ctx != nullptr && ctx->id != 0;
}

}  // namespace

void TraceRequestSubmit(Tracer* tracer, RequestContext* ctx,
                        std::string_view category, SimTime now,
                        int64_t track) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ctx->submit = now;
  ctx->category = std::string(category);
  if (Ready(tracer, ctx)) {
    tracer->FlowBegin("submit", category, ctx->id, track);
  }
}

void TraceRequestAdmit(Tracer* tracer, RequestContext* ctx, SimTime now,
                       int64_t track) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ctx->admit = now;
  ctx->admitted = true;
  if (Ready(tracer, ctx)) {
    tracer->FlowStep("admit", ctx->category, ctx->id, track);
  }
}

void TraceRequestDispatch(Tracer* tracer, RequestContext* ctx, SimTime now,
                          int soc_index, int64_t track) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  if (ctx->dispatches == 0) {
    ctx->dispatch = now;
  }
  ++ctx->dispatches;
  ctx->soc_index = soc_index;
  if (Ready(tracer, ctx)) {
    tracer->FlowStep("dispatch", ctx->category, ctx->id, track);
  }
}

void TraceRequestFailover(Tracer* tracer, RequestContext* ctx, SimTime now,
                          int64_t track) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ++ctx->failovers;
  if (Ready(tracer, ctx)) {
    tracer->FlowStep("failover", ctx->category, ctx->id, track);
  }
}

void TraceRequestComplete(Tracer* tracer, RequestContext* ctx, SimTime now,
                          int64_t track) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ctx->complete = now;
  ctx->completed = true;
  if (Ready(tracer, ctx)) {
    tracer->FlowEnd("complete", ctx->category, ctx->id, track);
  }
}

void TraceRequestDrop(Tracer* tracer, RequestContext* ctx, SimTime now,
                      int64_t track) {
  if (ctx == nullptr) {
    return;
  }
  ctx->last_event = now;
  ctx->complete = now;
  ctx->dropped = true;
  if (Ready(tracer, ctx)) {
    tracer->FlowEnd("drop", ctx->category, ctx->id, track);
  }
}

}  // namespace soccluster
