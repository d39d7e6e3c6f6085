// Client attribution for open-loop load: the contract between the session
// tier (src/trace/session.h) and the request-serving services.
//
// An open-loop client does not block on its request — it attaches a ticket
// and a client-side deadline at submit time and walks away; the service
// reports the request's fate through a single per-service ClientObserver.
// The ticket is opaque to the service (the session tier packs a
// generation-counted slab reference into it, so a stale ticket from an
// attempt the client already abandoned is rejected in O(1) on the client
// side, never the server side).
//
// The observer is set once per service, not passed per request: at millions
// of requests a per-request std::function would put an allocation on every
// submit. A default-constructed ClientAttribution (ticket 0) marks
// server-side or closed-loop load; services skip the observer for it.

#ifndef SRC_BASE_CLIENT_H_
#define SRC_BASE_CLIENT_H_

#include <cstdint>
#include <functional>

#include "src/base/units.h"

namespace soccluster {

// Terminal fate of one client-attributed submission (one server-side
// attempt from the client's point of view; client-side retries submit
// fresh attributions).
enum class ClientOutcome {
  kSuccess = 0,  // Completed; latency is submit-to-completion.
  kShed = 1,     // Refused or evicted by admission/breaker/queue pressure.
  kExpired = 2,  // Purged server-side after its deadline passed.
  kFailed = 3,   // Its SoC died (or came back broken) under it; the server
                 // never retries, so any retry is the client's own.
};

constexpr const char* ClientOutcomeName(ClientOutcome outcome) {
  switch (outcome) {
    case ClientOutcome::kSuccess:
      return "success";
    case ClientOutcome::kShed:
      return "shed";
    case ClientOutcome::kExpired:
      return "expired";
    case ClientOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

// Attached to a submission by an open-loop client. POD by design: it rides
// inside the service's per-request state with no allocation.
struct ClientAttribution {
  // Client-side request identity; 0 means unattributed (the observer is
  // never invoked for such requests).
  uint64_t ticket = 0;
  // The client stops waiting this long after submit. Zero: no deadline.
  // Services may honor it server-side (purging doomed work at dispatch) —
  // that honoring is an explicit opt-in knob, because a server ignorant of
  // client abandonment is exactly the metastable failure mode the ride-out
  // bench demonstrates.
  Duration deadline;

  bool attributed() const { return ticket != 0; }
};

// Per-service tap for client-attributed outcomes: fires exactly once per
// attributed submission, with the submit-to-outcome latency.
using ClientObserver =
    std::function<void(uint64_t ticket, ClientOutcome outcome,
                       Duration latency)>;

}  // namespace soccluster

#endif  // SRC_BASE_CLIENT_H_
