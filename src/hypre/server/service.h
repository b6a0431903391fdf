// Request routing and handlers: the layer between HTTP framing and the
// tenant sessions.
//
// Routes (docs/server_api.md is the full reference):
//
//   POST /v1/{tenant}/enumerate   run one EnumerationRequest
//   POST /v1/{tenant}/mutate      apply append/delete ops (writer thread)
//   GET  /v1/{tenant}/stats       scheduler + writer + engine counters
//   GET  /metrics                 Prometheus text (PR 8 registry)
//   GET  /healthz                 liveness + configured tenants
//
// The request lifecycle for enumerate:
//
//   decode (strict JSON -> 400 on any fault)
//     -> tenant lookup (lazy open; unknown -> 404)
//     -> deadline resolution (body "deadline_ms", X-Hypre-Deadline-Ms
//        header, or the server default; smallest wins)
//     -> refresh split: a refresh-bearing request first runs
//        Session::Refresh ON THE TENANT'S WRITER THREAD (the single-writer
//        contract), then re-enters as a refresh=false PURE READ
//     -> the read fans out through the session's AdmissionScheduler with
//        admission_timeout_ms = the remaining deadline; a shed request
//        (queue full / deadline passed) comes back Unavailable
//     -> encode, or map the Status to HTTP
//
// Status -> HTTP: InvalidArgument/ParseError 400, NotFound 404,
// Unavailable 429 + Retry-After, NotImplemented 501, everything else 500.
// Handle() itself never fails: every fault becomes a well-formed JSON
// error body ({"error":{status,code,message}}).
#pragma once

#include <string>

#include "hypre/server/codec.h"
#include "hypre/server/http.h"
#include "hypre/server/tenant.h"

namespace hypre {
namespace server {

struct ServiceOptions {
  /// Honor "debug_sleep_ms" in enumerate bodies: one nap at the run's first
  /// budget charge, held INSIDE the admission window, so tests can saturate
  /// the queue deterministically. Never enable outside tests/CI.
  bool enable_debug = false;
  /// Deadline applied when a request names none; 0 = wait indefinitely.
  uint64_t default_deadline_ms = 0;
};

/// \brief Maps a Status to the HTTP status it travels as.
int HttpStatusForCode(StatusCode code);

/// \brief Stateless-per-request router over a TenantManager. Thread-safe:
/// any number of workers call Handle() concurrently.
class Service {
 public:
  Service(TenantManager* tenants, ServiceOptions options)
      : tenants_(tenants), options_(options) {}

  /// \brief Dispatches one request to its handler.
  HttpResponse Handle(const HttpRequest& request);

  /// \brief The uniform error response (JSON body, Retry-After on 429/503).
  static HttpResponse ErrorResponse(int http_status, const Status& status);

 private:
  HttpResponse HandleEnumerate(Tenant* tenant, const HttpRequest& request);
  HttpResponse HandleMutate(Tenant* tenant, const HttpRequest& request);
  HttpResponse HandleStats(Tenant* tenant);
  HttpResponse HandleMetrics();
  HttpResponse HandleHealth();

  /// Smallest of body deadline, X-Hypre-Deadline-Ms, and the default.
  uint64_t ResolveDeadlineMs(const HttpRequest& request,
                             uint64_t body_deadline_ms) const;

  TenantManager* tenants_;
  const ServiceOptions options_;
};

}  // namespace server
}  // namespace hypre
