#include "hypre/server/service.h"

#include <chrono>
#include <memory>
#include <thread>

#include "common/string_util.h"
#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/telemetry.h"

namespace hypre {
namespace server {

namespace {

#if HYPRE_TELEMETRY_ENABLED
telemetry::Counter* RequestCounter() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "hypre_server_requests_total", "server",
          "HTTP requests dispatched to a handler");
  return c;
}

telemetry::Counter* ErrorCounter() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "hypre_server_errors_total", "server",
          "HTTP responses with a 4xx/5xx status");
  return c;
}

telemetry::Counter* ShedCounter() {
  static telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "hypre_server_shed_total", "server",
          "Requests shed with 429/503 (admission or writer overload)");
  return c;
}

telemetry::Histogram* HandleLatency() {
  static telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "hypre_server_handle_us", "server",
          "Microseconds spent inside a request handler");
  return h;
}
#endif  // HYPRE_TELEMETRY_ENABLED

std::chrono::steady_clock::time_point DeadlinePoint(uint64_t deadline_ms) {
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(deadline_ms);
}

/// Milliseconds left before `deadline`, floored at 0.
uint64_t RemainingMs(std::chrono::steady_clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<uint64_t>(left.count()) : 0;
}

}  // namespace

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
    case StatusCode::kConflict:
      return 409;
    case StatusCode::kUnavailable:
      return 429;
    case StatusCode::kNotImplemented:
      return 501;
    default:
      return 500;
  }
}

HttpResponse Service::ErrorResponse(int http_status, const Status& status) {
  HttpResponse response;
  response.status = http_status;
  response.body = EncodeError(http_status, status);
  if (http_status == 429 || http_status == 503) {
    // The shed is transient by construction (queue full / deadline spent);
    // a short client backoff is the right hint.
    response.headers.emplace_back("Retry-After", "1");
  }
  return response;
}

uint64_t Service::ResolveDeadlineMs(const HttpRequest& request,
                                    uint64_t body_deadline_ms) const {
  uint64_t deadline = body_deadline_ms;
  if (const std::string* header = request.FindHeader("x-hypre-deadline-ms")) {
    uint64_t value = 0;
    bool numeric = !header->empty();
    for (char c : *header) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    if (numeric && value > 0 && (deadline == 0 || value < deadline)) {
      deadline = value;
    }
  }
  if (options_.default_deadline_ms > 0 &&
      (deadline == 0 || options_.default_deadline_ms < deadline)) {
    deadline = options_.default_deadline_ms;
  }
  return deadline;
}

HttpResponse Service::Handle(const HttpRequest& request) {
#if HYPRE_TELEMETRY_ENABLED
  RequestCounter()->Increment();
  const auto started = std::chrono::steady_clock::now();
#endif
  HttpResponse response = [&]() -> HttpResponse {
    if (request.path == "/healthz") {
      if (request.method != "GET") {
        return ErrorResponse(
            405, Status::InvalidArgument("/healthz accepts GET only"));
      }
      return HandleHealth();
    }
    if (request.path == "/metrics") {
      if (request.method != "GET") {
        return ErrorResponse(
            405, Status::InvalidArgument("/metrics accepts GET only"));
      }
      return HandleMetrics();
    }
    // /v1/{tenant}/{action}
    std::vector<std::string> parts = Split(request.path, '/');
    // A leading '/' yields an empty first field.
    if (parts.size() != 4 || !parts[0].empty() || parts[1] != "v1" ||
        parts[2].empty()) {
      return ErrorResponse(
          404, Status::NotFound("no route for '" + request.path + "'"));
    }
    const std::string& tenant_name = parts[2];
    const std::string& action = parts[3];
    if (action != "enumerate" && action != "mutate" && action != "stats") {
      return ErrorResponse(
          404, Status::NotFound("no route for '" + request.path + "'"));
    }
    Result<std::shared_ptr<Tenant>> tenant = tenants_->Get(tenant_name);
    if (!tenant.ok()) {
      return ErrorResponse(HttpStatusForCode(tenant.status().code()),
                           tenant.status());
    }
    if (action == "enumerate") {
      if (request.method != "POST") {
        return ErrorResponse(
            405, Status::InvalidArgument("enumerate accepts POST only"));
      }
      return HandleEnumerate(tenant->get(), request);
    }
    if (action == "mutate") {
      if (request.method != "POST") {
        return ErrorResponse(
            405, Status::InvalidArgument("mutate accepts POST only"));
      }
      return HandleMutate(tenant->get(), request);
    }
    if (request.method != "GET") {
      return ErrorResponse(405,
                           Status::InvalidArgument("stats accepts GET only"));
    }
    return HandleStats(tenant->get());
  }();
#if HYPRE_TELEMETRY_ENABLED
  HandleLatency()->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count()));
  if (response.status >= 400) ErrorCounter()->Increment();
  if (response.status == 429 || response.status == 503) {
    ShedCounter()->Increment();
  }
#endif
  return response;
}

HttpResponse Service::HandleEnumerate(Tenant* tenant,
                                      const HttpRequest& request) {
  Result<DecodedEnumerate> decoded = DecodeEnumerateRequest(request.body);
  if (!decoded.ok()) {
    return ErrorResponse(HttpStatusForCode(decoded.status().code()),
                         decoded.status());
  }
  api::EnumerationRequest& enumerate = decoded->request;
  api::Session* session = tenant->session();

  const uint64_t deadline_ms = ResolveDeadlineMs(request, decoded->deadline_ms);
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (deadline_ms > 0) deadline = DeadlinePoint(deadline_ms);

  if (options_.enable_debug && decoded->debug_sleep_ms > 0) {
    // Synthetic latency held INSIDE the admission window: the sleep fires
    // once, at the run's first budget charge, while the request's admission
    // ticket is live — how the tests and CI saturate the queue on purpose.
    enumerate.checkpoint = [sleep_ms = decoded->debug_sleep_ms,
                            slept = false]() mutable {
      if (!slept) {
        slept = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      return true;
    };
  }

  // Refresh split: the journal drain reads base tables, so it belongs to
  // the single writer. Run it there, then re-enter as a pure read — the
  // epoch the read pins is at least as fresh as the drain just made it.
  if (enumerate.refresh) {
    Status refreshed = tenant->ExecuteWrite(
        [session] { return session->Refresh().status(); }, deadline);
    if (!refreshed.ok()) {
      return ErrorResponse(HttpStatusForCode(refreshed.code()), refreshed);
    }
    enumerate.refresh = false;
  }

  if (deadline.has_value()) {
    const uint64_t remaining = RemainingMs(*deadline);
    if (remaining == 0) {
      return ErrorResponse(
          429, Status::Unavailable(
                   "deadline spent before the read could be admitted"));
    }
    enumerate.admission_timeout_ms = remaining;
  }

  Result<api::EnumerationResult> result = session->Enumerate(enumerate);
  if (!result.ok()) {
    return ErrorResponse(HttpStatusForCode(result.status().code()),
                         result.status());
  }
  HttpResponse response;
  response.body = EncodeEnumerationResult(enumerate.algorithm, *result);
  return response;
}

HttpResponse Service::HandleMutate(Tenant* tenant,
                                   const HttpRequest& request) {
  Result<DecodedMutate> decoded = DecodeMutateRequest(request.body);
  if (!decoded.ok()) {
    return ErrorResponse(HttpStatusForCode(decoded.status().code()),
                         decoded.status());
  }
  const uint64_t deadline_ms = ResolveDeadlineMs(request, 0);
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (deadline_ms > 0) deadline = DeadlinePoint(deadline_ms);

  api::Session* session = tenant->session();
  size_t applied = 0;
  bool committed = false;
  uint64_t sequence = 0;
  Status status = tenant->ExecuteWrite(
      [&]() -> Status {
        reldb::Database* db = session->mutable_db();
        if (db == nullptr) {
          return Status::Internal(
              "tenant session does not own its database; mutations are "
              "disabled");
        }
        for (MutationOp& op : decoded->ops) {
          reldb::Table* table = db->GetTable(op.table);
          if (table == nullptr) {
            return Status::NotFound("unknown table '" + op.table + "'");
          }
          if (op.kind == MutationOp::Kind::kAppend) {
            HYPRE_RETURN_NOT_OK(table->Append(std::move(op.row)));
          } else {
            HYPRE_RETURN_NOT_OK(table->Delete(op.row_id));
          }
          ++applied;
        }
        if (decoded->commit && session->has_storage()) {
          HYPRE_RETURN_NOT_OK(session->CommitJournal());
          committed = true;
        }
        // Captured on the writer thread: reading it after ExecuteWrite
        // returns would race with the next queued mutation.
        sequence = db->journal().sequence();
        return Status::OK();
      },
      deadline);
  if (!status.ok()) {
    return ErrorResponse(HttpStatusForCode(status.code()), status);
  }
  Json body = Json::Object();
  body.Set("applied", Json::Int(static_cast<int64_t>(applied)));
  body.Set("committed", Json::Bool(committed));
  body.Set("journal_sequence", Json::Int(static_cast<int64_t>(sequence)));
  HttpResponse response;
  response.body = body.Dump();
  return response;
}

HttpResponse Service::HandleStats(Tenant* tenant) {
  api::Session* session = tenant->session();
  const api::AdmissionScheduler::Stats sched = session->scheduler().stats();

  Json scheduler = Json::Object();
  scheduler.Set("admitted", Json::Int(static_cast<int64_t>(sched.admitted)));
  scheduler.Set("waited", Json::Int(static_cast<int64_t>(sched.waited)));
  scheduler.Set("rejected", Json::Int(static_cast<int64_t>(sched.rejected)));
  scheduler.Set("inflight", Json::Int(static_cast<int64_t>(sched.inflight)));
  scheduler.Set("queue_depth",
                Json::Int(static_cast<int64_t>(sched.queue_depth)));

  Json writer = Json::Object();
  writer.Set("executed",
             Json::Int(static_cast<int64_t>(tenant->writes_executed())));
  writer.Set("shed", Json::Int(static_cast<int64_t>(tenant->writes_shed())));

  // Base-table reads belong to the WRITE side of the session contract
  // (no epoch pin protects them), so the row counts are collected on the
  // tenant's writer thread, serialized with any in-flight mutation.
  Json tables = Json::Object();
  Status scan = tenant->ExecuteWrite([&]() -> Status {
    for (const std::string& name : session->db()->TableNames()) {
      tables.Set(name,
                 Json::Int(static_cast<int64_t>(
                     session->db()->GetTable(name)->num_live_rows())));
    }
    return Status::OK();
  });
  if (!scan.ok()) {
    return ErrorResponse(HttpStatusForCode(scan.code()), scan);
  }

  Json body = Json::Object();
  body.Set("tenant", Json::Str(tenant->name()));
  body.Set("scheduler", std::move(scheduler));
  body.Set("writer", std::move(writer));
  body.Set("engines",
           Json::Int(static_cast<int64_t>(session->num_cached_engines())));
  body.Set("storage", Json::Bool(session->has_storage()));
  body.Set("tables", std::move(tables));
  HttpResponse response;
  response.body = body.Dump();
  return response;
}

HttpResponse Service::HandleMetrics() {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
#if HYPRE_TELEMETRY_ENABLED
  response.body = telemetry::MetricsRegistry::Global().ToPrometheusText();
#else
  response.body = "# hypre telemetry compiled out (-DHYPRE_TELEMETRY=OFF)\n";
#endif
  return response;
}

HttpResponse Service::HandleHealth() {
  Json tenants = Json::Array();
  for (const std::string& name : tenants_->TenantNames()) {
    tenants.Append(Json::Str(name));
  }
  Json body = Json::Object();
  body.Set("status", Json::Str("ok"));
  body.Set("tenants", std::move(tenants));
  body.Set("open", Json::Int(static_cast<int64_t>(tenants_->num_open())));
  HttpResponse response;
  response.body = body.Dump();
  return response;
}

}  // namespace server
}  // namespace hypre
