// JSON wire codec for the REST front end.
//
// One translation layer between the HTTP bodies and the api:: types, kept
// separate from routing so the encoding is directly testable — and so the
// e2e differential test (tests/test_http_server.cc) can run a DIRECT
// Session::Enumerate through the same encoder and demand byte-identical
// output from the served path. Decoding is fail-closed on top of the strict
// hypre::Json parser: unknown algorithm names, missing fields, and
// wrong-typed values all come back as InvalidArgument with the field named,
// which the service maps to 400.
//
// Wire shapes (see docs/server_api.md for the full reference):
//
//   enumerate request  {"algorithm", "base_query" (SQL), "key_column",
//                       "preferences": [{"predicate", "intensity"}, ...],
//                       "k"?, "semantics"?, "mode"?, "seed"?,
//                       "max_exhaustive_n"?, "probe_budget"?, "refresh"?,
//                       "deadline_ms"?, "debug_sleep_ms"?}
//   enumerate response {"algorithm", "epoch", "truncated",
//                       "records": [...], "top_k": [...], "stats": {...},
//                       "valid_checks"?, "invalid_checks"?}
//   mutate request     {"ops": [{"op":"append","table","row":[...]} |
//                               {"op":"delete","table","row_id"}],
//                       "commit"?}
//   error response     {"error": {"status", "code", "message"}}
#pragma once

#include <string>

#include "common/json.h"
#include "common/status.h"
#include "hypre/api/enumeration.h"
#include "reldb/database.h"

namespace hypre {
namespace server {

/// \brief A decoded enumerate body: the api request plus the server-level
/// knobs that ride alongside it in the JSON.
struct DecodedEnumerate {
  api::EnumerationRequest request;
  /// End-to-end deadline from "deadline_ms" (or the X-Hypre-Deadline-Ms
  /// header, which the service applies before decoding). 0 = none. Mapped
  /// onto EnumerationRequest::admission_timeout_ms by the service.
  uint64_t deadline_ms = 0;
  /// Debug-only synthetic latency: one nap at the run's first budget
  /// charge, inside the admission window (ignored unless the server runs
  /// with debug endpoints enabled). Lets tests and CI saturate the
  /// admission queue deterministically.
  uint64_t debug_sleep_ms = 0;
};

/// \brief Parses and validates an enumerate request body.
Result<DecodedEnumerate> DecodeEnumerateRequest(const std::string& body);

/// \brief Encodes an EnumerationResult exactly as the wire emits it. The
/// bytes are deterministic for a deterministic result (insertion-ordered
/// keys, exact int64s, shortest-round-trip doubles).
std::string EncodeEnumerationResult(const std::string& algorithm,
                                    const api::EnumerationResult& result);

/// \brief One decoded mutation op.
struct MutationOp {
  enum class Kind { kAppend, kDelete };
  Kind kind = Kind::kAppend;
  std::string table;
  reldb::Row row;           // kAppend
  reldb::RowId row_id = 0;  // kDelete
};

/// \brief A decoded mutate body.
struct DecodedMutate {
  std::vector<MutationOp> ops;
  /// Group-commit the journal tail (Session::CommitJournal) after applying,
  /// when the tenant is storage-backed. Default on: a mutate that returned
  /// 200 should be durable.
  bool commit = true;
};

/// \brief Parses and validates a mutate request body. Rows are decoded
/// positionally (JSON null/int/double/string -> reldb::Value); schema arity
/// and type errors surface later from Table::Append.
Result<DecodedMutate> DecodeMutateRequest(const std::string& body);

/// \brief The uniform error body: {"error":{"status",code,"message"}}.
std::string EncodeError(int http_status, const Status& status);

/// \brief reldb::Value -> Json (null/int/double/string, exact).
Json ValueToJson(const reldb::Value& value);

}  // namespace server
}  // namespace hypre
