// hypre_shell: an interactive driver for the whole stack — the "practical
// system" face of the library. Loads the synthetic DBLP workload into a
// Session and lets you manage a profile and personalize queries from a
// prompt. Every personalization command dispatches by NAME through the
// unified enumeration API (api::Session + api::kAlgorithms), so all six
// combination algorithms are one `\algo` switch away.
//
//   $ ./hypre_shell [num_papers]
//   hypre> help
//   hypre> pref add 0.5 dblp.venue='SIGMOD'
//   hypre> pref over 0.3 dblp.venue='SIGMOD' dblp.venue='ICDE'
//   hypre> pref list
//   hypre> \algo                    list algorithms (current one starred)
//   hypre> \algo combine-two       switch the enumeration algorithm
//   hypre> topk 10                  personalized top-k / top records
//   hypre> budget 500               cap probes per request (0 = unlimited)
//   hypre> save /tmp/hypre_store    checkpoint (snapshot + journal)
//   hypre> open /tmp/hypre_store    warm restart from a checkpoint
//   hypre> sql SELECT count(distinct dblp.pid) FROM dblp JOIN dblp_author
//          ON dblp.pid = dblp_author.pid WHERE dblp.venue='SIGMOD'
//   hypre> cypher START n=node(*) WHERE n.uid=1 RETURN n.predicate,
//          n.intensity ORDER BY n.intensity DESC
//
// Also scriptable: pipe commands on stdin (used by the smoke test below).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "example_util.h"
#include "graphdb/cypher_lite.h"
#include "hypre/api/session.h"
#include "hypre/hypre_graph.h"
#include "hypre/telemetry/registry.h"
#include "hypre/telemetry/trace.h"
#include "sqlparse/select_parser.h"
#include "workload/dblp_generator.h"

using namespace hypre;

namespace {

constexpr core::UserId kShellUser = 1;

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  pref add <intensity> <predicate>         quantitative preference\n"
      "  pref over <strength> <left> <right>      qualitative (left > right;\n"
      "                                           predicates must not contain "
      "spaces)\n"
      "  pref rm <predicate>                      remove a preference\n"
      "  pref list                                show the profile\n"
      "  \\algo [name]                             list / switch the "
      "enumeration algorithm\n"
      "  topk <k>                                 personalized top-k via the "
      "current algorithm\n"
      "  budget <probes>                          probe budget per request "
      "(0 = unlimited)\n"
      "  save <dir>                               checkpoint the session "
      "(snapshot + journal)\n"
      "  open <dir>                               reopen a session from a "
      "saved directory\n"
      "  sql <select statement>                   run SQL directly\n"
      "  cypher <query>                           query the profile graph\n"
      "  stats [prom]                             dump the telemetry "
      "registry (JSON, or Prometheus text)\n"
      "  trace on|off                             attach a span trace to "
      "each topk and print it\n"
      "  help | quit\n");
}

std::string Rest(std::istringstream* in) {
  std::string rest;
  std::getline(*in, rest);
  size_t start = rest.find_first_not_of(' ');
  return start == std::string::npos ? "" : rest.substr(start);
}

void PrintValue(const reldb::Value& v) {
  std::printf("%s", v.ToString().c_str());
}

void PrintTrace(const telemetry::Trace& trace) {
  if (trace.empty()) {
    std::printf("(no trace; rebuild with -DHYPRE_TELEMETRY=ON)\n");
    return;
  }
  for (const auto& span : trace.spans()) {
    std::printf("  %*s%-8s %-20s %8.3f ms\n", int(span.depth * 2), "",
                span.layer, span.name, double(span.duration_ns) / 1e6);
  }
  if (trace.dropped() > 0) {
    std::printf("  (%" PRIu64 " spans dropped: buffer full)\n",
                trace.dropped());
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_papers = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3000;

  workload::DblpStats stats;
  // Held by pointer so `open <dir>` can swap in a recovered session.
  auto session = std::make_unique<api::Session>(
      examples::MakeDblpDatabase(num_papers, 0, &stats));
  std::printf("loaded synthetic DBLP: %zu papers, %zu authors. "
              "Type 'help' for commands.\n",
              stats.num_papers, stats.num_authors);

  core::HypreGraph graph;
  std::string algorithm = "peps";
  size_t probe_budget = 0;
  bool trace_requests = false;

  std::string line;
  while ((std::printf("hypre> "), std::fflush(stdout),
          std::getline(std::cin, line))) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
      continue;
    }
    if (command == "\\algo" || command == "algo") {
      std::string name;
      in >> name;
      if (name.empty()) {
        for (const api::Algorithm& a : api::kAlgorithms) {
          std::printf("  %c %-22s %s\n", a.name == algorithm ? '*' : ' ',
                      std::string(a.name).c_str(),
                      std::string(a.description).c_str());
        }
        continue;
      }
      auto found = api::FindAlgorithm(name);
      if (!found.ok()) {
        std::printf("%s\n", found.status().ToString().c_str());
        continue;
      }
      algorithm = name;
      std::printf("algorithm = %s\n", algorithm.c_str());
      continue;
    }
    if (command == "budget") {
      in >> probe_budget;
      std::printf("probe budget = %zu%s\n", probe_budget,
                  probe_budget == 0 ? " (unlimited)" : "");
      continue;
    }
    if (command == "stats") {
      std::string format;
      in >> format;
      if (format == "prom") {
        std::printf("%s",
                    telemetry::MetricsRegistry::Global()
                        .ToPrometheusText()
                        .c_str());
      } else {
        std::printf("%s\n",
                    telemetry::MetricsRegistry::Global().ToJson().c_str());
      }
      continue;
    }
    if (command == "trace") {
      std::string mode;
      in >> mode;
      if (mode == "on") {
        trace_requests = true;
      } else if (mode == "off") {
        trace_requests = false;
      } else {
        std::printf("usage: trace on|off\n");
        continue;
      }
      std::printf("trace = %s\n", trace_requests ? "on" : "off");
      continue;
    }
    if (command == "pref") {
      std::string sub;
      in >> sub;
      if (sub == "add") {
        double intensity = 0;
        in >> intensity;
        std::string predicate = Rest(&in);
        auto r = graph.AddQuantitative({kShellUser, predicate, intensity});
        std::printf("%s\n", r.ok() ? "ok" : r.status().ToString().c_str());
      } else if (sub == "over") {
        double strength = 0;
        std::string left;
        std::string right;
        in >> strength >> left >> right;
        auto r = graph.AddQualitative({kShellUser, left, right, strength});
        if (r.ok()) {
          std::printf("ok (%s edge)\n", core::EdgeLabelToString(r->label));
        } else {
          std::printf("%s\n", r.status().ToString().c_str());
        }
      } else if (sub == "rm") {
        std::string predicate = Rest(&in);
        Status st = graph.RemovePreference(kShellUser, predicate);
        std::printf("%s\n", st.ok() ? "ok" : st.ToString().c_str());
      } else if (sub == "list") {
        for (const auto& entry :
             graph.ListPreferences(kShellUser, /*include_negative=*/true)) {
          std::printf("  %+0.3f  %-40s (%s)\n", entry.intensity,
                      entry.predicate.c_str(),
                      core::ProvenanceToString(entry.provenance));
        }
      } else {
        std::printf("unknown pref subcommand '%s'\n", sub.c_str());
      }
      continue;
    }
    if (command == "topk") {
      size_t k = 10;
      in >> k;
      api::EnumerationRequest request;
      request.algorithm = algorithm;
      request.base_query = examples::DblpBaseQuery();
      request.key_column = "dblp.pid";
      // "topk 0" means everything (matching TA's k=0-is-unlimited and
      // PEPS's pre-API TopK(0) behavior).
      request.k = k == 0 ? ~size_t{0} : k;
      request.probe_budget = probe_budget;
      request.trace = trace_requests;
      bool parse_failed = false;
      for (const auto& entry : graph.ListPreferences(kShellUser)) {
        auto atom = core::MakeAtom(entry.predicate, entry.intensity);
        if (!atom.ok()) {
          std::printf("bad predicate in profile: %s\n",
                      atom.status().ToString().c_str());
          parse_failed = true;
          break;
        }
        request.preferences.push_back(std::move(atom.value()));
      }
      if (parse_failed) continue;
      if (request.preferences.empty()) {
        std::printf("profile is empty; use 'pref add' first\n");
        continue;
      }
      auto result = session->Enumerate(request);
      if (!result.ok()) {
        std::printf("%s\n", result.status().ToString().c_str());
        continue;
      }
      if (!result->top_k.empty() || algorithm == "peps" ||
          algorithm == "ta") {
        for (const auto& tuple : result->top_k) {
          examples::PrintRankedPaper(*session->db(), tuple);
        }
      } else {
        // Enumeration-only algorithms: show the strongest k records.
        // Records arrive in each algorithm's documented order (generation
        // order for most), so sort a view by intensity first.
        std::vector<const core::CombinationRecord*> strongest;
        strongest.reserve(result->records.size());
        for (const auto& record : result->records) {
          strongest.push_back(&record);
        }
        std::stable_sort(strongest.begin(), strongest.end(),
                         [](const core::CombinationRecord* a,
                            const core::CombinationRecord* b) {
                           return a->intensity > b->intensity;
                         });
        if (k > 0 && strongest.size() > k) strongest.resize(k);
        for (const auto* record : strongest) {
          std::printf("  %.3f  #%zu tuples=%-5zu %s\n", record->intensity,
                      record->num_predicates, record->num_tuples,
                      record->predicate_sql.c_str());
        }
      }
      std::printf(
          "[%s] epoch=%llu leaf_queries=%zu cache_hits=%zu batches=%zu%s\n",
          algorithm.c_str(), (unsigned long long)result->epoch,
          result->stats.num_leaf_queries, result->stats.num_cache_hits,
          result->stats.num_batches,
          result->truncated ? " TRUNCATED (budget)" : "");
      if (trace_requests) PrintTrace(result->trace);
      continue;
    }
    if (command == "save") {
      std::string dir = Rest(&in);
      if (dir.empty()) {
        std::printf("usage: save <dir>\n");
        continue;
      }
      // First save attaches the store (initial checkpoint); later saves to
      // the same session checkpoint incrementally.
      Status st = session->has_storage() ? session->SaveSnapshot()
                                         : session->AttachStorage(dir);
      if (st.ok()) {
        std::printf("checkpointed to %s (journal seq %llu)\n", dir.c_str(),
                    (unsigned long long)session->store()->snapshot_sequence());
      } else {
        std::printf("%s\n", st.ToString().c_str());
      }
      continue;
    }
    if (command == "open") {
      std::string dir = Rest(&in);
      if (dir.empty()) {
        std::printf("usage: open <dir>\n");
        continue;
      }
      auto reopened = api::Session::OpenFromSnapshot(dir);
      if (!reopened.ok()) {
        std::printf("%s\n", reopened.status().ToString().c_str());
        continue;
      }
      session = std::move(reopened).TakeValue();
      std::printf("opened %s: %zu engine(s) restored, journal seq %llu\n",
                  dir.c_str(), session->num_cached_engines(),
                  (unsigned long long)session->store()->snapshot_sequence());
      continue;
    }
    if (command == "sql") {
      auto result = sqlparse::ExecuteSql(*session->db(), Rest(&in));
      if (!result.ok()) {
        std::printf("%s\n", result.status().ToString().c_str());
        continue;
      }
      for (size_t c = 0; c < result->column_names.size(); ++c) {
        std::printf(c == 0 ? "%s" : " | %s",
                    result->column_names[c].c_str());
      }
      std::printf("\n");
      size_t shown = 0;
      for (const auto& row : result->rows) {
        if (shown++ >= 20) {
          std::printf("  ... (%zu rows total)\n", result->rows.size());
          break;
        }
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) std::printf(" | ");
          PrintValue(row[c]);
        }
        std::printf("\n");
      }
      continue;
    }
    if (command == "cypher") {
      auto result =
          graphdb::RunCypherMutate(graph.mutable_store(), Rest(&in));
      if (!result.ok()) {
        std::printf("%s\n", result.status().ToString().c_str());
        continue;
      }
      for (size_t c = 0; c < result->columns.size(); ++c) {
        std::printf(c == 0 ? "%s" : " | %s", result->columns[c].c_str());
      }
      std::printf("\n");
      for (const auto& row : result->rows) {
        for (size_t c = 0; c < row.size(); ++c) {
          std::printf(c == 0 ? "%s" : " | %s", row[c].ToString().c_str());
        }
        std::printf("\n");
      }
      continue;
    }
    std::printf("unknown command '%s' (try 'help')\n", command.c_str());
  }
  std::printf("\n");
  return 0;
}
