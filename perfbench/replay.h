#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/blend.h"

namespace perfbench {

/// One traced call into a library layer, made by the replay from outside the
/// library. Spans of one replayed plan share `plan`; `parent` is the index
/// of the enclosing span in the log (-1 for a plan's root span).
struct Span {
  const char* name = "";  // static string, e.g. "sql.parse"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int32_t plan = -1;
};

/// In-memory span store. Spans are appended while the replay runs and
/// written out once, when the run ends.
class SpanLog {
 public:
  int32_t Begin(const char* name, int32_t parent, int32_t plan);
  /// Closes span `id` and returns its duration in nanoseconds.
  int64_t End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: plan, id, parent, name, start_ns, end_ns.
  blend::Status WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer totals of one replayed plan. "Statement" fields cover the seeker
/// steps that issued a SQL statement (every seeker issues at most one).
struct ReplayStats {
  int64_t plan_ns = 0;      // root span: the whole replay of the plan
  int64_t optimize_ns = 0;  // Optimizer::Optimize
  int64_t rewrite_ns = 0;   // rewrite predicate from earlier step outputs
  int64_t seeker_ns = 0;    // Seeker::Execute, every seeker step
  int64_t combine_ns = 0;   // Combiner::Combine
  int64_t render_ns = 0;    // Seeker::GenerateSql
  int64_t parse_ns = 0;     // sql::ParseStatement
  int64_t resolve_ns = 0;   // Dictionary::Find over the IN-list values
  int64_t query_ns = 0;     // sql::Engine::Query (parses, then executes)
  int64_t statement_seeker_ns = 0;  // Seeker::Execute of statement steps
  size_t statements = 0;
  size_t mc_candidates = 0;  // MCSeeker::last_stats().candidate_rows
  size_t mc_validated = 0;   // MCSeeker::last_stats().true_positives

  ReplayStats& operator+=(const ReplayStats& o) {
    plan_ns += o.plan_ns;
    optimize_ns += o.optimize_ns;
    rewrite_ns += o.rewrite_ns;
    seeker_ns += o.seeker_ns;
    combine_ns += o.combine_ns;
    render_ns += o.render_ns;
    parse_ns += o.parse_ns;
    resolve_ns += o.resolve_ns;
    query_ns += o.query_ns;
    statement_seeker_ns += o.statement_seeker_ns;
    statements += o.statements;
    mc_candidates += o.mc_candidates;
    mc_validated += o.mc_validated;
    return *this;
  }

  /// Time inside the named layer spans (the root's children).
  int64_t LayerNs() const {
    return optimize_ns + rewrite_ns + seeker_ns + combine_ns + render_ns +
           parse_ns + resolve_ns + query_ns;
  }
  /// The replay minus its stand-alone per-statement calls: the same work
  /// Blend::Run does, with spans recorded around it.
  int64_t WorkPathNs() const {
    return plan_ns - render_ns - parse_ns - resolve_ns - query_ns;
  }
};

struct ReplayResult {
  blend::core::TableList output;
  ReplayStats stats;
};

/// Replays `plan` the way Blend::Run executes it, one public call at a time:
/// Optimizer::Optimize, then per step the rewrite predicate built from the
/// earlier outputs (core/optimizer.h) and Seeker::Execute or
/// Combiner::Combine. After each seeker that issued a statement, the same
/// statement is rendered (Seeker::GenerateSql), parsed
/// (sql::ParseStatement), its IN-list values resolved (Dictionary::Find) and
/// executed stand-alone (sql::Engine::Query with the seeker's own
/// QueryOptions), each under its own span. Single-threaded callers only:
/// statement attribution reads the engine's QueriesServed counter.
blend::Result<ReplayResult> ReplayPlan(const blend::core::Blend& blend,
                                       const blend::core::Plan& plan,
                                       int32_t plan_id, SpanLog* log);

}  // namespace perfbench
