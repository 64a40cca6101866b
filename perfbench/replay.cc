#include "replay.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

#include "common/str_util.h"
#include "sql/parser.h"

namespace perfbench {

namespace {

using blend::Result;
using blend::Status;
using blend::core::Plan;
using blend::core::RewriteSpec;
using blend::core::Seeker;
using blend::core::TableList;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A span that closes on Close() or at scope exit, whichever comes first.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int32_t parent, int32_t plan)
      : log_(log), id_(log->Begin(name, parent, plan)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }
  /// Closes the span once and returns its duration in nanoseconds.
  int64_t Close() {
    if (open_) {
      ns_ = log_->End(id_);
      open_ = false;
    }
    return ns_;
  }

 private:
  SpanLog* log_;
  int32_t id_;
  bool open_ = true;
  int64_t ns_ = 0;
};

/// The rewrite predicate of a step, built from earlier outputs as
/// core/optimizer.h documents it: IN takes the intersection of the sources'
/// table-id sets (`IN (-1)` when empty, since `IN ()` does not parse), NOT IN
/// their union (no predicate when empty). Ids are rendered ascending.
std::string BuildRewrite(const RewriteSpec& spec,
                         const std::unordered_map<std::string, TableList>& outputs) {
  if (spec.kind == RewriteSpec::Kind::kNone || spec.sources.empty()) return "";
  std::map<int64_t, size_t> sources_with;  // table id -> sources containing it
  for (const std::string& src : spec.sources) {
    auto it = outputs.find(src);
    if (it == outputs.end()) continue;
    std::set<int64_t> ids;
    for (const auto& e : it->second) ids.insert(e.table);
    for (int64_t id : ids) ++sources_with[id];
  }
  std::vector<int64_t> ids;
  for (const auto& [id, n] : sources_with) {
    if (spec.kind == RewriteSpec::Kind::kNotIn || n == spec.sources.size()) {
      ids.push_back(id);
    }
  }
  if (spec.kind == RewriteSpec::Kind::kIn) {
    return ids.empty() ? "AND TableId IN (-1)"
                       : "AND TableId IN (" + blend::SqlInListInts(ids) + ")";
  }
  return ids.empty() ? "" : "AND TableId NOT IN (" + blend::SqlInListInts(ids) + ")";
}

void CollectInStrings(const blend::sql::Expr* e, std::vector<const std::string*>* out);

void CollectInStrings(const blend::sql::SelectStmt& s,
                      std::vector<const std::string*>* out) {
  for (const auto& item : s.items) CollectInStrings(item.expr.get(), out);
  for (const auto& ref : s.from) {
    if (ref.subquery != nullptr) CollectInStrings(*ref.subquery, out);
  }
  for (const auto& on : s.join_ons) CollectInStrings(on.get(), out);
  CollectInStrings(s.where.get(), out);
}

void CollectInStrings(const blend::sql::Expr* e, std::vector<const std::string*>* out) {
  if (e == nullptr) return;
  if (e->kind == blend::sql::ExprKind::kInList) {
    for (const std::string& v : e->in_strings) out->push_back(&v);
  }
  CollectInStrings(e->lhs.get(), out);
  CollectInStrings(e->rhs.get(), out);
  for (const auto& arg : e->args) CollectInStrings(arg.get(), out);
}

int ColumnIndex(const blend::sql::QueryResult& r, const std::string& name) {
  for (size_t c = 0; c < r.columns.size(); ++c) {
    if (r.columns[c] == name) return static_cast<int>(c);
  }
  return -1;
}

/// SC and correlation seekers run one dedup-top-k statement over TableId and
/// return its (TableId, score) rows unchanged.
bool IsTopKSeeker(const Seeker& s) {
  return s.type() == Seeker::Type::kSC || s.type() == Seeker::Type::kC;
}

/// Times the stand-alone calls behind the statement `seeker` just issued and
/// checks that the stand-alone statement returns what Execute returned.
Status TraceStatement(const blend::core::Blend& blend, const Seeker& seeker,
                      const std::string& rewrite, const TableList& executed,
                      int32_t root, int32_t plan_id, SpanLog* log, ReplayStats* st) {
  const blend::core::DiscoveryContext& ctx = blend.context();
  const bool keyword = seeker.type() == Seeker::Type::kKW;

  ScopedSpan render(log, "core.render", root, plan_id);
  const std::string sql = seeker.GenerateSql(rewrite, keyword ? seeker.k() : -1);
  st->render_ns += render.Close();

  ScopedSpan parse(log, "sql.parse", root, plan_id);
  auto parsed = blend::sql::ParseStatement(sql);
  st->parse_ns += parse.Close();
  if (!parsed.ok()) return parsed.status();

  std::vector<const std::string*> values;
  CollectInStrings(*parsed.value().select, &values);
  const blend::Dictionary& dict = ctx.engine->dictionary();
  ScopedSpan resolve(log, "storage.resolve", root, plan_id);
  for (const std::string* v : values) dict.Find(*v);
  st->resolve_ns += resolve.Close();

  blend::sql::QueryOptions opts = ctx.query_options;
  if (IsTopKSeeker(seeker)) {
    opts.dedup_column = 0;
    opts.dedup_limit = seeker.k() < 0 ? -1 : seeker.k();
  }
  ScopedSpan query(log, "sql.query", root, plan_id);
  auto result = ctx.engine->Query(sql, opts);
  st->query_ns += query.Close();
  if (!result.ok()) return result.status();

  if (IsTopKSeeker(seeker)) {
    const blend::sql::QueryResult& r = result.value();
    const int table_col = ColumnIndex(r, "TableId");
    const int score_col = ColumnIndex(r, "score");
    TableList rows;
    for (size_t i = 0; table_col >= 0 && score_col >= 0 && i < r.NumRows(); ++i) {
      rows.push_back({static_cast<blend::TableId>(r.Int(i, table_col)),
                      r.Double(i, score_col)});
    }
    if (rows != executed) {
      return Status::Internal(seeker.name() +
                              " statement run stand-alone disagrees with "
                              "Seeker::Execute");
    }
  }
  return Status::OK();
}

}  // namespace

int32_t SpanLog::Begin(const char* name, int32_t parent, int32_t plan) {
  spans_.push_back({name, NowNs(), 0, parent, plan});
  return static_cast<int32_t>(spans_.size() - 1);
}

int64_t SpanLog::End(int32_t id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs();
  return s.end_ns - s.start_ns;
}

Status SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::ExecutionError("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"plan\":%d,\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.plan, i, s.parent, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return Status::ExecutionError("short write to " + path);
  }
  return Status::OK();
}

Result<ReplayResult> ReplayPlan(const blend::core::Blend& blend, const Plan& plan,
                                int32_t plan_id, SpanLog* log) {
  const blend::core::DiscoveryContext& ctx = blend.context();
  ReplayResult res;
  ReplayStats& st = res.stats;
  ScopedSpan root(log, "plan", -1, plan_id);

  ScopedSpan optimize(log, "core.optimize", root.id(), plan_id);
  blend::core::Optimizer optimizer(blend.cost_model(), &blend.stats(),
                                   blend::core::QueryParallelism(ctx.query_options));
  auto executed_plan = optimizer.Optimize(plan, blend.options().optimize);
  st.optimize_ns += optimize.Close();
  if (!executed_plan.ok()) return executed_plan.status();

  std::unordered_map<std::string, TableList> outputs;
  for (const blend::core::ExecutionStep& step : executed_plan.value().steps) {
    const Plan::Node& node = plan.node(step.node);
    if (node.is_seeker()) {
      ScopedSpan rewrite_span(log, "core.rewrite", root.id(), plan_id);
      const std::string rewrite = BuildRewrite(step.rewrite, outputs);
      st.rewrite_ns += rewrite_span.Close();

      const uint64_t served_before = ctx.engine->QueriesServed();
      ScopedSpan execute(log, "core.seeker", root.id(), plan_id);
      auto out = node.seeker->Execute(ctx, rewrite);
      const int64_t execute_ns = execute.Close();
      st.seeker_ns += execute_ns;
      if (!out.ok()) return out.status();
      const uint64_t issued = ctx.engine->QueriesServed() - served_before;
      if (issued > 1) {
        return Status::Internal(node.id + " issued " + std::to_string(issued) +
                                " statements; the replay attributes one");
      }
      if (const auto* mc =
              dynamic_cast<const blend::core::MCSeeker*>(node.seeker.get())) {
        st.mc_candidates += mc->last_stats().candidate_rows;
        st.mc_validated += mc->last_stats().true_positives;
      }
      if (issued == 1) {
        ++st.statements;
        st.statement_seeker_ns += execute_ns;
        BLEND_RETURN_NOT_OK(TraceStatement(blend, *node.seeker, rewrite, out.value(),
                                           root.id(), plan_id, log, &st));
      }
      outputs.emplace(node.id, out.take());
    } else {
      std::vector<TableList> inputs;
      for (const std::string& in : node.inputs) {
        auto it = outputs.find(in);
        if (it == outputs.end()) {
          return Status::Internal("input '" + in + "' of '" + node.id +
                                  "' not computed");
        }
        inputs.push_back(it->second);
      }
      ScopedSpan combine(log, "core.combine", root.id(), plan_id);
      TableList out = node.combiner->Combine(inputs);
      st.combine_ns += combine.Close();
      outputs.emplace(node.id, std::move(out));
    }
  }
  auto sink = plan.SinkId();
  if (!sink.ok()) return sink.status();
  res.output = outputs.at(sink.value());
  st.plan_ns = root.Close();
  return res;
}

}  // namespace perfbench
