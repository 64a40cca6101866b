// Discovery-plan benchmark: drives Blend::Run from one process and reports
// end-to-end metrics (--trace 0) or per-layer metrics from a traced replay
// (--trace 1) of one workload. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload union_serving --seed 1 --seconds 10 --trace 0
//
// Every plan's answer is first computed serially (query_threads = 1); every
// later answer, timed or traced, must equal it. The binary exits 1 when any
// answer differs, a plan fails or returns an empty sink, or an exact count
// does not repeat, and 2 on bad arguments. perfbench/README.md documents the
// workloads and every metric.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/telemetry.h"
#include "index/snapshot.h"
#include "replay.h"
#include "workloads.h"

namespace {

using blend::Result;
using blend::Status;
using blend::core::Blend;
using blend::core::Plan;
using blend::core::TableList;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

/// The timed window is split into rounds, each with a fresh Blend set up
/// several times; setup_s is the median over all of them. Snapshot opens
/// take milliseconds, so they are repeated more often than index builds.
/// Workloads are sized so that a round of the benchmark's run_seconds
/// completes >= 1000 plans, putting >= 10 samples beyond the round's p99.
constexpr int kRounds = 5;
constexpr int kBuildsPerRound = 2;
constexpr int kOpensPerRound = 10;
/// The traced run repeats each layer's set-up call this often (median).
constexpr int kLayerSetUpRepeats = 9;
/// Plans of each workload's pool that the traced run replays.
constexpr size_t kTraceSample = 32;
/// The replayed plans' layer spans must cover this share of their wall time.
constexpr double kMinSpanCoverage = 0.9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-work";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (!(a.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad number for " + flag).c_str());
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Nearest-rank percentile of ascending samples (at least one).
double Percentile(const std::vector<double>& sorted, size_t percent) {
  const size_t rank = (percent * sorted.size() + 99) / 100;  // ceil, 1-based
  return sorted[std::max<size_t>(rank, 1) - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

/// Collects metrics as name -> (value, unit) and prints the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  /// Prints the human-readable table and then the JSON result line.
  void Print(bool correct, size_t attempted, size_t failed) const {
    for (const auto& [name, m] : metrics_) {
      std::printf("# %-40s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

Result<std::vector<Plan>> MakePlans(const Workload& w, size_t n) {
  std::vector<Plan> plans;
  for (size_t i = 0; i < n; ++i) {
    auto plan = w.make_plan(i);
    if (!plan.ok()) return plan.status();
    plans.push_back(plan.take());
  }
  return plans;
}

/// Answers every plan of the pool with a serial build (query_threads = 1)
/// and rejects empty sinks. For a snapshot workload, the serial build is
/// also what the snapshot is saved from, so the served answers are checked
/// against the build they came from.
Result<std::vector<TableList>> ComputeReference(const Workload& w,
                                                const std::string& snapshot) {
  Blend::Options opts = w.options;
  opts.query_threads = 1;
  Blend serial(w.lake.get(), opts);
  std::vector<TableList> ref;
  BLEND_ASSIGN_OR_RETURN(std::vector<Plan> plans, MakePlans(w, w.num_plans));
  for (size_t i = 0; i < plans.size(); ++i) {
    BLEND_ASSIGN_OR_RETURN(TableList out, serial.Run(plans[i]));
    if (out.empty()) {
      return Status::InvalidArgument(w.name + ": plan " + std::to_string(i) +
                                     " returned an empty sink");
    }
    ref.push_back(std::move(out));
  }
  if (w.from_snapshot) BLEND_RETURN_NOT_OK(serial.SaveSnapshot(snapshot));
  return ref;
}

/// The Blend that serves the timed plans, set up the way users of the
/// workload would: an index build, or an mmap open of the saved snapshot.
Result<std::unique_ptr<Blend>> SetUpServing(const Workload& w,
                                            const std::string& snapshot) {
  if (w.from_snapshot) return Blend::OpenSnapshot(snapshot, w.lake.get(), w.options);
  return std::make_unique<Blend>(w.lake.get(), w.options);
}

/// Failure count plus the first message, printed once the run ends.
struct Failures {
  size_t count = 0;
  std::string first;

  void Add(const std::string& message) {
    if (count++ == 0) first = message;
  }
  void Merge(const Failures& o) {
    if (count == 0) first = o.first;
    count += o.count;
  }
};

struct ClientLog {
  std::vector<double> latencies_ms;
  size_t attempted = 0;
  Failures failures;
};

/// One closed-loop client: runs its plans round-robin from `first`, each
/// only after the previous answer arrived, until `deadline` or, when
/// `max_plans` is set, that many plans; every answer is checked.
void RunClient(const Blend& blend, const std::vector<Plan>& plans,
               const std::vector<TableList>& reference, size_t first,
               Clock::time_point deadline, size_t max_plans, ClientLog* log) {
  for (size_t j = 0;; ++j) {
    if (max_plans > 0 ? j == max_plans : Clock::now() >= deadline) break;
    const size_t i = (first + j) % plans.size();
    const auto start = Clock::now();
    auto out = blend.Run(plans[i]);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    ++log->attempted;
    if (!out.ok() || out.value() != reference[i]) {
      log->failures.Add("plan " + std::to_string(i) + ": " +
                        (out.ok() ? "answer differs from the serial reference"
                                  : out.status().ToString()));
      continue;
    }
    log->latencies_ms.push_back(ms);
  }
}

/// Runs every client at once, for `seconds` or `max_plans` plans each, and
/// appends to its log; returns the wall time until the last client stopped.
double RunClients(const Blend& blend, const std::vector<std::vector<Plan>>& plans,
                  const std::vector<TableList>& reference, double seconds,
                  size_t max_plans, size_t round, std::vector<ClientLog>* logs) {
  const size_t clients = plans.size();
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      // Clients start spread over the pool, at a new offset every round.
      const size_t first = (c * reference.size() / clients + round * 7919) %
                           reference.size();
      RunClient(blend, plans[c], reference, first, deadline, max_plans, &(*logs)[c]);
    });
  }
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return SecondsSince(start);
}

int RunEndToEnd(const Workload& w, const std::vector<TableList>& ref,
                const std::string& snapshot, const Args& args) {
  std::vector<std::vector<Plan>> plans;
  for (int c = 0; c < w.clients; ++c) {
    auto p = MakePlans(w, w.num_plans);
    if (!p.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", p.status().ToString().c_str());
      return 1;
    }
    plans.push_back(p.take());
  }

  // The window is split into rounds. Each round sets the Blend up afresh
  // (timed, several times), warms it, then times its share of the window.
  // plans_per_s and plan_ms_p50 are medians over the rounds, so a burst of
  // load from outside the benchmark that hits one or two rounds does not
  // move them. A burst of ~100 ms already holds 1% of a round's plans, so
  // it sets that round's p99, and such bursts reach most rounds; plan_ms_p99
  // is therefore the lowest round p99, the tail of the least disturbed
  // round. A slower tail in the program itself raises every round's p99.
  std::vector<double> setup_s, throughput, p50, p99;
  std::vector<std::string> rounds;
  size_t attempted = 0, fewest = SIZE_MAX;
  Failures failures;
  size_t index_bytes = 0;
  const double round_s = args.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    std::unique_ptr<Blend> blend;
    for (int r = 0; r < (w.from_snapshot ? kOpensPerRound : kBuildsPerRound); ++r) {
      blend.reset();
      const auto start = Clock::now();
      auto made = SetUpServing(w, snapshot);
      setup_s.push_back(SecondsSince(start));
      if (!made.ok()) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                     made.status().ToString().c_str());
        return 1;
      }
      blend = made.take();
    }
    index_bytes = blend->IndexBytes();
    // Warm-up: one checked pass over the pool per client, so the timed plans
    // never pay first-touch costs (page faults on a fresh mmap, cold caches).
    std::vector<ClientLog> warm(plans.size()), timed(plans.size());
    RunClients(*blend, plans, ref, 0, w.num_plans, round, &warm);
    const double window = RunClients(*blend, plans, ref, round_s, 0, round, &timed);

    std::vector<double> lat;
    for (const ClientLog& l : warm) failures.Merge(l.failures);
    for (const ClientLog& l : timed) {
      failures.Merge(l.failures);
      attempted += l.attempted;
      lat.insert(lat.end(), l.latencies_ms.begin(), l.latencies_ms.end());
    }
    if (lat.empty()) {
      failures.Add("no plan completed in round " + std::to_string(round));
      continue;
    }
    std::sort(lat.begin(), lat.end());
    throughput.push_back(static_cast<double>(lat.size()) / window);
    p50.push_back(Percentile(lat, 50));
    p99.push_back(Percentile(lat, 99));
    fewest = std::min(fewest, lat.size());
    rounds.push_back("# round " + std::to_string(round + 1) + ": " +
                     std::to_string(lat.size()) + " plans, " +
                     std::to_string(throughput.back()) + " plans/s, p50 " +
                     std::to_string(p50.back()) + " ms, p99 " +
                     std::to_string(p99.back()) + " ms");
  }
  if (failures.count > 0) {
    std::fprintf(stderr, "perfbench: %zu failed; first: %s\n", failures.count,
                 failures.first.c_str());
  }
  if (throughput.empty()) return 1;

  const size_t cells = w.lake->TotalCells();
  std::printf("# workload %s seed %llu: %zu tables, %zu cells, %d client(s), closed "
              "loop, %zu-plan pool\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.lake->NumTables(), cells, w.clients, w.num_plans);
  std::printf("# %d rounds of %.1f s; each round >= %zu samples, >= %zu beyond "
              "plan_ms_p99; setup_s median of %zu\n",
              kRounds, round_s, fewest, fewest - (99 * fewest + 99) / 100,
              setup_s.size());
  for (const std::string& line : rounds) std::printf("%s\n", line.c_str());
  Report report;
  report.Add("plans_per_s", Median(throughput), "plans/s");
  report.Add("plan_ms_p50", Median(p50), "ms");
  report.Add("plan_ms_p99", *std::min_element(p99.begin(), p99.end()), "ms");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("index_bytes_per_cell",
             static_cast<double>(index_bytes) / static_cast<double>(cells),
             "B/cell");
  report.Add("ok_frac",
             static_cast<double>(attempted - std::min(failures.count, attempted)) /
                 static_cast<double>(std::max<size_t>(attempted, 1)),
             "ratio");
  report.Print(failures.count == 0, attempted, failures.count);
  return failures.count == 0 ? 0 : 1;
}

/// Registry counters the traced run reads around each untraced Blend::Run.
struct Counters {
  int64_t blocks = 0, seeks = 0, tasks = 0, steals = 0;

  static Counters Read() {
    const blend::RegistrySnapshot snap = blend::MetricsRegistry::Global().Collect();
    auto value = [&](const char* name) -> int64_t {
      const blend::MetricSample* s = snap.Find(name);
      return s == nullptr ? 0 : s->value;
    };
    return {value("blend_posting_blocks_decoded_total"),
            value("blend_gallop_seeks_total"), value("blend_scheduler_tasks_total"),
            value("blend_scheduler_steals_total")};
  }
  Counters operator-(const Counters& o) const {
    return {blocks - o.blocks, seeks - o.seeks, tasks - o.tasks, steals - o.steals};
  }
  Counters& operator+=(const Counters& o) {
    blocks += o.blocks;
    seeks += o.seeks;
    tasks += o.tasks;
    steals += o.steals;
    return *this;
  }
};

/// Counts that must repeat exactly when one client replays the same plan.
struct ExactCounts {
  uint64_t statements = 0;
  int64_t blocks = 0, seeks = 0;
  size_t mc_candidates = 0, mc_validated = 0;

  bool operator==(const ExactCounts&) const = default;
};

template <typename F>
double MedianSecondsOf(int repeats, F&& fn) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    fn();
    seconds.push_back(SecondsSince(start));
  }
  return Median(seconds);
}

int RunTraced(const Workload& w, const std::vector<TableList>& ref,
              const std::string& snapshot, const Args& args) {
  // Layer set-up calls, each timed on its own.
  blend::IndexBuildOptions build;
  build.layout = w.options.layout;
  build.shuffle_rows = w.options.shuffle_rows;
  build.shuffle_seed = w.options.shuffle_seed;
  build.serve_compressed = w.options.serve_compressed;
  const double build_s = MedianSecondsOf(kLayerSetUpRepeats, [&] {
    blend::IndexBundle bundle = blend::IndexBuilder(build).Build(*w.lake);
  });
  Failures failures;
  const double open_s =
      !w.from_snapshot ? 0 : MedianSecondsOf(kLayerSetUpRepeats, [&] {
        auto bundle = blend::OpenSnapshot(snapshot);
        if (!bundle.ok()) failures.Add(bundle.status().ToString());
      });
  auto serving = SetUpServing(w, snapshot);
  auto plans = MakePlans(w, std::min(kTraceSample, w.num_plans));
  if (!serving.ok() || !plans.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 (serving.ok() ? plans.status() : serving.status()).ToString().c_str());
    return 1;
  }
  const Blend& blend = *serving.value();
  const std::vector<Plan>& sample = plans.value();

  // Passes over the sample until the time is up (at least two, so the exact
  // counts can be compared). Even passes run Blend::Run before the replay,
  // odd passes after it, so neither side always finds the caches warm.
  perfbench::SpanLog spans;
  perfbench::ReplayStats total;
  std::vector<std::optional<ExactCounts>> first_pass(sample.size());
  Counters moved;
  uint64_t statements = 0;
  double untraced_ns = 0;
  size_t attempted = 0, replayed = 0, passes = 0;
  const auto start = Clock::now();
  for (; passes < 2 || SecondsSince(start) < args.seconds; ++passes) {
    for (size_t i = 0; i < sample.size(); ++i) {
      const std::string plan_name = "plan " + std::to_string(i);
      ExactCounts counts;
      Result<TableList> run = Status::Internal("not run");
      auto untraced = [&] {
        const Counters before = Counters::Read();
        const uint64_t served = blend.engine().QueriesServed();
        const auto t0 = Clock::now();
        run = blend.Run(sample[i]);
        untraced_ns +=
            std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        counts.statements = blend.engine().QueriesServed() - served;
        const Counters delta = Counters::Read() - before;
        counts.blocks = delta.blocks;
        counts.seeks = delta.seeks;
        moved += delta;
      };
      if (passes % 2 == 0) untraced();
      auto replay = perfbench::ReplayPlan(blend, sample[i],
                                          static_cast<int32_t>(replayed), &spans);
      if (passes % 2 == 1) untraced();
      attempted += 2;
      ++replayed;
      statements += counts.statements;
      if (!run.ok() || run.value() != ref[i]) {
        failures.Add(plan_name + ": Blend::Run differs from the serial reference");
      }
      if (!replay.ok()) {
        failures.Add(plan_name + ": replay: " + replay.status().ToString());
        continue;
      }
      if (replay.value().output != ref[i]) {
        failures.Add(plan_name + ": replay output differs from Blend::Run");
      }
      const perfbench::ReplayStats& st = replay.value().stats;
      if (st.statements != counts.statements) {
        failures.Add(plan_name + ": replay and Blend::Run issued different statements");
      }
      counts.mc_candidates = st.mc_candidates;
      counts.mc_validated = st.mc_validated;
      if (!first_pass[i].has_value()) {
        first_pass[i] = counts;
      } else if (!(counts == *first_pass[i])) {
        failures.Add(plan_name + ": exact counts differ between passes");
      }
      total += st;
    }
  }

  // One file per workload: the latest traced run's spans.
  const std::string spans_path = args.work_dir + "/spans-" + w.name + ".jsonl";
  const Status written = spans.WriteJsonLines(spans_path);
  if (!written.ok()) failures.Add(written.ToString());
  const double coverage =
      total.plan_ns == 0 ? 0 : static_cast<double>(total.LayerNs()) / total.plan_ns;
  if (coverage < kMinSpanCoverage) {
    failures.Add("layer spans cover " + std::to_string(coverage) +
                 " of the replay time");
  }
  if (failures.count > 0) {
    std::fprintf(stderr, "perfbench: %s\n", failures.first.c_str());
  }

  const double per_plan = 1.0 / static_cast<double>(std::max<size_t>(replayed, 1));
  std::printf("# workload %s seed %llu: traced replay of %zu plans (%zu passes over a "
              "%zu-plan sample), spans in %s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), replayed,
              passes, sample.size(), spans_path.c_str());
  std::printf("# per plan: untraced Blend::Run %.3f ms, traced work path %.3f ms, "
              "whole replay %.3f ms\n",
              untraced_ns * per_plan * 1e-6, total.WorkPathNs() * per_plan * 1e-6,
              total.plan_ns * per_plan * 1e-6);
  const double per_stmt_us =
      1e-3 / static_cast<double>(std::max<size_t>(total.statements, 1));
  const double cells = static_cast<double>(w.lake->TotalCells());
  blend::SnapshotOptions snap_opts;
  snap_opts.codec = w.options.snapshot_codec;
  Report report;
  report.Add("core.render_us", total.render_ns * per_stmt_us, "us");
  report.Add("core.optimize_us", total.optimize_ns * per_plan * 1e-3, "us");
  report.Add("core.seeker_self_us",
             (total.statement_seeker_ns - total.query_ns) * per_stmt_us, "us");
  report.Add("core.combine_us", total.combine_ns * per_plan * 1e-3, "us");
  report.Add("core.mc_validated_per_candidate",
             total.mc_candidates == 0 ? 0
                                      : static_cast<double>(total.mc_validated) /
                                            static_cast<double>(total.mc_candidates),
             "ratio");
  report.Add("sql.parse_us", total.parse_ns * per_stmt_us, "us");
  report.Add("sql.exec_us", (total.query_ns - total.parse_ns) * per_stmt_us, "us");
  report.Add("sql.statements_per_plan", statements * per_plan, "count");
  report.Add("storage.resolve_us", total.resolve_ns * per_stmt_us, "us");
  report.Add("index.build_s", build_s, "s");
  report.Add("index.snapshot_open_s", open_s, "s");
  report.Add("index.snapshot_bytes_per_cell",
             blend::SnapshotBytes(blend.bundle(), snap_opts) / cells, "B/cell");
  report.Add("index.posting_blocks_decoded_per_plan", moved.blocks * per_plan, "count");
  report.Add("index.gallop_seeks_per_plan", moved.seeks * per_plan, "count");
  report.Add("common.scheduler_tasks_per_plan", moved.tasks * per_plan, "count");
  report.Add("common.scheduler_steals_per_plan", moved.steals * per_plan, "count");
  report.Add("bench.trace_overhead_frac",
             untraced_ns == 0 ? 0 : total.WorkPathNs() / untraced_ns - 1, "ratio");
  report.Add("bench.span_coverage_frac", coverage, "ratio");
  report.Print(failures.count == 0, attempted, failures.count);
  return failures.count == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  auto workload = perfbench::MakeWorkload(args.workload, args.seed);
  if (!workload.ok()) Usage(workload.status().message().c_str());
  const Workload& w = workload.value();

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string snapshot = args.work_dir + "/" + w.name + "-" +
                               std::to_string(getpid()) + ".snap";
  auto ref = ComputeReference(w, snapshot);
  int rc = 1;
  if (!ref.ok()) {
    std::fprintf(stderr, "perfbench: reference: %s\n", ref.status().ToString().c_str());
  } else if (args.trace == 0) {
    rc = RunEndToEnd(w, ref.value(), snapshot, args);
  } else {
    rc = RunTraced(w, ref.value(), snapshot, args);
  }
  std::filesystem::remove(snapshot, ec);
  return rc;
}
