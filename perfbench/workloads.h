#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/blend.h"

namespace perfbench {

/// One benchmark workload: a lake generated by lakegen from the seed, a pool
/// of discovery-plan inputs drawn from the same seed, and how a Blend that
/// serves the lake is set up. The library only ever sees generated inputs.
struct Workload {
  std::string name;
  /// Closed-loop client threads calling Blend::Run concurrently.
  int clients = 1;
  /// Owned on the heap: Blend instances keep a pointer to the lake.
  std::shared_ptr<const blend::DataLake> lake;
  /// Options of the serving Blend (the reference Blend is the same with
  /// query_threads = 1).
  blend::core::Blend::Options options;
  /// Serve from a compressed-codec snapshot opened with Blend::OpenSnapshot
  /// instead of building the index in the constructor.
  bool from_snapshot = false;
  size_t num_plans = 0;
  /// Builds plan `i` of the pool with fresh seeker instances, so concurrent
  /// clients never share a seeker's per-execution stats.
  std::function<blend::Result<blend::core::Plan>(size_t)> make_plan;
};

/// Generates workload `name` from `seed`; InvalidArgument for an unknown name.
blend::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench
