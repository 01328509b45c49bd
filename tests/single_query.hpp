/// Test helper: the paper's single-query system, one query through a
/// fresh "gamma" engine.
#pragma once

#include <utility>

#include "core/engine.hpp"

namespace bdsm {

/// Registers `q` on a fresh "gamma" engine over `g` built with `opts`,
/// digests `batch` (sanitized by the engine) and returns the query's
/// report.
inline QueryReport RunSingleQuery(const LabeledGraph& g,
                                  const QueryGraph& q,
                                  const GammaOptions& opts,
                                  const UpdateBatch& batch) {
  EngineOptions options;
  options.gamma = opts;
  auto engine = MakeEngine("gamma", g, options);
  engine->AddQuery(q);
  return std::move(engine->ProcessBatch(batch).queries[0]);
}

}  // namespace bdsm
