#include "bench_common.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "obs/provenance.hpp"
#include "util/timer.hpp"

namespace bdsm::bench {

const LabeledGraph& CachedDataset(DatasetId id) {
  static std::map<DatasetId, LabeledGraph> cache;
  auto it = cache.find(id);
  if (it == cache.end()) {
    it = cache.emplace(id, LoadDataset(id)).first;
  }
  return it->second;
}

std::vector<QueryGraph> MakeQuerySet(const LabeledGraph& g,
                                     QueryGraph::StructureClass cls,
                                     size_t num_vertices, size_t count,
                                     uint64_t seed) {
  QueryExtractor ex(g, seed);
  return ex.ExtractSet(num_vertices, cls, count);
}

UpdateBatch MakeRateBatch(const LabeledGraph& g, const DatasetSpec& spec,
                          double rate, const Scale& scale, uint64_t seed) {
  // Rate is applied against min(|E|, 10 x cap) so rate sweeps (Fig. 9)
  // scale linearly while the default 10% rate hits exactly the cap.
  double base = static_cast<double>(
      std::min<size_t>(g.NumEdges(), scale.max_batch_ops * 10));
  size_t count = std::min<size_t>(scale.max_batch_ops,
                                  static_cast<size_t>(rate * base));
  UpdateStreamGenerator gen(seed);
  size_t elabels = spec.edge_labels > 1 ? spec.edge_labels : 0;
  return gen.MakeInsertions(g, count, elabels);
}

CellResult RunEngineCell(const std::string& engine_name,
                         const LabeledGraph& g,
                         const std::vector<QueryGraph>& queries,
                         const UpdateBatch& batch, const Scale& scale,
                         GammaOptions gamma_options) {
  CellResult cell;
  EngineOptions opts;
  opts.gamma = gamma_options;
  opts.gamma.device.host_budget_seconds = scale.query_budget_s;
  opts.csm_result_cap = opts.gamma.result_cap;  // same cap both families
  opts.csm_budget_seconds = scale.query_budget_s;

  double total = 0.0, util = 0.0;
  EngineInfo info;
  for (const QueryGraph& q : queries) {
    auto engine = MakeEngine(engine_name, g, opts);
    info = engine->Describe();
    QueryId id = engine->AddQuery(q);
    BatchReport report = engine->ProcessBatch(batch);
    const QueryReport* qr = report.Find(id);
    if (qr == nullptr || qr->Truncated()) {
      ++cell.unsolved;
      continue;
    }
    cell.total_matches += qr->TotalMatches();
    total += report.latency_seconds;
    util += qr->match_stats.Utilization();
    ++cell.solved;
  }
  cell.avg_latency_s = cell.solved ? total / double(cell.solved) : 0.0;
  cell.avg_utilization = cell.solved ? util / double(cell.solved) : 0.0;

  if (JsonSink::Instance().enabled()) {
    if (info.canonical_spec.empty()) {
      // Empty query set: no engine was built above, so describe a
      // throwaway instance to keep the provenance fields present.
      info = MakeEngine(engine_name, g, opts)->Describe();
    }
    JsonRow row;
    row.Set("engine", engine_name)
        .Set("spec", info.canonical_spec)
        .Set("clock", ClockDomainName(info.clock))
        .Set("avg_latency_s", cell.avg_latency_s)
        .Set("solved", cell.solved)
        .Set("unsolved", cell.unsolved)
        .Set("total_matches", static_cast<size_t>(cell.total_matches))
        .Set("avg_utilization", cell.avg_utilization);
    JsonSink::Instance().Add(std::move(row));
  }
  return cell;
}

std::vector<CellResult> RunMethodRow(const LabeledGraph& g,
                                     const std::vector<QueryGraph>& queries,
                                     const UpdateBatch& batch,
                                     const Scale& scale) {
  std::vector<CellResult> results;
  auto run = [&](const char* method) {
    CellResult r = RunEngineCell(method, g, queries, batch, scale);
    printf(" %12s", FormatCell(r).c_str());
    fflush(stdout);
    results.push_back(r);
  };
  for (const char* m : kBaselineMethods) run(m);
  run("gamma");
  return results;
}

std::string FormatCell(const CellResult& r) {
  char buf[64];
  if (r.solved == 0) {
    snprintf(buf, sizeof(buf), "t/o(%zu)", r.unsolved);
  } else if (r.unsolved > 0) {
    snprintf(buf, sizeof(buf), "%.4g(%zu)", r.avg_latency_s, r.unsolved);
  } else {
    snprintf(buf, sizeof(buf), "%.4g", r.avg_latency_s);
  }
  return buf;
}

void PrintHeader(const char* experiment, const char* what,
                 const Scale& scale) {
  printf("=== %s ===\n", experiment);
  printf("%s\n", what);
  printf(
      "scaling: %zu queries/set (paper 50), %.2gs budget/query (paper "
      "1800s), batch cap %zu ops; datasets are synthetic twins "
      "(docs/BENCHMARKS.md); CSM = host wall seconds, GAMMA = modeled "
      "device seconds.\n\n",
      scale.queries_per_set, scale.query_budget_s, scale.max_batch_ops);
}

// ------------------------------------------------- perf trajectory JSON

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (u < 0x20) {  // JSON forbids raw control characters
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[40];
  snprintf(buf, sizeof(buf), "%.9g", v);
  // JSON has no inf/nan literals; a bench emitting one is a bug we
  // still want visible in the file, not a parse error.
  if (std::strchr(buf, 'n') || std::strchr(buf, 'i')) {
    return "null";
  }
  return buf;
}

}  // namespace

void JsonRow::Encode(const std::string& key, std::string literal) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(literal);
      return;
    }
  }
  fields_.emplace_back(key, std::move(literal));
}

JsonRow& JsonRow::Set(const std::string& key, double value) {
  Encode(key, JsonNumber(value));
  return *this;
}

JsonRow& JsonRow::Set(const std::string& key, size_t value) {
  Encode(key, std::to_string(value));
  return *this;
}

JsonRow& JsonRow::Set(const std::string& key, const std::string& value) {
  Encode(key, "\"" + JsonEscape(value) + "\"");
  return *this;
}

JsonRow& JsonRow::SetBool(const std::string& key, bool value) {
  Encode(key, value ? "true" : "false");
  return *this;
}

JsonSink& JsonSink::Instance() {
  static JsonSink sink;
  return sink;
}

void JsonSink::Open(const std::string& bench_name, const std::string& path) {
  bench_name_ = bench_name;
  path_ = path;
}

void JsonSink::OpenCell(const std::string& bench_name,
                        const std::string& out_dir,
                        const std::string& cell_id,
                        const std::string& cell_key) {
  bench_name_ = bench_name;
  path_ = out_dir + "/" + cell_id + ".json";
  cell_id_ = cell_id;
  cell_key_ = cell_key;
}

void JsonSink::SetContextLiteral(const std::string& key,
                                 std::string literal) {
  for (auto& [k, v] : context_) {
    if (k == key) {
      v = std::move(literal);
      return;
    }
  }
  context_.emplace_back(key, std::move(literal));
}

void JsonSink::Context(const std::string& key, const std::string& value) {
  SetContextLiteral(key, "\"" + JsonEscape(value) + "\"");
}

void JsonSink::Context(const std::string& key, double value) {
  SetContextLiteral(key, JsonNumber(value));
}

void JsonSink::Context(const std::string& key, size_t value) {
  SetContextLiteral(key, std::to_string(value));
}

void JsonSink::ClearContext(const std::string& key) {
  for (auto it = context_.begin(); it != context_.end(); ++it) {
    if (it->first == key) {
      context_.erase(it);
      return;
    }
  }
}

void JsonSink::Add(JsonRow row) {
  if (!enabled()) return;
  JsonRow merged;
  for (const auto& [k, v] : context_) merged.Encode(k, v);
  for (const auto& [k, v] : row.fields_) merged.Encode(k, v);
  rows_.push_back(std::move(merged));
}

void JsonSink::Flush() {
  if (!enabled()) return;
  // Cell mode seals the file atomically: write + fsync a temp sibling,
  // then rename over the final path, so run_matrix.py can treat "the
  // file exists and parses" as "this cell completed".  The rename
  // happens only after FinishBench() — atexit also runs on the
  // validation exit(2)/return-nonzero paths, and a failed run must
  // leave at most the .tmp post-mortem, never a sealed file.
  const bool cell_mode = !cell_id_.empty();
  const std::string write_path = cell_mode ? path_ + ".tmp" : path_;
  FILE* f = fopen(write_path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "bench: cannot write %s\n", write_path.c_str());
    return;
  }
  fprintf(f, "{\n  \"schema\": \"bdsm-bench-v1\",\n  \"bench\": \"%s\",\n",
          JsonEscape(bench_name_).c_str());
  if (cell_mode) {
    fprintf(f, "  \"cell_id\": \"%s\",\n", JsonEscape(cell_id_).c_str());
    if (!cell_key_.empty()) {
      fprintf(f, "  \"cell_key\": \"%s\",\n",
              JsonEscape(cell_key_).c_str());
    }
  }
  fprintf(f, "  \"provenance\": {\"tool\": \"%s\", \"git\": \"%s\"},\n",
          JsonEscape(bench_name_).c_str(),
          JsonEscape(obs::GitDescribe()).c_str());
  fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows_.size(); ++i) {
    fprintf(f, "    {");
    const auto& fields = rows_[i].fields_;
    for (size_t j = 0; j < fields.size(); ++j) {
      fprintf(f, "%s\"%s\": %s", j ? ", " : "",
              JsonEscape(fields[j].first).c_str(), fields[j].second.c_str());
    }
    fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
  }
  fprintf(f, "  ]%s\n}\n", cell_mode ? ",\n  \"sealed\": true" : "");
  if (cell_mode) {
    fflush(f);
    fsync(fileno(f));
  }
  fclose(f);
  if (cell_mode && !complete_) {
    fprintf(stderr,
            "bench: run did not complete; leaving %s unsealed "
            "(post-mortem at %s)\n",
            path_.c_str(), write_path.c_str());
    return;
  }
  if (cell_mode && rename(write_path.c_str(), path_.c_str()) != 0) {
    fprintf(stderr, "bench: cannot seal %s\n", path_.c_str());
    return;
  }
  // Status goes to stderr: bench stdout may itself be machine-readable
  // (bench_micro --benchmark_format=json) and must stay parseable.
  fprintf(stderr, "wrote %zu JSON rows to %s\n", rows_.size(),
          path_.c_str());
}

void InitBench(const char* bench_name, int argc, char** argv,
               const char* default_json_path) {
  const char* path = nullptr;
  const char* out_dir = nullptr;
  const char* cell_id = nullptr;
  const char* cell_key = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char** slot = nullptr;
    if (std::strcmp(argv[i], "--json") == 0) slot = &path;
    if (std::strcmp(argv[i], "--out-dir") == 0) slot = &out_dir;
    if (std::strcmp(argv[i], "--cell-id") == 0) slot = &cell_id;
    if (std::strcmp(argv[i], "--cell-key") == 0) slot = &cell_key;
    if (slot == nullptr) continue;
    if (i + 1 >= argc) {
      // Fail fast: silently dropping the trajectory after a minutes-long
      // run is worse than refusing to start.
      fprintf(stderr, "%s: %s needs an argument\n", bench_name, argv[i]);
      exit(2);
    }
    *slot = argv[i + 1];
  }
  if ((out_dir == nullptr) != (cell_id == nullptr)) {
    fprintf(stderr,
            "%s: --out-dir and --cell-id must be given together "
            "(docs/EXPERIMENTS.md)\n",
            bench_name);
    exit(2);
  }
  if (out_dir != nullptr && path != nullptr) {
    fprintf(stderr,
            "%s: --json conflicts with --out-dir/--cell-id (a cell row "
            "file has exactly one destination)\n",
            bench_name);
    exit(2);
  }
  if (cell_key != nullptr && out_dir == nullptr) {
    fprintf(stderr,
            "%s: --cell-key only makes sense with --out-dir/--cell-id "
            "(docs/EXPERIMENTS.md)\n",
            bench_name);
    exit(2);
  }
  if (out_dir != nullptr) {
    JsonSink::Instance().OpenCell(bench_name, out_dir, cell_id,
                                  cell_key != nullptr ? cell_key : "");
    std::atexit([] { JsonSink::Instance().Flush(); });
    return;
  }
  if (path == nullptr) path = default_json_path;
  if (path != nullptr) {
    JsonSink::Instance().Open(bench_name, path);
    std::atexit([] { JsonSink::Instance().Flush(); });
  }
}

void FinishBench() { JsonSink::Instance().MarkComplete(); }

void JsonContext(const std::string& key, const std::string& value) {
  JsonSink::Instance().Context(key, value);
}
void JsonContext(const std::string& key, double value) {
  JsonSink::Instance().Context(key, value);
}
void JsonContext(const std::string& key, size_t value) {
  JsonSink::Instance().Context(key, value);
}

void JsonProvenance(const EngineInfo& info) {
  JsonProvenance(info.canonical_spec, info.clock);
}

void JsonProvenance(const std::string& canonical_spec, ClockDomain clock) {
  JsonContext("spec", canonical_spec);
  JsonContext("clock", ClockDomainName(clock));
}

}  // namespace bdsm::bench
