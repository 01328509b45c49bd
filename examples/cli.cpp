/// \file cli.cpp
/// Command-line driver: run any registered engine on your own
/// graph/query files.  Engine choice is a flag, not a code path.
///
/// Usage:
///   ./example_cli [--engine SPEC] <graph-file> <query-file>
///                 [ins-rate%] [seed]
///   ./example_cli [--engine SPEC] --demo  # built-in demo
///   ./example_cli [--engine SPEC] --scenario NAME
///                 [--seed N] [--checkpoint-dir DIR]
///                 [--checkpoint-every N]
///                 [--tenants N [--priority-mix CLASS[:W],...]]
///                 # named workload scenario
///   ./example_cli --restore DIR             # warm-start from a
///                 # checkpoint directory and finish its scenario
///   ./example_cli --list-engines            # registered engines
///
/// Any mode also accepts --metrics-json PATH and --trace-out PATH
/// (docs/OBSERVABILITY.md): dump the unified metrics registry and the
/// clock-domain-tagged chrome://tracing phase spans, both stamped with
/// run provenance (tool, scenario, engine, seed, git describe).
///
/// SPEC is any engine spec per the canonical grammar of
/// docs/ENGINES.md: a plain name ("gamma" (default), "multi", "tf",
/// ...), a spec with inline options ("gamma(result_cap=100000)"), or a
/// composed wrapper ("sharded(gamma, shards=4)").  --scenario runs a
/// named workload from the scenario catalog
/// (src/workload/scenario.hpp; docs/WORKLOADS.md) through the chosen
/// engine and prints latency percentiles, throughput and truncation —
/// the same driver bench_scenarios uses.
///
/// Multi-tenant serving (src/serve/tenant_front_door.hpp;
/// docs/SERVING.md): tenant-mix scenarios (tenant-skew,
/// noisy-neighbor, overload-storm) automatically drive the chosen
/// engine through a composed tenant(...) front door and print
/// per-tenant accounting + the Jain fairness index.  `--tenants N`
/// synthesizes an N-way uniform mix for any other scenario, with
/// priorities rotating through `--priority-mix`
/// (e.g. "gold:1,silver:2,best_effort:1"; default all silver).
///
/// Persistence (src/persist/; docs/PERSISTENCE.md): --checkpoint-dir
/// checkpoints a --scenario run as it goes (base snapshot, WAL tee
/// with fsync on batch boundaries, snapshot every --checkpoint-every
/// batches, default 4).  --restore DIR warm-starts from that
/// directory — snapshot + WAL tail, O(tail) not O(stream) — and
/// finishes the remaining scenario batches on the restored engine.
///
/// File format (shared with the CSM literature; see graph/graph_io.hpp):
///   t <num_vertices> <num_edges>
///   v <id> <label>
///   e <u> <v> [edge_label]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "graph/datasets.hpp"
#include "graph/graph_io.hpp"
#include "graph/query_extractor.hpp"
#include "graph/update_stream.hpp"
#include "persist/checkpoint.hpp"
#include "util/timer.hpp"
#include "workload/scenario_runner.hpp"

using namespace bdsm;

namespace {

/// Flushes the --metrics-json / --trace-out artifacts (no-op for empty
/// paths) and forwards `rc`; a write failure turns a successful run
/// into exit 1 (docs/OBSERVABILITY.md).
int FinishObs(int rc, const std::string& metrics_path,
              const std::string& trace_path,
              const obs::RunProvenance& prov) {
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    out << obs::MetricsRegistry::Instance().Snapshot().ToJson(&prov);
    if (!out) {
      fprintf(stderr, "cannot write metrics JSON %s\n",
              metrics_path.c_str());
      if (rc == 0) rc = 1;
    } else {
      printf("wrote metrics JSON to %s\n", metrics_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    if (!obs::TraceRecorder::Instance().WriteChromeJson(trace_path,
                                                        prov)) {
      fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      if (rc == 0) rc = 1;
    } else {
      printf("wrote chrome trace to %s (load in chrome://tracing or "
             "ui.perfetto.dev)\n",
             trace_path.c_str());
    }
  }
  return rc;
}

void PrintScenarioReport(const std::string& engine_name,
                         const workload::ScenarioReport& r) {
  printf("engine %s: latency (%s) p50 %.4g ms, p95 %.4g ms, p99 %.4g ms; "
         "%.4g ops/s; %zu matches; truncated %zu queries / %zu batches\n",
         engine_name.c_str(), r.latency_metric.c_str(),
         r.LatencyPercentile(50) * 1e3, r.LatencyPercentile(95) * 1e3,
         r.LatencyPercentile(99) * 1e3, r.ThroughputOpsPerSec(),
         r.total_matches, r.truncated_queries, r.truncated_batches);
  for (const workload::ScenarioTenantMetric& t : r.tenants) {
    printf("  tenant %-10s [%s] offered %zu admitted %zu shed %zu "
           "degraded %zu; sojourn p50 %.4g ms, p95 %.4g ms, p99 %.4g ms\n",
           t.tenant.c_str(), t.priority.c_str(), t.offered_ops,
           t.admitted_ops, t.shed_ops, t.degraded_ops,
           t.sojourn_p50_s * 1e3, t.sojourn_p95_s * 1e3,
           t.sojourn_p99_s * 1e3);
  }
  if (!r.tenants.empty()) {
    printf("  fairness (Jain, admitted/offered shares): %.4f\n",
           r.fairness);
  }
}

int RunScenario(const std::string& engine_name,
                const std::string& scenario_name, uint64_t seed,
                const std::string& checkpoint_dir, size_t checkpoint_every,
                size_t tenants_n,
                const std::vector<PriorityClass>& mix_cycle) {
  const workload::ScenarioSpec* spec =
      workload::FindScenario(scenario_name);
  if (spec == nullptr) {
    fprintf(stderr, "unknown scenario \"%s\"; available:",
            scenario_name.c_str());
    for (const workload::ScenarioSpec& s : workload::AllScenarios()) {
      fprintf(stderr, " %s", s.name.c_str());
    }
    fprintf(stderr, "\n");
    return 2;
  }
  workload::ScenarioSpec eff = *spec;
  if (tenants_n > 0) {
    if (eff.tenants.Enabled()) {
      fprintf(stderr,
              "scenario \"%s\" defines its own tenant mix; --tenants "
              "only applies to scenarios without one\n",
              eff.name.c_str());
      return 2;
    }
    eff.tenants = workload::MakeUniformTenantMix(tenants_n, mix_cycle);
  }
  std::string engine = engine_name;
  if (eff.tenants.Enabled()) {
    if (!checkpoint_dir.empty()) {
      fprintf(stderr,
              "multi-tenant runs cannot be checkpointed (batch formation "
              "re-draws batch boundaries; docs/SERVING.md); drop "
              "--checkpoint-dir\n");
      return 2;
    }
    // Bare specs go through a composed tenant(...) front door, same as
    // bench_scenarios; an explicit tenant(...) spec is taken verbatim.
    EngineSpec parsed = EngineSpec::Parse(engine);
    if (parsed.name != "tenant") {
      EngineSpec wrapped;
      wrapped.name = "tenant";
      wrapped.children.push_back(std::move(parsed));
      engine = wrapped.ToString();
      printf("driving \"%s\" as %s (tenant mix)\n", engine_name.c_str(),
             engine.c_str());
    }
  }
  printf("scenario %s — %s (seed %llu)\n", eff.name.c_str(),
         eff.description.c_str(),
         static_cast<unsigned long long>(seed));
  workload::ScenarioRunner runner(eff, seed);
  printf("graph |V|=%zu |E|=%zu, %zu queries, %zu batches\n",
         runner.graph().NumVertices(), runner.graph().NumEdges(),
         runner.queries().size(), runner.stream().size());
  try {
    workload::ScenarioReport r;
    if (checkpoint_dir.empty()) {
      r = runner.Run(engine);
    } else {
      persist::CheckpointPolicy policy;
      policy.every_batches = checkpoint_every;
      persist::Checkpointer checkpointer(checkpoint_dir, policy);
      workload::ScenarioRunner::RunControls controls;
      controls.checkpointer = &checkpointer;
      r = runner.Run(engine, EngineOptions{}, controls);
      printf("checkpointed into %s: %zu snapshots, WAL through batch "
             "%llu (restore with --restore %s)\n",
             checkpoint_dir.c_str(), checkpointer.snapshots_taken(),
             static_cast<unsigned long long>(checkpointer.next_batch()),
             checkpoint_dir.c_str());
    }
    PrintScenarioReport(engine, r);
  } catch (const persist::PersistError& e) {
    fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}

/// --restore DIR: warm-start from a checkpoint and finish the
/// scenario stream it was recording.
int RunRestore(const std::string& dir) {
  try {
    persist::RestoredEngine restored = persist::RestoreEngine(dir);
    printf("restored engine \"%s\" from %s: scenario %s seed %llu, "
           "snapshot at batch %llu + %llu WAL batches%s -> resuming at "
           "batch %llu\n",
           restored.manifest.engine_spec.c_str(), dir.c_str(),
           restored.manifest.scenario.c_str(),
           static_cast<unsigned long long>(restored.manifest.seed),
           static_cast<unsigned long long>(restored.manifest.snapshot_batch),
           static_cast<unsigned long long>(restored.wal_batches_replayed),
           restored.wal_tail_torn ? " (torn tail recovered)" : "",
           static_cast<unsigned long long>(restored.next_batch));
    printf("totals so far: %llu batches, %llu ops, +%llu/-%llu matches\n",
           static_cast<unsigned long long>(restored.totals.batches),
           static_cast<unsigned long long>(restored.totals.ops),
           static_cast<unsigned long long>(restored.totals.positive_matches),
           static_cast<unsigned long long>(
               restored.totals.negative_matches));
    const workload::ScenarioSpec* spec =
        workload::FindScenario(restored.manifest.scenario);
    if (spec == nullptr) {
      printf("scenario \"%s\" is not in this build's catalog; engine is "
             "restored but there is no stream to finish\n",
             restored.manifest.scenario.c_str());
      return 0;
    }
    workload::ScenarioRunner runner(*spec, restored.manifest.seed);
    if (restored.next_batch >= runner.stream().size()) {
      printf("checkpoint already covers the whole %zu-batch stream; "
             "nothing to finish\n", runner.stream().size());
      return 0;
    }
    workload::ScenarioRunner::RunControls controls;
    controls.engine = restored.engine.get();
    controls.first_batch = static_cast<size_t>(restored.next_batch);
    workload::ScenarioReport r =
        runner.Run(restored.manifest.engine_spec, EngineOptions{},
                   controls);
    printf("finished batches [%llu, %zu) on the restored engine:\n",
           static_cast<unsigned long long>(restored.next_batch),
           runner.stream().size());
    PrintScenarioReport(restored.manifest.engine_spec, r);
  } catch (const persist::PersistError& e) {
    fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}

int RunDemo(const std::string& engine_name) {
  printf("demo: GH dataset twin, one extracted sparse query, 3 batches, "
         "engine \"%s\"\n",
         engine_name.c_str());
  LabeledGraph g = LoadDataset(DatasetId::kGithub);
  QueryExtractor ex(g, 7);
  auto q = ex.Extract(6, QueryGraph::StructureClass::kSparse);
  if (!q) {
    fprintf(stderr, "query extraction failed\n");
    return 1;
  }
  printf("query: %s\n", q->ToString().c_str());

  auto engine = MakeEngine(engine_name, g);
  QueryId qid = engine->AddQuery(*q);
  UpdateStreamGenerator gen(13);
  Timer wall;
  for (int i = 0; i < 3; ++i) {
    BatchReport r = engine->ProcessBatch(
        gen.MakeMixed(engine->host_graph(), 200, 2, 1, 0));
    const QueryReport* qr = r.Find(qid);
    printf("batch %d: +%zu / -%zu matches, device %llu ticks\n", i + 1,
           qr->num_positive, qr->num_negative,
           static_cast<unsigned long long>(r.update_stats.makespan_ticks +
                                           r.match_stats.makespan_ticks));
  }
  printf("stream: %.2f ms host wall\n", wall.ElapsedSeconds() * 1e3);
  return 0;
}

}  // namespace

int ListEngines() {
  printf("registered engines (--engine SPEC; grammar in docs/ENGINES.md):\n");
  for (const EngineRegistry::Listing& l :
       EngineRegistry::Instance().Listings()) {
    std::string keys;
    for (const std::string& k : l.option_keys) {
      keys += keys.empty() ? k : ", " + k;
    }
    printf("  %-10s e.g. %-44s %s%s\n", l.name.c_str(), l.example.c_str(),
           keys.empty() ? "(no options)" : "options: ",
           keys.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  std::string engine_name = "gamma";
  std::string scenario_name;
  std::string checkpoint_dir, restore_dir;
  std::string metrics_json_path, trace_out_path;
  uint64_t scenario_seed = workload::kDefaultScenarioSeed;
  size_t checkpoint_every = 4;
  long tenants = 0;
  std::string priority_mix;
  // Peel off --engine SPEC / --scenario NAME / --seed N /
  // --checkpoint-dir DIR / --checkpoint-every N / --restore DIR /
  // --tenants N / --priority-mix MIX / --list-engines wherever they
  // appear.
  std::vector<char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      engine_name = argv[++i];
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      scenario_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 &&
               i + 1 < argc) {
      checkpoint_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 &&
               i + 1 < argc) {
      checkpoint_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--restore") == 0 && i + 1 < argc) {
      restore_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--list-engines") == 0) {
      return ListEngines();
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenants = std::atol(argv[++i]);
      if (tenants < 1) {
        fprintf(stderr, "--tenants wants a positive count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--priority-mix") == 0 &&
               i + 1 < argc) {
      priority_mix = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 &&
               i + 1 < argc) {
      metrics_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (std::optional<std::string> err =
          EngineRegistry::Instance().Validate(engine_name)) {
    fprintf(stderr, "%s\n(--list-engines prints every registered "
            "engine with an example spec)\n", err->c_str());
    return 2;
  }
  if ((tenants > 0 || !priority_mix.empty()) && scenario_name.empty()) {
    fprintf(stderr,
            "--tenants/--priority-mix apply to --scenario runs only\n");
    return 2;
  }
  std::vector<PriorityClass> mix_cycle;
  if (!priority_mix.empty()) {
    if (tenants == 0) {
      fprintf(stderr,
              "--priority-mix needs --tenants N (it rotates priorities "
              "across the synthesized tenants)\n");
      return 2;
    }
    std::string err;
    if (!workload::ParsePriorityMix(priority_mix, &mix_cycle, &err)) {
      fprintf(stderr, "bad --priority-mix \"%s\": %s\n",
              priority_mix.c_str(), err.c_str());
      return 2;
    }
  }

  // Observability surface (src/obs/; docs/OBSERVABILITY.md): either
  // flag runtime-enables the layer; both artifacts carry provenance.
  obs::RunProvenance prov;
  prov.tool = "example_cli";
  prov.scenario = scenario_name;
  prov.engine = engine_name;
  prov.seed = scenario_seed;
  prov.obs_compiled = BDSM_OBS != 0;
  if (!metrics_json_path.empty() || !trace_out_path.empty()) {
    obs::SetEnabled(true);
    if (!trace_out_path.empty()) {
      obs::TraceRecorder::Instance().SetEnabled(true);
    }
    printf("observability on: git %s, obs %s\n", obs::GitDescribe(),
           prov.obs_compiled ? "compiled in" : "compiled out");
  }

  if (!restore_dir.empty()) {
    return FinishObs(RunRestore(restore_dir), metrics_json_path,
                     trace_out_path, prov);
  }
  if (!scenario_name.empty()) {
    return FinishObs(
        RunScenario(engine_name, scenario_name, scenario_seed,
                    checkpoint_dir, checkpoint_every,
                    static_cast<size_t>(tenants), mix_cycle),
        metrics_json_path, trace_out_path, prov);
  }
  if (!args.empty() && std::strcmp(args[0], "--demo") == 0) {
    return FinishObs(RunDemo(engine_name), metrics_json_path,
                     trace_out_path, prov);
  }
  if (args.size() < 2) {
    fprintf(stderr,
            "usage: %s [--engine SPEC] <graph-file> <query-file> "
            "[ins-rate%%] [seed]\n"
            "       %s [--engine SPEC] --demo\n"
            "       %s [--engine SPEC] --scenario NAME [--seed N]\n"
            "           [--checkpoint-dir DIR [--checkpoint-every N]]\n"
            "       %s --restore DIR\n"
            "       %s --list-engines\n",
            argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  LabeledGraph g = LoadGraph(args[0]);
  QueryGraph q = LoadQuery(args[1]);
  double rate = args.size() > 2 ? std::atof(args[2]) / 100.0 : 0.10;
  uint64_t seed =
      args.size() > 3 ? std::strtoull(args[3], nullptr, 10) : 42;
  printf("graph: %zu vertices, %zu edges | query: %s\n", g.NumVertices(),
         g.NumEdges(), q.ToString().c_str());

  UpdateStreamGenerator gen(seed);
  size_t count = static_cast<size_t>(rate * double(g.NumEdges()));
  UpdateBatch batch = gen.MakeInsertions(
      g, count, g.EdgeLabelAlphabet() > 1 ? g.EdgeLabelAlphabet() : 0);
  printf("batch: %zu insertions (%.1f%% of |E|)\n", batch.size(),
         100.0 * rate);

  auto engine = MakeEngine(engine_name, g);
  QueryId qid = engine->AddQuery(q);
  BatchReport report = engine->ProcessBatch(batch);
  const QueryReport& res = *report.Find(qid);
  printf("engine %s: incremental matches +%zu / -%zu%s\n", engine->Name(),
         res.num_positive, res.num_negative,
         res.Truncated() ? " (TRUNCATED: budget/cap hit)" : "");
  const ClockDomain clock = engine->Describe().clock;
  printf("latency %.3f ms (%s); host wall %.3f ms\n",
         report.latency_seconds * 1e3, ClockDomainName(clock),
         report.host_wall_seconds * 1e3);
  if (clock == ClockDomain::kModeledDevice) {
    printf("modeled device: update %llu + match %llu ticks; "
           "utilization %.1f%%\n",
           static_cast<unsigned long long>(res.update_stats.makespan_ticks),
           static_cast<unsigned long long>(res.match_stats.makespan_ticks),
           100.0 * res.match_stats.Utilization());
  }
  prov.seed = seed;  // the file-run path parses its own seed operand
  return FinishObs(0, metrics_json_path, trace_out_path, prov);
}
