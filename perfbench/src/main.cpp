// perfbench: the repository benchmark's load generator.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR] [--reference FILE]
//
// --trace 0 runs the untraced closed loop and reports the end-to-end
// metrics; --trace 1 alternates untraced passes with traced layer
// replays (replay.hpp) and reports the per-layer metrics.  Either way
// every pass must repeat the first round's digests and device ticks,
// the first round is checked against the CSM reference engine, and the
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// README.md in this directory has the workloads and the metric
// dictionary.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "obs/provenance.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr uint64_t kDefaultSeed = 2024;
/// Setups timed per run at least; setup_s is their median.
constexpr size_t kMinSetups = 21;
/// Untraced rounds per run at least, so every batch has several timings.
constexpr size_t kMinRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string reference;  ///< fingerprint file; "" skips the check
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--work-dir DIR] [--reference FILE]\n"
            << "workloads:";
  for (const Workload& w : Workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') Usage("bad --seed " + val);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0)) {
        Usage("bad --seconds " + val);
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") Usage("bad --trace " + val);
      a.trace = val == "1" ? 1 : 0;
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--reference") {
      a.reference = val;
    } else {
      Usage("unknown argument " + key);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

std::string Hex(uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

/// Checks the inputs against the stored fingerprint for (workload,
/// seed), when the reference file has one.  Lines: `workload seed hex`.
void CheckFingerprint(const Args& a, uint64_t fingerprint) {
  if (a.reference.empty()) return;
  std::ifstream f(a.reference);
  if (!f) {
    std::cerr << "perfbench: cannot read " << a.reference << "\n";
    std::exit(2);
  }
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream in(line);
    std::string name, hex;
    uint64_t seed = 0;
    if (line.empty() || line[0] == '#') continue;
    if (!(in >> name >> seed >> hex)) continue;
    if (name != a.workload || seed != a.seed) continue;
    if (hex != Hex(fingerprint)) {
      std::cerr << "perfbench: " << a.workload << " seed " << a.seed
                << ": input fingerprint " << Hex(fingerprint)
                << " != stored " << hex
                << "; the generated inputs changed\n";
      std::exit(3);
    }
    std::cout << "fingerprint matches stored value\n";
    return;
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: with n = 200 and p = 95 it is the 190th
/// value, so 10 samples lie beyond it.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Exits nonzero, naming the batch and query, on a digest mismatch.
void CheckDigests(const Args& a, size_t stream, const char* what,
                  const std::vector<BatchDigest>& got,
                  const std::vector<BatchDigest>& want) {
  size_t query = 0;
  const long bad = FirstMismatch(got, want, &query);
  if (bad < 0) return;
  std::cerr << "perfbench: INCORRECT: workload " << a.workload << " seed "
            << a.seed << " stream " << stream << " batch " << bad
            << " query " << query << ": " << what
            << " digest differs from the tf reference\n";
  std::exit(1);
}

/// End-to-end metrics from the untraced rounds.  Every batch is timed
/// once per round, each time on a fresh engine; its latency is the
/// fastest of those timings, which drops slowdowns that other tenants
/// of the host cause in some rounds but not in all.
std::vector<Metric> EndToEnd(
    const std::vector<std::vector<PassResult>>& rounds,
    const std::vector<double>& setups, double peak_rss_mb,
    double tick_seconds) {
  std::vector<double> batch_ms, device_ms;
  double ops = 0.0, loop_s = 0.0;
  for (size_t k = 0; k < rounds.front().size(); ++k) {
    const PassResult& first = rounds.front()[k];
    for (size_t i = 0; i < first.batch_seconds.size(); ++i) {
      double best = first.batch_seconds[i];
      for (const std::vector<PassResult>& round : rounds) {
        best = std::min(best, round[k].batch_seconds[i]);
      }
      batch_ms.push_back(best * 1e3);
      loop_s += best;
    }
    ops += static_cast<double>(first.ops);
    // Device makespans are a pure function of the inputs.
    for (uint64_t t : first.device_ticks) {
      device_ms.push_back(static_cast<double>(t) * tick_seconds * 1e3);
    }
  }
  return {
      {"batch_p50_ms", Median(batch_ms), "ms"},
      {"batch_p95_ms", Percentile(batch_ms, 95), "ms"},
      {"updates_per_s", ops / loop_s, "1/s"},
      {"device_p50_ms", Median(device_ms), "ms"},
      {"device_p95_ms", Percentile(device_ms, 95), "ms"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

/// The per-layer metric dictionary (README.md), from the traced
/// replays and the untraced passes they were paired with.
std::vector<Metric> PerLayer(const std::vector<ReplayResult>& replays,
                             const std::vector<PassResult>& untraced,
                             double tick_seconds, bool valid) {
  bool nested = true;
  std::map<std::string, double> t, self;
  double batches = 0.0, traced_s = 0.0, untraced_s = 0.0, root_s = 0.0;
  for (const ReplayResult& r : replays) {
    for (const auto& [k, v] : r.totals) {
      t[k] = k == "replica.lag_batches_max" ? std::max(t[k], v) : t[k] + v;
    }
    batches += static_cast<double>(r.device_ticks.size());
    traced_s += r.loop_seconds;
    for (const Span& s : r.spans) {
      if (s.parent < 0) root_s += s.end - s.start;
    }
  }
  for (const ReplayResult& r : replays) {
    if (!SelfTimes(r.spans, &self)) nested = false;
  }
  for (const PassResult& p : untraced) untraced_s += p.loop_seconds;
  const double n = static_cast<double>(replays.size());
  auto per_batch_ms = [&](const char* span) {
    return self[span] * 1e3 / batches;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  double device_s = 0.0;
  for (const ReplayResult& r : replays) {
    for (uint64_t x : r.device_ticks) {
      device_s += static_cast<double>(x) * tick_seconds;
    }
  }
  const double sim_host_s =
      self["core.wbm.neg"] + self["core.wbm.pos"] + self["gpma.simulate"];
  const double serve_ms = per_batch_ms("serve.batch");
  const double cp_ms = t["serve.critical_path_s"] * 1e3 / batches;
  double layer_sum_s = 0.0;
  for (const auto& [k, v] : self) layer_sum_s += v;

  return {
      {"graph.sanitize_ms", per_batch_ms("graph.sanitize"), "ms"},
      {"graph.mirror_ms", per_batch_ms("graph.mirror"), "ms"},
      {"gpma.apply_ms", per_batch_ms("gpma.apply"), "ms"},
      {"gpma.simulate_ms", per_batch_ms("gpma.simulate"), "ms"},
      {"gpma.update_ticks", t["gpma.update_ticks"] / batches, "ticks"},
      {"gpma.moved_entries_per_update",
       ratio(t["gpma.moved_entries"], t["gpma.applied_updates"]), "count"},
      {"core.encoder.ms", per_batch_ms("core.encoder"), "ms"},
      {"core.encoder.dirty_vertices",
       t["core.encoder.dirty_vertices"] / batches, "count"},
      {"core.encoder.adjacency_scanned",
       t["core.encoder.adjacency_scanned"] / batches, "count"},
      {"core.wbm.neg_ms", per_batch_ms("core.wbm.neg"), "ms"},
      {"core.wbm.pos_ms", per_batch_ms("core.wbm.pos"), "ms"},
      {"core.wbm.match_ticks", t["core.wbm.match_ticks"] / batches, "ticks"},
      {"core.wbm.seeds", t["core.wbm.seeds"] / batches, "count"},
      {"core.wbm.matches_per_task",
       ratio(t["core.wbm.matches"], t["core.wbm.seeds"]), "count"},
      {"gpusim.utilization",
       ratio(t["gpusim.busy_ticks"], t["gpusim.warp_ticks"]), "ratio"},
      {"gpusim.steal_events", t["gpusim.steal_events"] / batches, "count"},
      {"gpusim.uncoalesced_frac",
       ratio(t["gpusim.uncoalesced_words"],
             t["gpusim.uncoalesced_words"] + t["gpusim.coalesced_words"]),
       "ratio"},
      {"gpusim.global_transactions",
       t["gpusim.global_transactions"] / batches, "count"},
      {"gpusim.launches", t["gpusim.launches"] / batches, "count"},
      {"gpusim.host_s_per_device_s", ratio(sim_host_s, device_s), "ratio"},
      {"serve.batch_ms", serve_ms, "ms"},
      {"serve.critical_path_ms", cp_ms, "ms"},
      {"serve.overhead_ms", serve_ms > 0 ? serve_ms - cp_ms : 0.0, "ms"},
      {"persist.wal_ms",
       ratio(self["persist.wal"] * 1e3, t["persist.wal_batches"]), "ms"},
      {"persist.snapshot_ms",
       ratio(self["persist.snapshot"] * 1e3, t["persist.snapshots"]), "ms"},
      {"persist.wal_bytes", t["persist.wal_bytes"] / batches, "bytes"},
      {"persist.snapshots", t["persist.snapshots"] / n, "count"},
      {"replica.apply_ms", per_batch_ms("replica.apply"), "ms"},
      {"replica.transport_ms", t["replica.transport_s"] * 1e3 / batches,
       "ms"},
      {"replica.lag_batches_max", t["replica.lag_batches_max"], "count"},
      {"replica.resyncs", t["replica.resyncs"] / n, "count"},
      {"trace.batch_ms", root_s * 1e3 / batches, "ms"},
      {"trace.other_ms", per_batch_ms("other"), "ms"},
      {"trace.overhead_frac", ratio(traced_s - untraced_s, untraced_s),
       "ratio"},
      {"trace.self_sum_error_ms",
       std::abs(layer_sum_s - root_s) * 1e3 / batches, "ms"},
      {"trace.valid", valid && nested ? 1.0 : 0.0, "bool"},
  };
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) Usage("unknown workload " + a.workload);
  std::filesystem::create_directories(a.work_dir);

  const Inputs in = MakeInputs(*w, a.seed);
  // Before any engine exists, so no thread has been started yet.
  const double peak_rss_mb =
      a.trace ? 0.0 : MeasurePeakRss(*w, in, a.work_dir);
  const double tick_seconds =
      BenchEngineOptions("").gamma.device.TickSeconds();

  bdsm::obs::RunProvenance prov;
  prov.tool = "perfbench";
  prov.scenario = w->name;
  {
    const ScratchDir dir(a.work_dir);
    prov.engine = bdsm::MakeEngine(w->engine, in.graph,
                                   BenchEngineOptions(dir.path()))
                      ->Describe()
                      .canonical_spec;
  }
  prov.seed = a.seed;
  // RunProvenance plus what it does not carry: build type, host size
  // and the input fingerprint.
  std::string provenance = bdsm::obs::ProvenanceJson(prov);
  provenance.pop_back();  // the closing brace
  provenance += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"nproc\": " +
                std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                ", \"fingerprint\": \"" + Hex(in.fingerprint) +
                "\", \"trace\": " + std::to_string(a.trace) + "}";
  std::printf("workload %s: engine %s\n", w->name.c_str(),
              w->engine.c_str());
  std::printf("provenance %s\n", provenance.c_str());
  std::printf("inputs vertices %zu edges %zu (max drift %zu) queries %zu "
              "streams %zu x %zu batches fingerprint %s\n",
              in.graph.NumVertices(), in.edges_start, in.edges_drift,
              in.queries.size(), in.streams.size(), kBatchesPerStream,
              Hex(in.fingerprint).c_str());
  std::fflush(stdout);
  CheckFingerprint(a, in.fingerprint);

  // A round runs every stream once, each on a freshly set-up engine.
  // Rounds repeat while the next one is expected to end before the
  // deadline, and there are at least kMinRounds untraced ones.
  const Clock::time_point start = Clock::now();
  const double budget_s = a.seconds;
  std::vector<std::vector<PassResult>> rounds;
  std::vector<PassResult> paired;  // the untraced pass of each replay
  std::vector<ReplayResult> replays;
  bool replay_valid = true;
  double last_round_s = 0.0;
  while (rounds.size() < (a.trace ? 1 : kMinRounds) ||
         Seconds(Clock::now() - start) + last_round_s <= budget_s) {
    const Clock::time_point round_start = Clock::now();
    std::vector<PassResult>& round = rounds.emplace_back();
    for (size_t k = 0; k < in.streams.size(); ++k) {
      round.push_back(RunPass(*w, in, k, a.work_dir));
      const PassResult& p = round.back();
      std::vector<double> ms;
      for (double x : p.batch_seconds) ms.push_back(x * 1e3);
      std::printf("round %zu stream %zu: loop %.3f s, median batch %.3f ms, "
                  "setup %.4f s\n",
                  rounds.size(), k, p.loop_seconds, Median(ms),
                  p.setup_seconds);
      std::fflush(stdout);
      if (p.device_ticks != rounds.front()[k].device_ticks ||
          p.digests != rounds.front()[k].digests) {
        std::cerr << "perfbench: passes over the same stream disagree on "
                     "device ticks or digests\n";
        return 1;
      }
      if (a.trace) {
        replays.push_back(Replay(*w, in, k, a.work_dir));
        paired.push_back(p);
        const ReplayResult& r = replays.back();
        const auto resyncs = r.totals.find("replica.resyncs");
        if (r.device_ticks != p.device_ticks || r.digests != p.digests ||
            (resyncs != r.totals.end() ? resyncs->second : 0.0) !=
                static_cast<double>(p.replica_resyncs)) {
          std::cerr << "perfbench: traced replay diverged from the engine; "
                       "per-layer numbers are invalid\n";
          replay_valid = false;
        }
      }
    }
    last_round_s = Seconds(Clock::now() - round_start);
  }
  for (size_t k = 0; k < in.streams.size(); ++k) {
    CheckDigests(a, k, "untraced", rounds.front()[k].digests,
                 ReferenceDigests(*w, in, k, a.work_dir));
  }

  std::vector<double> setups;
  size_t attempted = 0, failed = 0, timed = 0;
  for (const std::vector<PassResult>& round : rounds) {
    for (const PassResult& p : round) {
      setups.push_back(p.setup_seconds);
      attempted += p.ops;
      failed += p.failed_ops;
      timed += p.batch_seconds.size();
    }
  }

  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = PerLayer(replays, paired, tick_seconds, replay_valid);
    if (!replays.empty()) {
      const std::string path = a.work_dir + "/spans-" + w->name + "-" +
                               std::to_string(a.seed) + ".jsonl";
      std::ofstream out(path);
      out << "{\"provenance\": " << provenance << "}\n";
      const std::vector<Span>& spans = replays.back().spans;
      for (size_t i = 0; i < spans.size(); ++i) {
        out << "{\"id\": " << i << ", \"name\": \"" << spans[i].name
            << "\", \"batch\": " << spans[i].batch
            << ", \"parent\": " << spans[i].parent
            << ", \"start_s\": " << spans[i].start
            << ", \"end_s\": " << spans[i].end << "}\n";
      }
      std::printf("spans of the last replay written to %s\n", path.c_str());
    }
  } else {
    while (setups.size() < kMinSetups) {
      setups.push_back(SetUpEngine(w->engine, in, a.work_dir).setup_seconds);
    }
    metrics = EndToEnd(rounds, setups, peak_rss_mb, tick_seconds);
  }
  std::printf("samples: %zu batches timed in %zu rounds of %zu streams x "
              "%zu batches, %zu setups, failed_ops_frac %.6g\n",
              timed, rounds.size(), in.streams.size(), kBatchesPerStream,
              setups.size(),
              attempted ? static_cast<double>(failed) / attempted : 0.0);
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
