#include "replay.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <unordered_map>

#include "core/encoder.hpp"
#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "core/wbm_kernel.hpp"
#include "gpma/gpma.hpp"
#include "gpma/gpma_kernel.hpp"
#include "gpusim/device.hpp"
#include "measure.hpp"
#include "persist/checkpoint.hpp"
#include "replica/follower.hpp"
#include "replica/transport.hpp"

namespace perfbench {

namespace {

class Tracer {
 public:
  explicit Tracer(std::vector<Span>* out)
      : out_(out), origin_(Clock::now()) {}

  int Begin(const char* name, int parent, uint32_t batch) {
    out_->push_back(Span{name, Now(), 0.0, parent, batch});
    return static_cast<int>(out_->size()) - 1;
  }
  void End(int id) { (*out_)[static_cast<size_t>(id)].end = Now(); }

 private:
  double Now() const { return Seconds(Clock::now() - origin_); }

  std::vector<Span>* out_;
  Clock::time_point origin_;
};

/// The simulator counters of one launch, summed into the totals.
void AddDeviceStats(const bdsm::DeviceStats& s,
                    std::map<std::string, double>* t) {
  (*t)["gpusim.busy_ticks"] += static_cast<double>(s.total_busy_ticks);
  (*t)["gpusim.warp_ticks"] += static_cast<double>(s.total_warp_ticks);
  (*t)["gpusim.steal_events"] += static_cast<double>(s.steal_events);
  (*t)["gpusim.global_transactions"] +=
      static_cast<double>(s.global_transactions);
  (*t)["gpusim.coalesced_words"] += static_cast<double>(s.coalesced_words);
  (*t)["gpusim.uncoalesced_words"] +=
      static_cast<double>(s.uncoalesced_words);
}

// ------------------------------------------------------------- gamma

/// What one Gamma instance owns, built the way Gamma's constructor
/// builds it.
struct QuerySlot {
  QuerySlot(const bdsm::LabeledGraph& g, const bdsm::QueryGraph& q,
            const bdsm::GammaOptions& o)
      : graph(g),
        gpma(o.gpma_segment_capacity),
        qctx(bdsm::BuildQueryContext(q, o.coalesced_search,
                                     o.aggressive_coalescing)),
        enc(q),
        device(o.device) {
    gpma.BuildFrom(graph);
    enc.BuildAll(graph);
  }

  bdsm::LabeledGraph graph;
  bdsm::Gpma gpma;
  bdsm::QueryContext qctx;
  bdsm::CandidateEncoder enc;
  bdsm::Device device;
};

/// Polarity-ordered seeds plus the order map of the dedup rule, as
/// Gamma's match phase collects them.
struct PolaritySeeds {
  std::vector<bdsm::SeedEdge> seeds;
  std::unordered_map<bdsm::Edge, uint32_t, bdsm::EdgeHash> order;
};

PolaritySeeds CollectSeeds(const bdsm::UpdateBatch& batch, bool inserts) {
  PolaritySeeds out;
  uint32_t next = 0;
  for (const bdsm::UpdateOp& op : batch) {
    if (op.is_insert != inserts) continue;
    out.seeds.push_back(bdsm::SeedEdge{op.u, op.v, op.elabel, next});
    out.order.emplace(bdsm::Edge(op.u, op.v), next);
    ++next;
  }
  return out;
}

ReplayResult ReplayGamma(const Inputs& in,
                         const std::vector<bdsm::UpdateBatch>& stream) {
  const size_t batches = stream.size();
  ReplayResult r;
  std::map<std::string, double>& t = r.totals;
  const bdsm::GammaOptions opts = BenchEngineOptions("").gamma;
  bdsm::LabeledGraph canonical = in.graph;
  std::vector<std::unique_ptr<QuerySlot>> slots;
  for (const bdsm::QueryGraph& q : in.queries) {
    slots.push_back(std::make_unique<QuerySlot>(in.graph, q, opts));
  }
  DigestSink sink(slots.size());
  r.spans.reserve(batches * (4 + 6 * slots.size()));
  Tracer tr(&r.spans);

  const Clock::time_point loop_start = Clock::now();
  for (uint32_t b = 0; b < batches; ++b) {
    uint64_t ticks = 0;
    const int root = tr.Begin("batch", -1, b);

    int s = tr.Begin("graph.sanitize", root, b);
    const bdsm::UpdateBatch batch = bdsm::SanitizeBatch(canonical, stream[b]);
    tr.End(s);

    auto match_phase = [&](bool positive) {
      for (size_t q = 0; q < slots.size(); ++q) {
        QuerySlot& slot = *slots[q];
        const int id =
            tr.Begin(positive ? "core.wbm.pos" : "core.wbm.neg", root, b);
        PolaritySeeds seeds = CollectSeeds(batch, positive);
        bdsm::WbmResult res;
        if (!seeds.seeds.empty()) {
          bdsm::WbmEnv env{&slot.gpma, &slot.qctx, &slot.enc, &seeds.order,
                           positive};
          env.result_cap = opts.result_cap;
          res = bdsm::RunWbmKernel(slot.device, env, seeds.seeds);
        }
        tr.End(id);
        if (!seeds.seeds.empty()) {
          t["gpusim.launches"] += 1;
          t["core.wbm.seeds"] += static_cast<double>(seeds.seeds.size());
          t["core.wbm.matches"] += static_cast<double>(res.matches.size());
          t["core.wbm.match_ticks"] +=
              static_cast<double>(res.stats.makespan_ticks);
          AddDeviceStats(res.stats, &t);
        }
        ticks += res.stats.makespan_ticks;
        for (const bdsm::MatchRecord& m : res.matches) {
          sink.OnMatch(static_cast<bdsm::QueryId>(q), m);
        }
      }
    };

    match_phase(/*positive=*/false);

    for (std::unique_ptr<QuerySlot>& slot : slots) {
      s = tr.Begin("gpma.apply", root, b);
      const bdsm::UpdatePlan plan = slot->gpma.ApplyBatch(batch);
      tr.End(s);
      s = tr.Begin("gpma.simulate", root, b);
      const bdsm::DeviceStats st =
          bdsm::SimulateGpmaUpdate(slot->device, plan, opts.gpma);
      tr.End(s);
      s = tr.Begin("graph.mirror", root, b);
      bdsm::ApplyBatch(&slot->graph, batch);
      tr.End(s);
      s = tr.Begin("core.encoder", root, b);
      slot->enc.ApplyBatchDirty(slot->graph, batch);
      tr.End(s);

      ticks += st.makespan_ticks;
      t["gpusim.launches"] += 1;
      t["gpma.update_ticks"] += static_cast<double>(st.makespan_ticks);
      t["gpma.applied_updates"] += static_cast<double>(batch.size());
      double moved = static_cast<double>(plan.resized_entries);
      for (const bdsm::SegmentOp& op : plan.ops) {
        if (op.window_segments > 1) {
          moved += static_cast<double>(op.window_entries);
        }
      }
      t["gpma.moved_entries"] += moved;
      AddDeviceStats(st, &t);
    }
    s = tr.Begin("graph.mirror", root, b);
    bdsm::ApplyBatch(&canonical, batch);
    tr.End(s);

    match_phase(/*positive=*/true);
    tr.End(root);

    // Encoder work, counted outside the spans: every query's encoder
    // re-encodes the batch's endpoints against the updated graph.
    std::vector<bdsm::VertexId> dirty;
    for (const bdsm::UpdateOp& op : batch) {
      dirty.push_back(op.u);
      dirty.push_back(op.v);
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    double scanned = 0.0;
    for (bdsm::VertexId v : dirty) {
      scanned += static_cast<double>(canonical.Degree(v));
    }
    t["core.encoder.dirty_vertices"] +=
        static_cast<double>(dirty.size() * slots.size());
    t["core.encoder.adjacency_scanned"] +=
        scanned * static_cast<double>(slots.size());

    r.device_ticks.push_back(ticks);
    r.digests.push_back(sink.Take());
  }
  r.loop_seconds = Seconds(Clock::now() - loop_start);
  return r;
}

// -------------------------------------------------------- replicated

ReplayResult ReplayReplicated(const Workload& w, const Inputs& in,
                              const std::vector<bdsm::UpdateBatch>& stream,
                              const std::string& work_dir) {
  const size_t batches = stream.size();
  const bdsm::EngineSpec spec = bdsm::EngineSpec::Parse(w.engine);
  const std::string* followers = spec.FindOption("followers");
  if (spec.name != "replicated" || spec.children.size() != 1 ||
      followers == nullptr || *followers != "1" || spec.options.size() != 1) {
    std::cerr << "perfbench: no replay for engine " << w.engine << "\n";
    std::exit(2);
  }
  ReplayResult r;
  std::map<std::string, double>& t = r.totals;
  ScratchDir dir(work_dir);
  bdsm::EngineOptions opts = BenchEngineOptions(dir.path());
  opts.replica.followers = 1;

  std::unique_ptr<bdsm::Engine> leader =
      bdsm::MakeEngine(spec.children[0], in.graph, opts);
  bdsm::persist::CheckpointPolicy policy;
  policy.every_batches = opts.replica.checkpoint_every;
  policy.prune = true;
  bdsm::persist::WalOptions wal;
  wal.batches_per_segment = opts.replica.segment_batches;
  auto ckpt = std::make_unique<bdsm::persist::Checkpointer>(
      dir.path(), policy, wal, opts.gamma.device);
  const bdsm::replica::TransportModel transport(opts.replica);
  auto follower = std::make_unique<bdsm::replica::Follower>(
      0, leader->Describe().canonical_spec, in.graph, opts, &transport,
      dir.path());
  for (const bdsm::QueryGraph& q : in.queries) {
    leader->AddQuery(q);
    follower->AddQuery(q);
  }

  DigestSink sink(in.queries.size());
  bdsm::BatchOptions bopts;
  bopts.sink = &sink;
  bopts.materialize = false;
  r.spans.reserve(batches * 6);
  Tracer tr(&r.spans);
  bool shipping = false;
  uint64_t max_lag = 0;

  const Clock::time_point loop_start = Clock::now();
  for (uint32_t b = 0; b < batches; ++b) {
    const int root = tr.Begin("batch", -1, b);

    int s = tr.Begin("graph.sanitize", root, b);
    const bdsm::UpdateBatch batch =
        bdsm::SanitizeBatch(leader->host_graph(), stream[b]);
    tr.End(s);

    s = tr.Begin("serve.batch", root, b);
    const bdsm::BatchReport rep = leader->ProcessBatch(batch, bopts);
    tr.End(s);

    if (!shipping) {
      s = tr.Begin("persist.snapshot", root, b);
      ckpt->Begin(*leader, /*seed=*/0, /*scenario=*/"");
      tr.End(s);
      t["persist.snapshots"] += 1;
      shipping = true;
    }
    const size_t snapshots_before = ckpt->snapshots_taken();
    s = tr.Begin("persist.wal", root, b);
    ckpt->OnBatchApplied(*leader, batch, rep);
    tr.End(s);
    if (ckpt->snapshots_taken() > snapshots_before) {
      r.spans[static_cast<size_t>(s)].name = "persist.snapshot";
      t["persist.snapshots"] += 1;
    } else {
      t["persist.wal_batches"] += 1;
    }
    t["persist.wal_bytes"] += static_cast<double>(
        bdsm::replica::TransportModel::BatchWireBytes(batch));

    const uint64_t lag = ckpt->next_batch() - follower->next_batch();
    max_lag = std::max(max_lag, lag);
    if (lag >= std::max<size_t>(opts.replica.poll_every, 1)) {
      const double shipped_before = follower->transport_seconds();
      s = tr.Begin("replica.apply", root, b);
      follower->CatchUp();
      tr.End(s);
      t["replica.transport_s"] +=
          follower->transport_seconds() - shipped_before;
    }
    tr.End(root);

    t["serve.critical_path_s"] += rep.critical_path_seconds;
    t["gpma.update_ticks"] +=
        static_cast<double>(rep.update_stats.makespan_ticks);
    t["core.wbm.match_ticks"] +=
        static_cast<double>(rep.match_stats.makespan_ticks);
    AddDeviceStats(rep.update_stats, &t);
    AddDeviceStats(rep.match_stats, &t);
    r.device_ticks.push_back(rep.update_stats.makespan_ticks +
                             rep.match_stats.makespan_ticks);
    r.digests.push_back(sink.Take());
  }
  r.loop_seconds = Seconds(Clock::now() - loop_start);
  t["replica.lag_batches_max"] = static_cast<double>(max_lag);
  t["replica.resyncs"] = static_cast<double>(follower->resyncs());
  // The group's teardown order: WAL closed before the follower goes.
  ckpt.reset();
  follower.reset();
  leader.reset();
  return r;
}

}  // namespace

ReplayResult Replay(const Workload& w, const Inputs& in, size_t stream,
                    const std::string& work_dir) {
  if (w.engine == "gamma") return ReplayGamma(in, in.streams[stream]);
  return ReplayReplicated(w, in, in.streams[stream], work_dir);
}

bool SelfTimes(const std::vector<Span>& spans,
               std::map<std::string, double>* self_seconds) {
  constexpr double kSlack = 1e-9;
  std::vector<double> child_cover(spans.size(), 0.0);
  std::vector<double> last_child_end(spans.size(), -1.0);
  bool ok = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end + kSlack < s.start) ok = false;
    if (s.parent < 0) continue;
    const size_t p = static_cast<size_t>(s.parent);
    const Span& parent = spans[p];
    if (s.start + kSlack < parent.start || s.end > parent.end + kSlack ||
        s.start + kSlack < last_child_end[p] || s.batch != parent.batch) {
      ok = false;
    }
    last_child_end[p] = s.end;
    child_cover[p] += s.end - s.start;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = (s.end - s.start) - child_cover[i];
    (*self_seconds)[s.parent < 0 ? "other" : s.name] += self;
  }
  return ok;
}

}  // namespace perfbench
