#include "core/bfs_kernel.hpp"

#include <mutex>

#include "core/candidate_gen.hpp"

namespace bdsm {

namespace {

/// Shared, thread-safe memory-usage sampler (blocks run concurrently).
struct MemorySampler {
  std::mutex mu;
  std::vector<double> samples;

  void Sample(const DeviceAllocator& alloc) {
    std::lock_guard<std::mutex> lock(mu);
    samples.push_back(alloc.UsagePercent());
  }
};

using Partial = std::array<VertexId, kMaxQueryVertices>;

class BfsTask : public WarpTask {
 public:
  BfsTask(const WbmEnv* env, SeedEdge seed, std::vector<MatchRecord>* out,
          MemorySampler* sampler)
      : env_(env), seed_(seed), out_(out), sampler_(sampler) {
    GAMMA_CHECK_MSG(env_->qctx->coalesced_pairs == 0,
                    "BFS kernel requires a non-coalesced query context");
  }

  ~BfsTask() override {
    // Return any still-held frontier bytes to the allocator.
    ReleaseFrontier();
  }

  bool Step(WarpContext& ctx) override {
    const size_t nq = env_->qctx->q.NumVertices();
    if (!plan_inited_) {
      if (plan_idx_ >= env_->qctx->plans.size()) return false;
      plan_ = &env_->qctx->plans[plan_idx_++];
      if (!SeedViable()) return true;  // try next plan next step
      Partial p;
      p.fill(kInvalidVertex);
      p[plan_->a] = seed_.v1;
      p[plan_->b] = seed_.v2;
      if (nq == 2) {
        Emit(p);
        return true;
      }
      ReleaseFrontier();
      frontier_.assign(1, p);
      AccountFrontier(ctx);
      level_ = 2;
      pos_ = 0;
      plan_inited_ = true;
      return true;
    }

    // Expand a bounded number of partials per step.
    size_t budget = 8;
    while (budget-- > 0 && pos_ < frontier_.size()) {
      const Partial& p = frontier_[pos_++];
      GenCandidatesCost cost;
      GenerateCandidates(*env_, *plan_, p, level_, seed_.order,
                         /*relaxed=*/false, &scratch_, &cands_, &cost);
      ctx.ChargeGlobal(cost.scan_words, true);
      ctx.ChargeGlobal(cost.probe_words, false);
      ctx.ChargeCompute(cost.compute_ops);
      VertexId uq = plan_->order[level_];
      for (VertexId w : cands_) {
        Partial np = p;
        np[uq] = w;
        if (level_ + 1 == nq) {
          Emit(np);
        } else {
          next_frontier_.push_back(np);
        }
      }
    }
    if (pos_ < frontier_.size()) return true;

    // Level complete: swap frontiers, account the allocation growth.
    frontier_ = std::move(next_frontier_);
    next_frontier_.clear();
    ctx.allocator().Free(held_bytes_);
    held_bytes_ = FrontierBytes(frontier_.size());
    uint64_t spilled = ctx.allocator().Alloc(held_bytes_);
    if (spilled > 0) ctx.ChargeTransfer(2 * spilled);
    sampler_->Sample(ctx.allocator());
    ctx.ChargeGlobal(frontier_.size() * env_->qctx->q.NumVertices(), true);

    ++level_;
    pos_ = 0;
    if (frontier_.empty() || level_ >= nq) {
      ReleaseFrontierDeferred(ctx);
      plan_inited_ = false;  // next plan
    }
    return true;
  }

  uint64_t EstimateRemaining() const override {
    return (frontier_.size() - pos_) +
           (env_->qctx->plans.size() - plan_idx_) * 8;
  }

  // BFS frontiers live in device global memory shared by the whole
  // kernel; splitting them is possible but the paper's BFS baseline
  // does not balance (one more reason it loses).  Not splittable.

 private:
  bool SeedViable() const {
    if (plan_->elabel != seed_.elabel) return false;
    return env_->enc->IsCandidate(seed_.v1, plan_->a) &&
           env_->enc->IsCandidate(seed_.v2, plan_->b);
  }

  void Emit(const Partial& p) {
    MatchRecord rec;
    rec.n = static_cast<uint8_t>(env_->qctx->q.NumVertices());
    rec.positive = env_->positive;
    rec.m = p;
    out_->push_back(rec);
  }

  uint64_t FrontierBytes(size_t partials) const {
    return partials * env_->qctx->q.NumVertices() * sizeof(VertexId);
  }

  void AccountFrontier(WarpContext& ctx) {
    held_bytes_ = FrontierBytes(frontier_.size());
    uint64_t spilled = ctx.allocator().Alloc(held_bytes_);
    if (spilled > 0) ctx.ChargeTransfer(2 * spilled);
    sampler_->Sample(ctx.allocator());
  }

  void ReleaseFrontierDeferred(WarpContext& ctx) {
    ctx.allocator().Free(held_bytes_);
    held_bytes_ = 0;
    frontier_.clear();
  }

  void ReleaseFrontier() {
    // Destructor path: allocator may be gone only after Device teardown,
    // which outlives tasks; held bytes were freed in the normal path.
    frontier_.clear();
    next_frontier_.clear();
  }

  const WbmEnv* env_;
  SeedEdge seed_;
  std::vector<MatchRecord>* out_;
  MemorySampler* sampler_;

  size_t plan_idx_ = 0;
  const SeedPlan* plan_ = nullptr;
  bool plan_inited_ = false;
  uint32_t level_ = 2;
  size_t pos_ = 0;
  uint64_t held_bytes_ = 0;
  std::vector<Partial> frontier_;
  std::vector<Partial> next_frontier_;
  std::vector<Neighbor> scratch_;  ///< GPMA adjacency copy (no mirror)
  std::vector<VertexId> cands_;
};

}  // namespace

BfsResult RunBfsKernel(Device& device, const WbmEnv& env,
                       const std::vector<SeedEdge>& seeds) {
  MemorySampler sampler;
  std::vector<std::vector<MatchRecord>> slots(seeds.size());
  std::vector<std::unique_ptr<WarpTask>> tasks;
  tasks.reserve(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    tasks.push_back(
        std::make_unique<BfsTask>(&env, seeds[i], &slots[i], &sampler));
  }
  BfsResult result;
  result.stats = device.Launch(std::move(tasks));
  for (auto& s : slots) {
    result.matches.insert(result.matches.end(), s.begin(), s.end());
  }
  result.memory_samples = std::move(sampler.samples);
  return result;
}

}  // namespace bdsm
