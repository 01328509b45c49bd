#include "persist/checkpoint.hpp"

#include <cinttypes>
#include <filesystem>
#include <set>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/wal_reader.hpp"
#include "util/logging.hpp"

namespace bdsm::persist {

namespace fs = std::filesystem;

namespace {

std::string SnapshotFileName(uint64_t generation, uint64_t batch) {
  char buf[48];
  snprintf(buf, sizeof(buf), "snapshot-g%03" PRIu64 "-%010" PRIu64 ".snap",
           generation, batch);
  return buf;
}

/// Is `name` an artifact this layer owns?  (The sweep in Begin and the
/// pruner must never unlink a user's unrelated file that happens to
/// live in the directory.)
bool IsCheckpointArtifact(const std::string& name) {
  auto has_prefix_suffix = [&](const char* prefix, const char* suffix) {
    std::string_view n(name), p(prefix), s(suffix);
    return n.size() >= p.size() + s.size() && n.substr(0, p.size()) == p &&
           n.substr(n.size() - s.size()) == s;
  };
  return name == kManifestFileName ||
         name == std::string(kManifestFileName) + ".tmp" ||
         has_prefix_suffix("snapshot-", ".snap") ||
         has_prefix_suffix("wal-", ".trc");
}

/// Folds one applied batch's report into the running aggregates (the
/// same arithmetic on the live path and the restore-replay path, so
/// restored totals match what an uninterrupted run accrues).
void AccumulateTotals(SnapshotTotals* totals, const UpdateBatch& batch,
                      const BatchReport& report) {
  totals->batches += 1;
  totals->ops += batch.size();
  size_t truncated = 0;
  for (const QueryReport& qr : report.queries) {
    totals->positive_matches += qr.num_positive;
    totals->negative_matches += qr.num_negative;
    if (qr.Truncated()) ++truncated;
  }
  totals->truncated_queries += truncated;
  if (truncated > 0) totals->truncated_batches += 1;
  totals->update_makespan_ticks += report.update_stats.makespan_ticks;
  totals->match_makespan_ticks += report.match_stats.makespan_ticks;
  totals->latency_seconds += report.latency_seconds;
}

}  // namespace

Checkpointer::Checkpointer(std::string dir, CheckpointPolicy policy,
                           WalOptions wal_options, const DeviceConfig&)
    : dir_(std::move(dir)), policy_(policy), wal_options_(wal_options) {}

Checkpointer::~Checkpointer() {
  try {
    Finish();
  } catch (const PersistError& e) {
    // A destructor must not throw; a failing final manifest write
    // leaves the previous (consistent) checkpoint in place.
    GAMMA_LOG_WARN("checkpoint finish failed: %s", e.what());
  }
}

void Checkpointer::Begin(const Engine& engine, uint64_t seed,
                         std::string scenario, uint64_t stream_offset,
                         const SnapshotTotals& totals) {
  Finish();
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw PersistError("cannot create checkpoint directory " + dir_ +
                       ": " + ec.message());
  }
  // A previous checkpoint in this directory stays fully restorable
  // until the new manifest lands: the new generation's artifacts use
  // distinct names, so nothing the live manifest references is
  // touched before the atomic switch below.
  uint64_t generation = 1;
  try {
    generation = ReadManifest(dir_).generation + 1;
  } catch (const PersistError&) {
    // No (readable) previous checkpoint — generation 1, and whatever
    // artifacts litter the directory are unreferenced garbage that
    // the post-switch sweep removes.
  }

  seed_ = seed;
  scenario_ = std::move(scenario);
  next_batch_ = stream_offset;
  totals_ = totals;
  ops_since_snapshot_ = 0;
  batches_since_snapshot_ = 0;
  snapshots_taken_ = 0;

  manifest_ = Manifest{};
  manifest_.generation = generation;
  manifest_.engine_spec = engine.Describe().canonical_spec;
  manifest_.scenario = scenario_;
  manifest_.seed = seed_;

  // Base snapshot first, then the WAL, then the manifest referencing
  // both: a crash at any point leaves either the previous checkpoint
  // (manifest untouched so far) or the complete new one.
  Snapshot snap =
      CaptureSnapshot(engine, seed_, scenario_, next_batch_, totals_);
  manifest_.snapshot_file = SnapshotFileName(generation, next_batch_);
  manifest_.snapshot_batch = next_batch_;
  WriteSnapshot(dir_ + "/" + manifest_.snapshot_file, snap);
  ++snapshots_taken_;

  wal_ = std::make_unique<WalWriter>(
      dir_, workload::TraceMeta{seed_, scenario_}, wal_options_,
      next_batch_, generation);
  if (!wal_->ok()) {
    wal_.reset();
    throw PersistError("cannot open WAL in " + dir_);
  }
  manifest_.wal = wal_->segments();
  WriteManifest(dir_, manifest_);  // the atomic old -> new switch

  // Only now is the old checkpoint (and any stray garbage) dead;
  // sweep everything the live manifest does not reference.  Unlink
  // failures are harmless — the next Begin retries.
  std::set<std::string> live;
  live.insert(kManifestFileName);
  live.insert(manifest_.snapshot_file);
  for (const WalSegment& seg : manifest_.wal) live.insert(seg.file);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    std::string name = entry.path().filename().string();
    if (IsCheckpointArtifact(name) && live.count(name) == 0) {
      fs::remove(entry.path(), ec);
    }
  }
}

void Checkpointer::OnBatchApplied(const Engine& engine,
                                  const UpdateBatch& batch,
                                  const BatchReport& report) {
  if (wal_ == nullptr) {
    throw PersistError("Checkpointer::OnBatchApplied before Begin");
  }
  size_t segments_before = wal_->segments().size();
#if BDSM_OBS
  // Disabled cost stays one relaxed load: no clock read unless on.
  const double wal_start =
      obs::Enabled() ? obs::TraceRecorder::Instance().HostNowSeconds() : 0.0;
#endif
  wal_->Append(batch);
  if (!wal_->ok()) {
    throw PersistError("WAL append failed in " + dir_ +
                       " (durability contract broken)");
  }
#if BDSM_OBS
  if (obs::Enabled()) {
    BDSM_OBS_COUNT("persist.wal.batches", 1);
    BDSM_OBS_COUNT("persist.wal.ops", batch.size());
    obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
    const double wal_dur = tracer.HostNowSeconds() - wal_start;
    BDSM_OBS_COUNT_US("persist.wal.append_us", wal_dur);
    if (tracer.enabled()) {
      obs::TraceSpan span;
      span.name = "persist.wal.append";
      span.domain = obs::Domain::kHostWall;
      span.start_s = wal_start;
      span.dur_s = wal_dur;
      span.batch = next_batch_;
      tracer.Record(std::move(span));
    }
  }
#endif
  // A size rotation opened a fresh segment; the manifest must name it
  // or a restore between now and the next snapshot loses the tail.
  if (wal_->segments().size() != segments_before) {
    manifest_.wal = wal_->segments();
    WriteManifest(dir_, manifest_);
  }
  ++next_batch_;

  AccumulateTotals(&totals_, batch, report);

  ++batches_since_snapshot_;
  ops_since_snapshot_ += batch.size();
  const bool batches_due = policy_.every_batches > 0 &&
                           batches_since_snapshot_ >= policy_.every_batches;
  const bool updates_due = policy_.every_updates > 0 &&
                           ops_since_snapshot_ >= policy_.every_updates;
  if (batches_due || updates_due) TakeSnapshot(engine);
}

void Checkpointer::TakeSnapshot(const Engine& engine) {
#if BDSM_OBS
  const double snap_start =
      obs::Enabled() ? obs::TraceRecorder::Instance().HostNowSeconds() : 0.0;
#endif
  Snapshot snap =
      CaptureSnapshot(engine, seed_, scenario_, next_batch_, totals_);
  std::string file = SnapshotFileName(manifest_.generation, next_batch_);
  WriteSnapshot(dir_ + "/" + file, snap);
  ++snapshots_taken_;
#if BDSM_OBS
  if (obs::Enabled()) {
    BDSM_OBS_COUNT("persist.checkpoint.snapshots", 1);
    obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
    const double snap_dur = tracer.HostNowSeconds() - snap_start;
    BDSM_OBS_COUNT_US("persist.checkpoint.snapshot_us", snap_dur);
    if (tracer.enabled()) {
      obs::TraceSpan span;
      span.name = "persist.checkpoint";
      span.domain = obs::Domain::kHostWall;
      span.start_s = snap_start;
      span.dur_s = snap_dur;
      span.batch = next_batch_;
      tracer.Record(std::move(span));
    }
  }
#endif
  // Rotate so the tail is segment-aligned: every WAL segment in the
  // new manifest starts at or after the snapshot batch.
  wal_->Rotate();
  if (!wal_->ok()) {
    throw PersistError("WAL rotation failed in " + dir_);
  }

  std::string old_snapshot = manifest_.snapshot_file;
  std::vector<WalSegment> old_segments = manifest_.wal;
  manifest_.snapshot_file = file;
  manifest_.snapshot_batch = next_batch_;
  manifest_.wal.clear();
  for (const WalSegment& seg : wal_->segments()) {
    if (seg.first_batch >= manifest_.snapshot_batch) {
      manifest_.wal.push_back(seg);
    }
  }
  WriteManifest(dir_, manifest_);
  batches_since_snapshot_ = 0;
  ops_since_snapshot_ = 0;

  if (policy_.prune) {
    // Everything the new manifest no longer references is garbage;
    // unlink failures are harmless (the sweep in Begin retries).
    std::set<std::string> live;
    live.insert(manifest_.snapshot_file);
    for (const WalSegment& seg : manifest_.wal) live.insert(seg.file);
    std::error_code ec;
    if (live.count(old_snapshot) == 0) {
      fs::remove(dir_ + "/" + old_snapshot, ec);
    }
    for (const WalSegment& seg : old_segments) {
      if (live.count(seg.file) == 0) {
        fs::remove(dir_ + "/" + seg.file, ec);
      }
    }
  }
}

void Checkpointer::Finish() {
  if (wal_ == nullptr) return;
  wal_->Close();
  bool wal_ok = wal_->ok();
  wal_.reset();
  if (!wal_ok) {
    throw PersistError("WAL close failed in " + dir_);
  }
}

RestoredEngine RestoreEngine(const std::string& checkpoint_dir,
                             const EngineOptions& options) {
  RestoredEngine out;
  out.manifest = ReadManifest(checkpoint_dir);
  Snapshot snap =
      ReadSnapshot(checkpoint_dir + "/" + out.manifest.snapshot_file);
  if (snap.stream_offset != out.manifest.snapshot_batch) {
    throw PersistError(
        "checkpoint " + checkpoint_dir + " is inconsistent: manifest says "
        "the snapshot covers batch " +
        std::to_string(out.manifest.snapshot_batch) +
        ", the snapshot says " + std::to_string(snap.stream_offset));
  }
  out.engine = BuildEngineFromSnapshot(snap, options);
  out.totals = snap.totals;
  out.next_batch = snap.stream_offset;

  // One Poll() of the shared incremental reader IS the tail replay:
  // restore and replication followers read the log through the same
  // code path (persist/wal_reader.hpp).  The manifest was just read,
  // so the cursor is covered by construction — a gap here would mean
  // the directory changed under us mid-restore.
  WalReader reader(checkpoint_dir, snap.stream_offset);
  WalReader::PollResult tail = reader.Poll();
  if (tail.gap || tail.no_manifest) {
    throw PersistError("checkpoint " + checkpoint_dir +
                       " changed during restore (WAL tail no longer "
                       "covers the snapshot point)");
  }
  out.wal_tail_torn = tail.torn;
  for (const UpdateBatch& batch : tail.batches) {
    BatchReport report = out.engine->ProcessBatch(batch);
    AccumulateTotals(&out.totals, batch, report);
    out.tail_ops += batch.size();
    out.tail_latency_seconds += report.latency_seconds;
    ++out.next_batch;
    ++out.wal_batches_replayed;
  }
  return out;
}

}  // namespace bdsm::persist
