#include "measure.hpp"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace perfbench {

namespace fs = std::filesystem;

ScratchDir::ScratchDir(const std::string& work_dir) {
  static std::atomic<uint64_t> counter{0};
  path_ = (fs::path(work_dir) /
           ("ship-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1))))
              .string();
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

bdsm::EngineOptions BenchEngineOptions(const std::string& shipping_dir) {
  bdsm::EngineOptions opts;
  opts.replica.dir = shipping_dir;
  return opts;
}

EngineUnderTest SetUpEngine(const std::string& spec, const Inputs& in,
                            const std::string& work_dir) {
  EngineUnderTest eut;
  eut.dir = std::make_unique<ScratchDir>(work_dir);
  const bdsm::EngineOptions opts = BenchEngineOptions(eut.dir->path());
  const Clock::time_point t0 = Clock::now();
  eut.engine = bdsm::MakeEngine(spec, in.graph, opts);
  for (const bdsm::QueryGraph& q : in.queries) eut.engine->AddQuery(q);
  eut.setup_seconds = Seconds(Clock::now() - t0);
  return eut;
}

namespace {

double StatusKiB(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string k(key);
  while (std::getline(f, line)) {
    if (line.compare(0, k.size(), k) == 0) {
      return std::strtod(line.c_str() + k.size(), nullptr);
    }
  }
  return 0.0;
}

/// Set-up plus one untimed pass over the first stream; the median over
/// batches of each batch's peak RSS minus the RSS before set-up, in MiB.
double PeakRssInThisProcess(const Workload& w, const Inputs& in,
                            const std::string& work_dir) {
  ::malloc_trim(0);
  const double base_kib = StatusKiB("VmRSS:");
  EngineUnderTest eut = SetUpEngine(w.engine, in, work_dir);
  bdsm::BatchOptions opts;
  opts.materialize = false;
  std::vector<double> peaks;
  for (const bdsm::UpdateBatch& batch : in.streams.front()) {
    std::ofstream("/proc/self/clear_refs") << "5";  // resets VmHWM
    eut.engine->ProcessBatch(batch, opts);
    peaks.push_back((StatusKiB("VmHWM:") - base_kib) / 1024.0);
  }
  std::sort(peaks.begin(), peaks.end());
  const size_t n = peaks.size();
  return n % 2 ? peaks[n / 2] : 0.5 * (peaks[n / 2 - 1] + peaks[n / 2]);
}

}  // namespace

double MeasurePeakRss(const Workload& w, const Inputs& in,
                      const std::string& work_dir) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    std::exit(1);
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::close(fds[0]);
    // One arena, and blocks above 128 KiB always mapped and unmapped,
    // so freed memory leaves the resident set instead of lingering in
    // per-thread arenas: the default allocator keeps what the
    // simulator's launch threads freed, and the same stream's peak then
    // ranges over 10-42 MiB from pass to pass.
    ::mallopt(M_ARENA_MAX, 1);
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const double mib = PeakRssInThisProcess(w, in, work_dir);
    const bool ok = ::write(fds[1], &mib, sizeof mib) ==
                    static_cast<ssize_t>(sizeof mib);
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  double mib = 0.0;
  const bool got = ::read(fds[0], &mib, sizeof mib) ==
                   static_cast<ssize_t>(sizeof mib);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "perfbench: memory measurement process failed\n";
    std::exit(1);
  }
  return mib;
}

PassResult RunPass(const Workload& w, const Inputs& in, size_t stream,
                   const std::string& work_dir) {
  const std::vector<bdsm::UpdateBatch>& batches = in.streams[stream];
  PassResult r;
  {
    EngineUnderTest eut = SetUpEngine(w.engine, in, work_dir);
    r.setup_seconds = eut.setup_seconds;
    DigestSink sink(in.queries.size());
    bdsm::BatchOptions opts;
    opts.sink = &sink;
    opts.materialize = false;
    r.batch_seconds.reserve(batches.size());
    const Clock::time_point loop_start = Clock::now();
    for (const bdsm::UpdateBatch& batch : batches) {
      const Clock::time_point t0 = Clock::now();
      const bdsm::BatchReport rep = eut.engine->ProcessBatch(batch, opts);
      const Clock::time_point t1 = Clock::now();
      r.batch_seconds.push_back(Seconds(t1 - t0));
      r.device_ticks.push_back(rep.update_stats.makespan_ticks +
                               rep.match_stats.makespan_ticks);
      r.digests.push_back(sink.Take());
      r.ops += batch.size();
      if (rep.Truncated()) r.failed_ops += batch.size();
    }
    r.loop_seconds = Seconds(Clock::now() - loop_start);
    if (const bdsm::ReplicationControl* rc =
            eut.engine->replication_control()) {
      for (const bdsm::ReplicaStats& f : rc->Stats().replicas) {
        r.replica_resyncs += f.resyncs;
      }
    }
  }
  return r;
}

std::vector<BatchDigest> ReferenceDigests(const Workload& w,
                                          const Inputs& in, size_t stream,
                                          const std::string& work_dir) {
  const std::vector<bdsm::UpdateBatch>& batches = in.streams[stream];
  EngineUnderTest ref = SetUpEngine("tf", in, work_dir);
  DigestSink sink(in.queries.size());
  bdsm::BatchOptions opts;
  opts.sink = &sink;
  opts.materialize = false;
  std::vector<BatchDigest> out;
  out.reserve(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    const bdsm::BatchReport rep = ref.engine->ProcessBatch(batches[i], opts);
    if (rep.Truncated()) {
      std::cerr << "perfbench: " << w.name << ": reference engine tf "
                << "truncated stream " << stream << " batch " << i
                << "; cannot check outputs\n";
      std::exit(1);
    }
    out.push_back(sink.Take());
  }
  return out;
}

long FirstMismatch(const std::vector<BatchDigest>& got,
                   const std::vector<BatchDigest>& want, size_t* query) {
  for (size_t b = 0; b < got.size(); ++b) {
    if (b >= want.size()) return static_cast<long>(b);
    for (size_t q = 0; q < got[b].size(); ++q) {
      if (q >= want[b].size() || got[b][q] != want[b][q]) {
        *query = q;
        return static_cast<long>(b);
      }
    }
  }
  return -1;
}

}  // namespace perfbench
