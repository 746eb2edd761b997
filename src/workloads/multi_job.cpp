#include "workloads/multi_job.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/stats.h"
#include "h5/file.h"
#include "storage/backend_stack.h"
#include "storage/memory_backend.h"
#include "vol/async_connector.h"
#include "workloads/workload_common.h"

namespace apio::workloads {
namespace {

/// Linear-interpolated p99; 0 for a lane that saw no op.
double p99(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : percentile(samples, 99.0);
}

std::byte pattern_byte(const std::string& name, int step, std::uint64_t i) {
  return static_cast<std::byte>((name.size() * 37 +
                                 static_cast<std::uint64_t>(step) * 131 + i) &
                                0xff);
}

/// One rank of a tenant: steps `rank, rank + ranks, ...` of (compute,
/// async op) over its own connector, then a full drain.  The thread is
/// bound to the tenant, so every op it issues is charged to it.
void run_rank(const h5::FilePtr& file, h5::Dataset ds, const TenantSpec& spec,
              int rank) {
  sched::ScopedSubmission tenant({spec.name});
  vol::AsyncConnector conn(file);
  std::vector<std::byte> chunk(spec.bytes_per_step);
  // Read targets stay alive (and untouched) until the drain; the inner
  // buffers never move when the outer vector grows.
  std::vector<std::vector<std::byte>> read_buffers;
  if (spec.kind == TenantSpec::Kind::kBdcats) {
    read_buffers.reserve(static_cast<std::size_t>(spec.steps));
  }
  for (int step = rank; step < spec.steps; step += spec.ranks) {
    simulated_compute(spec.compute_seconds);
    const auto selection = h5::Selection::offsets(
        {static_cast<std::uint64_t>(step) * spec.bytes_per_step},
        {spec.bytes_per_step});
    switch (spec.kind) {
      case TenantSpec::Kind::kCheckpoint:
      case TenantSpec::Kind::kVpic:
        for (std::uint64_t i = 0; i < spec.bytes_per_step; ++i) {
          chunk[i] = pattern_byte(spec.name, step, i);
        }
        conn.dataset_write(ds, selection, chunk);
        // Checkpoint semantics: the step is durable only after a flush;
        // the flush rides the priority lane through the scheduler.
        if (spec.kind == TenantSpec::Kind::kCheckpoint) conn.flush();
        break;
      case TenantSpec::Kind::kBdcats:
        read_buffers.emplace_back(spec.bytes_per_step);
        conn.dataset_read(ds, selection, read_buffers.back());
        break;
    }
  }
  conn.wait_all();
  // ~AsyncConnector drains and joins the stream but leaves the shared
  // file open for the other ranks and tenants.
}

/// One tenant: its ranks issue concurrently; the tenant has drained
/// once every rank has.  Runs on a dedicated thread per tenant.
void run_tenant(const h5::FilePtr& file, h5::Dataset ds,
                const TenantSpec& spec) {
  std::vector<std::thread> ranks;
  ranks.reserve(static_cast<std::size_t>(spec.ranks));
  for (int rank = 0; rank < spec.ranks; ++rank) {
    ranks.emplace_back([&, rank] { run_rank(file, ds, spec, rank); });
  }
  for (std::thread& thread : ranks) thread.join();
}

}  // namespace

MultiJobParams MultiJobParams::reference() {
  MultiJobParams params;
  params.pfs_bandwidth = 64.0 * kMiB;
  params.pfs_latency = 1e-3;
  params.time_scale = 1.0;
  // Equal work per tenant: the weight-4 tenant drains first, and the
  // share snapshot lands while the others are still backlogged.  Four
  // ranks per tenant keep each tenant's scheduler queue several deep,
  // which is what the weighted max-min bound is defined over.
  const int steps = 48;
  const int ranks = 4;
  const std::uint64_t bytes = 64 * kKiB;
  TenantSpec checkpoint;
  checkpoint.name = "checkpoint";
  checkpoint.weight = 1.0;
  checkpoint.kind = TenantSpec::Kind::kCheckpoint;
  checkpoint.steps = steps;
  checkpoint.bytes_per_step = bytes;
  checkpoint.ranks = ranks;
  TenantSpec vpic;
  vpic.name = "vpic";
  vpic.weight = 2.0;
  vpic.kind = TenantSpec::Kind::kVpic;
  vpic.steps = steps;
  vpic.bytes_per_step = bytes;
  vpic.ranks = ranks;
  TenantSpec bdcats;
  bdcats.name = "bdcats";
  bdcats.weight = 4.0;
  bdcats.kind = TenantSpec::Kind::kBdcats;
  bdcats.steps = steps;
  bdcats.bytes_per_step = bytes;
  bdcats.ranks = ranks;
  params.tenants = {checkpoint, vpic, bdcats};
  return params;
}

MultiJobResult run_multi_job(const MultiJobParams& params) {
  APIO_REQUIRE(!params.tenants.empty(), "multi_job needs at least one tenant");
  double weight_sum = 0.0;
  for (const TenantSpec& spec : params.tenants) {
    APIO_REQUIRE(!spec.name.empty(), "tenant name must be non-empty");
    APIO_REQUIRE(spec.weight > 0.0, "tenant weight must be positive");
    APIO_REQUIRE(spec.steps > 0 && spec.bytes_per_step > 0,
                 "tenant work must be non-empty");
    APIO_REQUIRE(spec.ranks > 0, "tenant needs at least one rank");
    weight_sum += spec.weight;
  }

  // Pre-populate the container through the bare leaf: dataset creation
  // and the BD-CATS input data are setup, not measured contention.
  auto leaf = std::make_shared<storage::MemoryBackend>();
  {
    auto setup = h5::File::create(leaf);
    auto jobs = setup->root().create_group("jobs");
    for (const TenantSpec& spec : params.tenants) {
      auto ds = jobs.create_dataset(
          spec.name, h5::Datatype::kUInt8,
          {spec.bytes_per_step * static_cast<std::uint64_t>(spec.steps)});
      if (spec.kind == TenantSpec::Kind::kBdcats) {
        std::vector<std::byte> seed(spec.bytes_per_step *
                                    static_cast<std::uint64_t>(spec.steps));
        for (std::uint64_t i = 0; i < seed.size(); ++i) {
          seed[i] = pattern_byte(spec.name, 0, i);
        }
        ds.write_raw(h5::Selection::all(), seed);
      }
    }
    setup->close();
  }

  auto scheduler = std::make_shared<sched::FairScheduler>();
  for (const TenantSpec& spec : params.tenants) {
    scheduler->register_tenant(spec.name, spec.weight);
  }

  storage::ThrottleParams throttle;
  throttle.bandwidth = params.pfs_bandwidth;
  throttle.latency = params.pfs_latency;
  throttle.time_scale = params.time_scale;
  auto file = h5::File::open(storage::BackendStack::wrap(leaf)
                                 .throttled(throttle)
                                 .qos(scheduler)
                                 .build());

  // Resolve dataset handles on this thread; handles are plain values
  // the tenant threads then use without touching the metadata index.
  std::vector<h5::Dataset> datasets;
  datasets.reserve(params.tenants.size());
  for (const TenantSpec& spec : params.tenants) {
    datasets.push_back(file->dataset_at("/jobs/" + spec.name));
  }

  // Shares are sampled at the first tenant drain at which every tenant
  // has been granted at least once: up to the first drain every tenant
  // is backlogged, so the split is the scheduler's doing, not an
  // artifact of who was given how much total work.  A tenant whose
  // threads started late on a loaded machine may not have been granted
  // yet, and would read 0 bytes; by the last drain every tenant has.
  std::mutex snapshot_mutex;
  bool sampled = false;
  sched::SchedStats contended;
  WallClock wall;
  const double t0 = wall.now();
  std::vector<std::thread> threads;
  threads.reserve(params.tenants.size());
  for (std::size_t i = 0; i < params.tenants.size(); ++i) {
    threads.emplace_back([&, i] {
      run_tenant(file, datasets[i], params.tenants[i]);
      std::lock_guard lock(snapshot_mutex);
      if (sampled) return;
      sched::SchedStats now = scheduler->stats();
      sampled = std::all_of(params.tenants.begin(), params.tenants.end(),
                            [&](const TenantSpec& spec) {
                              return now.tenants[spec.name].dispatched_ops > 0;
                            });
      if (sampled) contended = std::move(now);
    });
  }
  for (std::thread& thread : threads) thread.join();

  MultiJobResult result;
  result.elapsed_seconds = wall.now() - t0;
  result.final_stats = scheduler->stats();
  const int bulk = static_cast<int>(sched::Lane::kBulk);
  const int prio = static_cast<int>(sched::Lane::kPriority);
  std::uint64_t total_bulk_bytes = 0;
  for (const TenantSpec& spec : params.tenants) {
    result.total_dispatched_bytes += contended.tenants[spec.name].dispatched_bytes;
    total_bulk_bytes += contended.tenants[spec.name].lane_bytes[bulk];
  }
  for (const TenantSpec& spec : params.tenants) {
    const sched::TenantStats& mid = contended.tenants[spec.name];
    const sched::TenantStats& fin = result.final_stats.tenants[spec.name];
    TenantResult row;
    row.name = spec.name;
    row.weight = spec.weight;
    row.dispatched_bytes = mid.dispatched_bytes;
    row.bulk_bytes = mid.lane_bytes[bulk];
    row.priority_bytes = mid.lane_bytes[prio];
    row.share = total_bulk_bytes > 0
                    ? static_cast<double>(row.bulk_bytes) /
                          static_cast<double>(total_bulk_bytes)
                    : 0.0;
    row.fair_share = spec.weight / weight_sum;
    row.priority_p99_wait = p99(fin.wait_samples[prio]);
    row.bulk_p99_wait = p99(fin.wait_samples[bulk]);
    row.priority_ops = fin.priority_ops;
    result.tenants.push_back(std::move(row));
  }
  return result;
}

double MultiJobResult::max_share_error() const {
  double worst = 0.0;
  for (const TenantResult& t : tenants) {
    if (t.fair_share <= 0.0) continue;
    worst = std::max(worst, std::abs(t.share - t.fair_share) / t.fair_share);
  }
  return worst;
}

double MultiJobResult::priority_p99_wait() const {
  double worst = 0.0;
  for (const TenantResult& t : tenants) {
    if (t.priority_ops > 0) worst = std::max(worst, t.priority_p99_wait);
  }
  return worst;
}

std::string MultiJobResult::table() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line,
                "  %12s | %6s | %10s | %10s | %7s | %7s | %12s\n", "tenant",
                "weight", "bulk B", "prio B", "share", "fair", "prio p99");
  out += line;
  for (const TenantResult& t : tenants) {
    std::snprintf(line, sizeof line,
                  "  %12s | %6.1f | %10llu | %10llu | %6.1f%% | %6.1f%% | "
                  "%9.2f ms\n",
                  t.name.c_str(), t.weight,
                  static_cast<unsigned long long>(t.bulk_bytes),
                  static_cast<unsigned long long>(t.priority_bytes),
                  100.0 * t.share, 100.0 * t.fair_share,
                  1e3 * t.priority_p99_wait);
    out += line;
  }
  return out;
}

}  // namespace apio::workloads
