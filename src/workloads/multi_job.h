// Multi-tenant contention scenario: N concurrent jobs — checkpoint
// writers, a VPIC-style particle dump, a BD-CATS-style analysis reader
// — hammering ONE throttled Lustre model through a shared fair-share
// scheduler.  This is the coupled-pipeline case the paper's single-job
// measurements do not cover: without QoS, arrival order decides who
// gets the channel; with sched::FairScheduler underneath, each tenant's
// dispatched bytes track its weighted max-min share and priority-lane
// flushes stay fast while bulk lanes saturate.
//
// Each rank of a tenant runs on its own thread, bound to the tenant with
// a sched::ScopedSubmission, through its own vol::AsyncConnector, all
// over one h5::File whose backend stack is memory -> throttled -> qos.  Per-tenant shares are sampled at the
// first tenant drain at which every tenant has been granted at least
// once — normally the first drain, while every tenant is still
// backlogged, so the measured split reflects scheduling, not total
// issued work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sched/fair_scheduler.h"

namespace apio::workloads {

struct TenantSpec {
  enum class Kind {
    kCheckpoint,  ///< per-step slab write + priority-lane flush
    kVpic,        ///< bulk slab writes (particle dump)
    kBdcats,      ///< bulk slab reads of a pre-populated dataset
  };

  std::string name;
  double weight = 1.0;
  Kind kind = Kind::kVpic;
  int steps = 32;
  std::uint64_t bytes_per_step = 64 * kKiB;
  /// Emulated compute between steps; 0 keeps the tenant saturating.
  double compute_seconds = 0.0;
  /// Concurrent ranks of this job: each gets its own AsyncConnector
  /// (and background stream) and works a strided subset of the steps.
  /// A single serial stream can keep at most ONE request in admission,
  /// so the tenant is absent from every grant decision taken while its
  /// stream post-processes — it can never win back-to-back grants and
  /// its share is structurally capped.  >= 2 keeps the tenant
  /// backlogged at the scheduler, which is what weighted max-min
  /// fairness is defined over (and what a real multi-rank job does).
  int ranks = 2;
};

struct MultiJobParams {
  std::vector<TenantSpec> tenants;
  /// Shared Lustre model (one ThrottledBackend channel).
  double pfs_bandwidth = 64.0 * kMiB;
  double pfs_latency = 1e-3;
  /// Wall-time scale of the throttle; keep small so runs stay fast.
  double time_scale = 1.0;

  /// The paper-style reference contention case: three saturating
  /// tenants at weights 1:2:4 (checkpoint : vpic : bdcats), equal work
  /// each, over one 64 MiB/s channel.  The fairness gate in
  /// bench/fig_fairshare runs exactly this.
  static MultiJobParams reference();
};

struct TenantResult {
  std::string name;
  double weight = 1.0;
  std::uint64_t dispatched_bytes = 0;  ///< all lanes, at the snapshot
  std::uint64_t bulk_bytes = 0;        ///< kBulk lane, at the snapshot
  std::uint64_t priority_bytes = 0;    ///< kPriority lane, at the snapshot
  /// Fraction of all tenants' BULK-lane bytes at the snapshot.  The
  /// weighted max-min bound is defined over the bulk lane: priority
  /// traffic (flushes + their metadata writes) is deliberately granted
  /// ahead of bulk for latency, and its bytes are still charged to the
  /// tenant's virtual time, so a flush-heavy tenant pays for its
  /// metadata out of its own bulk entitlement rather than others'.
  double share = 0.0;
  double fair_share = 0.0;             ///< weight / sum(weights)
  double priority_p99_wait = 0.0;      ///< submit->grant, priority lane
  double bulk_p99_wait = 0.0;          ///< submit->grant, bulk lane
  std::uint64_t priority_ops = 0;
};

struct MultiJobResult {
  std::vector<TenantResult> tenants;
  std::uint64_t total_dispatched_bytes = 0;  ///< named tenants, at snapshot
  double elapsed_seconds = 0.0;
  /// Full scheduler accounting at the end of the run (not the
  /// mid-contention snapshot the shares use).
  sched::SchedStats final_stats;

  /// max over tenants of |share - fair_share| / fair_share.
  double max_share_error() const;
  /// max over tenants (with priority traffic) of priority-lane p99 wait.
  double priority_p99_wait() const;
  std::string table() const;
};

/// Runs the scenario.  Throws InvalidArgumentError on an empty tenant
/// list or non-positive weights/steps.
MultiJobResult run_multi_job(const MultiJobParams& params);

}  // namespace apio::workloads
