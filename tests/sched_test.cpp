// Unit tests for apio::sched (fair-share admission) and its storage /
// VOL integration: the FairScheduler SFQ math, lane ordering,
// submission-context plumbing, QosBackend attribution, the BackendStack
// builder, and the multi_job contention workload.
//
// Everything timing-sensitive runs on a ManualClock, so the
// fairness properties here are exact (deterministic grant sequences),
// not statistical.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstddef>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/stats.h"
#include "common/units.h"
#include "h5/file.h"
#include "sched/fair_scheduler.h"
#include "sched/io_request.h"
#include "sched/report.h"
#include "storage/backend_stack.h"
#include "storage/memory_backend.h"
#include "storage/qos_backend.h"
#include "vol/async_connector.h"
#include "workloads/multi_job.h"

#if defined(APIO_DEBUG_CHECKS) && !defined(__SANITIZE_THREAD__)
#define APIO_HAVE_DEATH_TESTS 1
#endif

namespace apio::sched {
namespace {

IoRequest bulk_request(std::string tenant, std::uint64_t bytes) {
  IoRequest req;
  req.tenant = std::move(tenant);
  req.lane = Lane::kBulk;
  req.op = obs::IoOp::kWrite;
  req.bytes = bytes;
  return req;
}

IoRequest priority_request(std::string tenant, std::uint64_t bytes = 0) {
  IoRequest req = bulk_request(std::move(tenant), bytes);
  req.lane = Lane::kPriority;
  req.op = obs::IoOp::kFlush;
  return req;
}

/// Completes the unique granted-but-uncompleted ticket (the one channel
/// slot keeps it unique) and returns its index; -1 when nothing is granted.
int complete_next(FairScheduler& sched, const std::vector<TicketPtr>& tickets,
                  std::vector<bool>& done) {
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (!done[i] && tickets[i]->granted()) {
      done[i] = true;
      sched.complete(tickets[i]);
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(FairSchedulerTest, GrantsImmediatelyWhenChannelIdle) {
  ManualClock clock;
  FairScheduler sched(&clock);
  auto ticket = sched.submit(bulk_request("a", 1024));
  EXPECT_TRUE(ticket->granted());
  sched.wait(ticket);  // must not block
  sched.complete(ticket);
  EXPECT_EQ(sched.stats().dispatched_ops, 1u);
}

// The core property: three backlogged tenants at weights 1:2:4 receive
// channel bytes in exact weight proportion.  Equal-size requests, so
// over any window of 7k grants the split must be k : 2k : 4k (the SFQ
// schedule is periodic; we check the half-way window with one-request
// slack for phase).
TEST(FairSchedulerTest, WeightedFairSharesUnderBacklog) {
  ManualClock clock;
  FairScheduler sched(&clock);
  sched.register_tenant("a", 1.0);
  sched.register_tenant("b", 2.0);
  sched.register_tenant("c", 4.0);

  constexpr std::uint64_t kBytes = 4096;
  std::vector<TicketPtr> tickets;
  std::vector<std::string> owner;
  auto enqueue = [&](const std::string& tenant, int count) {
    for (int i = 0; i < count; ++i) {
      tickets.push_back(sched.submit(bulk_request(tenant, kBytes)));
      owner.push_back(tenant);
    }
  };
  enqueue("a", 8);
  enqueue("b", 16);
  enqueue("c", 32);

  std::vector<bool> done(tickets.size(), false);
  std::map<std::string, int> granted;
  for (int grant = 0; grant < 28; ++grant) {
    const int idx = complete_next(sched, tickets, done);
    ASSERT_GE(idx, 0) << "channel wedged at grant " << grant;
    ++granted[owner[static_cast<std::size_t>(idx)]];
  }
  // Ideal split of 28 grants at 1:2:4 is 4:8:16; allow one request of
  // phase slack per tenant.
  EXPECT_NEAR(granted["a"], 4, 1);
  EXPECT_NEAR(granted["b"], 8, 1);
  EXPECT_NEAR(granted["c"], 16, 1);
}

// A tenant that sat idle while others consumed the channel must NOT
// burst past them on return: its vtime snaps forward to the global
// frontier, so from arrival onward it shares equally (weight 1:1) —
// no banked credit.
TEST(FairSchedulerTest, IdleTenantCannotBankCredit) {
  ManualClock clock;
  FairScheduler sched(&clock);
  sched.register_tenant("busy", 1.0);
  sched.register_tenant("late", 1.0);

  std::vector<TicketPtr> tickets;
  std::vector<std::string> owner;
  for (int i = 0; i < 10; ++i) {
    tickets.push_back(sched.submit(bulk_request("busy", 1024)));
    owner.push_back("busy");
  }
  std::vector<bool> done(tickets.size(), false);
  for (int i = 0; i < 6; ++i) {
    ASSERT_GE(complete_next(sched, tickets, done), 0);
  }
  // "late" arrives after 6 exclusive grants to "busy".
  for (int i = 0; i < 10; ++i) {
    tickets.push_back(sched.submit(bulk_request("late", 1024)));
    owner.push_back("late");
    done.push_back(false);
  }
  int late_grants = 0;
  for (int i = 0; i < 8; ++i) {
    const int idx = complete_next(sched, tickets, done);
    ASSERT_GE(idx, 0);
    if (owner[static_cast<std::size_t>(idx)] == "late") ++late_grants;
  }
  // Equal weights from arrival: 4 of the next 8 (±1 phase).  Catching
  // up on the 6 missed grants would need 7 of 8.
  EXPECT_GE(late_grants, 3);
  EXPECT_LE(late_grants, 5);
}

// Starvation regression: a priority request submitted behind a deep
// bulk backlog from another tenant is granted at the very next slot.
TEST(FairSchedulerTest, PriorityJumpsBulkBacklog) {
  ManualClock clock;
  FairScheduler sched(&clock);

  std::vector<TicketPtr> bulk;
  for (int i = 0; i < 100; ++i) {
    bulk.push_back(sched.submit(bulk_request("hog", 65536)));
  }
  ASSERT_TRUE(bulk[0]->granted());
  auto flush = sched.submit(priority_request("meta"));
  EXPECT_FALSE(flush->granted());  // channel is busy, no preemption

  sched.complete(bulk[0]);
  EXPECT_TRUE(flush->granted()) << "priority must beat 99 queued bulk ops";
  EXPECT_FALSE(bulk[1]->granted());
  sched.complete(flush);
  EXPECT_TRUE(bulk[1]->granted());
}

// Regression for the virtual-time jump bug: a priority grant's start
// tag rides its tenant's vtime (up to one full charge ahead of the
// global frontier).  Advancing V to it would snap every lagging tenant
// forward and erase fair-queuing history on each flush, degrading SFQ
// toward FIFO — exactly what the fig_fairshare gate first caught.
TEST(FairSchedulerTest, PriorityGrantDoesNotAdvanceGlobalVirtualTime) {
  ManualClock clock;
  FairScheduler sched(&clock);

  auto write = sched.submit(bulk_request("ck", 65536));
  ASSERT_TRUE(write->granted());  // start 0 -> V stays 0, ck.vtime 65536
  auto flush = sched.submit(priority_request("ck"));
  sched.complete(write);
  ASSERT_TRUE(flush->granted());  // start = ck.vtime = 65536
  sched.complete(flush);
  EXPECT_DOUBLE_EQ(sched.stats().virtual_time, 0.0)
      << "priority grants must not drag the global frontier forward";
}

TEST(FairSchedulerTest, CloseGrantsEverythingSoDrainsCannotWedge) {
  ManualClock clock;
  FairScheduler sched(&clock);
  auto blocker = sched.submit(bulk_request("t", 1024));
  auto queued1 = sched.submit(bulk_request("t", 1024));
  auto queued2 = sched.submit(bulk_request("u", 1024));
  EXPECT_FALSE(queued1->granted());

  sched.close();
  EXPECT_TRUE(sched.closed());
  EXPECT_TRUE(queued1->granted());
  EXPECT_TRUE(queued2->granted());
  sched.wait(queued1);  // must not block
  sched.complete(blocker);
  sched.complete(queued1);
  sched.complete(queued2);
  // Post-close submissions are granted immediately.
  auto late = sched.submit(bulk_request("t", 1024));
  EXPECT_TRUE(late->granted());
  sched.complete(late);
}

TEST(FairSchedulerTest, CompleteBeforeGrantThrows) {
  ManualClock clock;
  FairScheduler sched(&clock);
  auto blocker = sched.submit(bulk_request("t", 1024));
  auto queued = sched.submit(bulk_request("t", 1024));
  EXPECT_THROW(sched.complete(queued), InvalidArgumentError);
  sched.complete(blocker);
  sched.complete(queued);
}

TEST(FairSchedulerTest, EmptyTenantResolvesToDefault) {
  ManualClock clock;
  FairScheduler sched(&clock);
  auto ticket = sched.submit(bulk_request("", 512));
  EXPECT_EQ(ticket->request().tenant, std::string(kDefaultTenant));
  sched.complete(ticket);
  EXPECT_EQ(sched.stats().tenants.at(kDefaultTenant).dispatched_bytes, 512u);
}

TEST(FairSchedulerTest, RejectsInvalidConfiguration) {
  ManualClock clock;
  FairScheduler sched(&clock);
  EXPECT_THROW(sched.register_tenant("", 1.0), InvalidArgumentError);
  EXPECT_THROW(sched.register_tenant("t", 0.0), InvalidArgumentError);
}

// Contended admit()/complete() from many threads: exercised under TSan
// by the tsan-labelled suite.  With one channel slot every admission
// serialises through the channel, so totals must be exact.
TEST(FairSchedulerTest, ConcurrentAdmitCompleteStaysConsistent) {
  FairScheduler sched;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sched, t] {
      const std::string tenant = "t" + std::to_string(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto ticket = sched.admit(bulk_request(tenant, 1024));
        sched.complete(ticket);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto stats = sched.stats();
  EXPECT_EQ(stats.dispatched_ops,
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(stats.dispatched_bytes,
            static_cast<std::uint64_t>(kThreads * kOpsPerThread) * 1024u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(stats.tenants.at("t" + std::to_string(t)).dispatched_ops,
              static_cast<std::uint64_t>(kOpsPerThread));
  }
}

TEST(ScopedSubmissionTest, BindsNestsAndRestores) {
  EXPECT_EQ(current_submission(), nullptr);
  {
    ScopedSubmission outer({"alpha", Lane::kBulk});
    ASSERT_NE(current_submission(), nullptr);
    EXPECT_EQ(current_submission()->tenant, "alpha");
    {
      ScopedSubmission inner({"beta", Lane::kPriority});
      EXPECT_EQ(current_submission()->tenant, "beta");
      EXPECT_EQ(current_submission()->lane, Lane::kPriority);
    }
    EXPECT_EQ(current_submission()->tenant, "alpha");
  }
  EXPECT_EQ(current_submission(), nullptr);
}

// ---------------------------------------------------------------------------
// render_sched_report: the shared `sched:` block (apio_profile + tests),
// rendered from SchedStats alone.

TEST(SchedReportTest, EmptyWhenNothingDispatched) {
  EXPECT_TRUE(render_sched_report(SchedStats{}).empty());
}

TEST(SchedReportTest, RendersPerTenantWaitPercentiles) {
  SchedStats stats;
  stats.submitted_ops = 7;
  stats.dispatched_ops = 6;
  stats.dispatched_bytes = 1024;
  TenantStats& alpha = stats.tenants["alpha"];
  alpha.dispatched_bytes = 768;
  alpha.priority_ops = 1;
  alpha.max_queue_depth = 3;
  alpha.wait_samples[static_cast<int>(Lane::kBulk)] = {1e-4, 5e-2};
  alpha.wait_samples[static_cast<int>(Lane::kPriority)] = {2e-3};
  stats.tenants["beta"].dispatched_bytes = 256;

  const std::string report = render_sched_report(stats);
  EXPECT_NE(report.find("dispatched 6 ops / " + format_bytes(1024) +
                        " (priority 1), submitted 7\n"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("tenant alpha: " + format_bytes(768) +
                        "  share  75.0%  max queue 3"),
            std::string::npos)
      << report;

  // Exact percentiles over both lanes' samples, not histogram bucket
  // bounds: the median of {0.1 ms, 2 ms, 50 ms} is 2 ms.
  const std::vector<double> waits = {1e-4, 5e-2, 2e-3};
  const std::string spread = "wait p50/p95/p99 " +
                             format_seconds(percentile(waits, 50.0)) + "/" +
                             format_seconds(percentile(waits, 95.0)) + "/" +
                             format_seconds(percentile(waits, 99.0)) + " (n=3)";
  EXPECT_EQ(format_seconds(percentile(waits, 50.0)), format_seconds(2e-3));
  EXPECT_NE(report.find(spread), std::string::npos) << report;

  // beta recorded no waits: its line renders bytes, share and depth only.
  EXPECT_NE(report.find("tenant beta: " + format_bytes(256) +
                        "  share  25.0%  max queue 0\n"),
            std::string::npos)
      << report;
}

}  // namespace
}  // namespace apio::sched

namespace apio::storage {
namespace {

using sched::FairScheduler;
using sched::Lane;

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>(i & 0xff);
  }
  return data;
}

TEST(QosBackendTest, ChargesBoundTenantAndPreservesData) {
  auto scheduler = std::make_shared<FairScheduler>();
  QosBackend qos(std::make_shared<MemoryBackend>(), scheduler);

  const auto data = pattern(2048);
  {
    sched::ScopedSubmission bind({"jobA", Lane::kBulk});
    qos.write(0, data);
  }
  std::vector<std::byte> back(2048);
  qos.read(0, back);  // unbound: charged to the default tenant
  EXPECT_EQ(back, data);

  const auto stats = scheduler->stats();
  EXPECT_EQ(stats.tenants.at("jobA").dispatched_bytes, 2048u);
  EXPECT_EQ(stats.tenants.at(sched::kDefaultTenant).dispatched_bytes, 2048u);
}

TEST(QosBackendTest, VectoredWriteAdmitsOnceForTotalBytes) {
  auto scheduler = std::make_shared<FairScheduler>();
  QosBackend qos(std::make_shared<MemoryBackend>(), scheduler);

  const auto data = pattern(3 * 512);
  const std::span<const std::byte> span(data);
  const WriteExtent extents[] = {{0, span.subspan(0, 512)},
                                 {4096, span.subspan(512, 512)},
                                 {8192, span.subspan(1024, 512)}};
  const std::uint64_t written = qos.write_v(extents);
  EXPECT_EQ(written, 3u * 512u);

  const auto stats = scheduler->stats();
  EXPECT_EQ(stats.dispatched_ops, 1u) << "one admission per vectored call";
  EXPECT_EQ(stats.dispatched_bytes, 3u * 512u);
}

TEST(QosBackendTest, FlushRidesPriorityLane) {
  auto scheduler = std::make_shared<FairScheduler>();
  QosBackend qos(std::make_shared<MemoryBackend>(), scheduler);
  {
    sched::ScopedSubmission bind({"jobA", Lane::kBulk});
    qos.flush();
  }
  const auto stats = scheduler->stats();
  EXPECT_EQ(stats.tenants.at("jobA").priority_ops, 1u)
      << "flush must override the bound bulk lane";
}

TEST(BackendStackTest, ComposesLayersInnerToOuter) {
  auto scheduler = std::make_shared<FairScheduler>();
  ThrottleParams throttle;
  throttle.bandwidth = 1e12;
  throttle.latency = 0.0;
  auto backend = BackendStack::memory()
                     .throttled(throttle)
                     .qos(scheduler)
                     .build();
  EXPECT_EQ(backend->name(), "qos(throttled(memory))");

  auto plain = BackendStack::memory().build();
  EXPECT_EQ(plain->name(), "memory");
}

TEST(BackendStackTest, WrapAdoptsExistingLeaf) {
  auto leaf = std::make_shared<MemoryBackend>();
  auto backend = BackendStack::wrap(leaf).build();
  const auto data = pattern(64);
  backend->write(0, data);
  EXPECT_EQ(leaf->size(), 64u);
}

#if defined(APIO_HAVE_DEATH_TESTS)
TEST(BackendStackDeathTest, RejectsLayerBelowExistingOne) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto scheduler = std::make_shared<FairScheduler>();
        ThrottleParams throttle;
        BackendStack::memory().qos(scheduler).throttled(throttle);
      },
      "decorator order");
}

TEST(BackendStackDeathTest, RejectsDuplicateLayer) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThrottleParams throttle;
        BackendStack::memory().throttled(throttle).throttled(throttle);
      },
      "decorator order");
}
#endif

}  // namespace
}  // namespace apio::storage

namespace apio::vol {
namespace {

// End-to-end attribution: ops issued through an AsyncConnector whose
// AsyncOptions names a tenant are charged to that tenant by the
// QosBackend underneath, including the priority-lane flush.
TEST(AsyncConnectorSchedTest, TenantFlowsFromIssuingThreadToScheduler) {
  auto scheduler = std::make_shared<sched::FairScheduler>();
  auto file = h5::File::create(
      storage::BackendStack::memory().qos(scheduler).build());
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8, {4096});

  {
    AsyncConnector conn(file);
    {
      // Captured at issue: the ops still run as jobA after the binding's
      // scope closed.
      sched::ScopedSubmission bind({"jobA"});
      std::vector<std::byte> data(4096, std::byte{0x5a});
      conn.dataset_write(ds, h5::Selection::all(), data);
      conn.flush();
    }
    conn.wait_all();
  }

  const auto stats = scheduler->stats();
  ASSERT_TRUE(stats.tenants.count("jobA"));
  const auto& tenant = stats.tenants.at("jobA");
  EXPECT_GE(tenant.dispatched_bytes, 4096u);
  EXPECT_GE(tenant.priority_ops, 1u) << "flush must ride the priority lane";
  EXPECT_GE(tenant.lane_bytes[static_cast<int>(sched::Lane::kBulk)], 4096u);
}

TEST(AsyncConnectorSchedTest, TwoBindingsShareOneConnector) {
  // Two jobs issue through one connector from their own threads, as a
  // coupled producer and consumer do: each op is charged to the tenant
  // bound on the thread that issued it, not to the stream that runs it.
  constexpr std::uint64_t kChunk = 4096;
  constexpr int kSteps = 8;
  auto scheduler = std::make_shared<sched::FairScheduler>();
  scheduler->register_tenant("vpic", 1.0);
  scheduler->register_tenant("bdcats", 1.0);
  auto file = h5::File::create(
      storage::BackendStack::memory().qos(scheduler).build());
  auto ds = file->root().create_dataset("d", h5::Datatype::kUInt8,
                                        {2 * kSteps * kChunk});
  AsyncConnector conn(file);

  std::barrier step_barrier(2);
  const auto issue = [&](const char* tenant, std::uint64_t slot) {
    sched::ScopedSubmission bind({tenant});
    const std::vector<std::byte> data(kChunk, std::byte{0x11});
    for (int step = 0; step < kSteps; ++step) {
      const std::uint64_t offset = (2 * static_cast<std::uint64_t>(step) + slot) * kChunk;
      conn.dataset_write(ds, h5::Selection::offsets({offset}, {kChunk}), data);
      step_barrier.arrive_and_wait();  // interleave the two jobs' writes
    }
  };
  std::thread vpic(issue, "vpic", 0);
  std::thread bdcats(issue, "bdcats", 1);
  vpic.join();
  bdcats.join();
  conn.wait_all();

  const auto stats = scheduler->stats();
  constexpr int kBulk = static_cast<int>(sched::Lane::kBulk);
  for (const char* tenant : {"vpic", "bdcats"}) {
    ASSERT_TRUE(stats.tenants.count(tenant)) << tenant;
    EXPECT_EQ(stats.tenants.at(tenant).lane_bytes[kBulk], kSteps * kChunk) << tenant;
  }
  conn.close();
}

}  // namespace
}  // namespace apio::vol

namespace apio::workloads {
namespace {

TEST(MultiJobTest, ValidatesParameters) {
  MultiJobParams params;
  EXPECT_THROW(run_multi_job(params), InvalidArgumentError);
  TenantSpec bad;
  bad.name = "t";
  bad.weight = -1.0;
  params.tenants = {bad};
  EXPECT_THROW(run_multi_job(params), InvalidArgumentError);
}

TEST(MultiJobTest, SmokeRunProducesConsistentAccounting) {
  MultiJobParams params;
  params.pfs_bandwidth = 4.0 * kGiB;  // fast: smoke, not a fairness gate
  params.pfs_latency = 1e-5;
  TenantSpec writer;
  writer.name = "writer";
  writer.weight = 1.0;
  writer.kind = TenantSpec::Kind::kVpic;
  writer.steps = 6;
  writer.bytes_per_step = 8 * kKiB;
  writer.ranks = 2;
  TenantSpec reader = writer;
  reader.name = "reader";
  reader.weight = 2.0;
  reader.kind = TenantSpec::Kind::kBdcats;
  params.tenants = {writer, reader};

  const auto result = run_multi_job(params);
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_GT(result.total_dispatched_bytes, 0u);
  EXPECT_GT(result.elapsed_seconds, 0.0);
  double share_sum = 0.0;
  for (const auto& tenant : result.tenants) {
    share_sum += tenant.share;
    EXPECT_GT(tenant.dispatched_bytes, 0u);
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  // Every issued byte was eventually dispatched (final accounting).
  const std::uint64_t expected =
      2u * 6u * 8u * kKiB;  // both tenants' data payloads
  std::uint64_t final_bulk = 0;
  for (const auto& [name, tenant] : result.final_stats.tenants) {
    final_bulk += tenant.lane_bytes[static_cast<int>(sched::Lane::kBulk)];
  }
  EXPECT_GE(final_bulk, expected);
  EXPECT_FALSE(result.table().empty());
}

}  // namespace
}  // namespace apio::workloads
