#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "h5/file.h"
#include "obs/epoch_analyzer.h"
#include "timeline.h"
#include "vol/native_connector.h"
#include "workloads/vpic_io.h"

namespace apio::e2e {
namespace {

using storage::BackendStack;

// ---------------------------------------------------------------------------
// Inputs and checks

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Seeded float32 values in [0, 1), exact in 24 bits; `stream` picks an
/// independent sequence per dataset or box.
std::vector<float> seeded_floats(std::uint64_t seed, std::uint64_t stream,
                                 std::size_t n) {
  std::uint64_t state = seed * 0xD1B54A32D192ED03ull + stream;
  std::vector<float> out(n);
  for (float& v : out) {
    v = static_cast<float>(splitmix(state) >> 40) * (1.0f / 16777216.0f);
  }
  return out;
}

std::span<const std::byte> bytes_of(const std::vector<float>& v) {
  return std::as_bytes(std::span<const float>(v));
}

/// Every write stamps element 0 with its epoch, so a stale or misplaced
/// copy cannot pass: the rest must equal the seeded base values.
bool matches(const std::vector<float>& got, float stamp,
             const std::vector<float>& base) {
  return got.size() == base.size() && got[0] == stamp &&
         std::memcmp(got.data() + 1, base.data() + 1,
                     (base.size() - 1) * sizeof(float)) == 0;
}

/// --self-test: flips one byte of the first verification copy.
class Corruptor {
 public:
  explicit Corruptor(bool armed) : armed_(armed) {}
  void apply(std::vector<float>& copy) {
    if (!armed_) return;
    std::as_writable_bytes(std::span<float>(copy))[5] ^= std::byte{0x10};
    armed_ = false;
  }

 private:
  bool armed_;
};

void wait_counted(const vol::RequestPtr& request, std::uint64_t& failed) {
  TimedSpan span(SpanName::kVolWait);
  request->eventual()->wait_ignore_error();
  if (request->failed()) ++failed;
}

void compute(double seconds) {
  TimedSpan span(SpanName::kCompute);
  workloads::simulated_compute(seconds);
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

/// Closes a connector whose run never started (a discarded set-up) or
/// was abandoned by an exception.
void close_quietly(const std::shared_ptr<vol::Connector>& connector) {
  if (!connector) return;
  try {
    connector->close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apio_e2e: closing a connector failed: %s\n", e.what());
  }
}

// ---------------------------------------------------------------------------
// Stacks

/// The leaf a container sits on, and the probe that counts its traffic.
struct Leaf {
  storage::BackendPtr backend;
  std::shared_ptr<ProbeBackend> probe;
};

Leaf posix_leaf(const std::string& path,
                storage::PosixBackend::Mode mode =
                    storage::PosixBackend::Mode::kCreateTruncate) {
  Leaf leaf;
  leaf.backend = BackendStack::posix(path, mode).build();
  leaf.probe = std::make_shared<ProbeBackend>(leaf.backend, ProbeBackend::Role::kLeaf);
  return leaf;
}

Leaf memory_leaf() {
  Leaf leaf;
  leaf.backend = BackendStack::memory().build();
  leaf.probe = std::make_shared<ProbeBackend>(leaf.backend, ProbeBackend::Role::kLeaf);
  return leaf;
}

/// A traced run wraps the built stack in a top probe.
storage::BackendPtr with_top_probe(storage::BackendPtr built, const Config& c) {
  if (!c.traced) return built;
  return std::make_shared<ProbeBackend>(std::move(built), ProbeBackend::Role::kTop);
}

/// The coupled_stack decorators: resilient(3 attempts), fair-share
/// admission with tenants vpic:2 and bdcats:4, and a 64 MiB after-epoch
/// burst-buffer cache.
struct DecoratedStack {
  std::shared_ptr<sched::FairScheduler> scheduler;
  std::shared_ptr<storage::ResilientBackend> resilient;
  std::shared_ptr<storage::CachedBackend> cache;
};

DecoratedStack decorate(const storage::BackendPtr& leaf) {
  DecoratedStack s;
  s.scheduler = std::make_shared<sched::FairScheduler>();
  s.scheduler->register_tenant("vpic", 2.0);
  s.scheduler->register_tenant("bdcats", 4.0);
  storage::ResilienceOptions resilience;
  resilience.retry.max_attempts = 3;
  // Two builder calls instead of one keep the resilient layer's retry
  // counter reachable; the chain is the same.
  s.resilient = std::static_pointer_cast<storage::ResilientBackend>(
      BackendStack::wrap(leaf).resilient(resilience).build());
  storage::CacheOptions cache;
  cache.consistency = storage::CacheConsistency::kAfterEpoch;
  cache.capacity_bytes = 64ull << 20;
  s.cache = std::static_pointer_cast<storage::CachedBackend>(
      BackendStack::wrap(s.resilient).qos(s.scheduler).cached(cache).build());
  return s;
}

sched::SubmissionContext tenant(const char* name) {
  sched::SubmissionContext ctx;
  ctx.tenant = name;
  return ctx;
}

// ---------------------------------------------------------------------------
// vpic_async / vpic_sync: VPIC-IO on one rank.  Each step writes 8 float32
// properties of 8 MiB into a ring of 8 Step#k groups, then computes for
// 20 ms.  The 512 MiB file is several times the last-level cache.

constexpr int kVpicGroups = 8;
constexpr std::size_t kVpicProps = workloads::kVpicProperties.size();
constexpr std::uint64_t kVpicParticles = 2ull << 20;  // 8 MiB of float32
constexpr double kVpicComputeS = 0.020;

std::vector<h5::Dataset> vpic_layout(h5::File& file) {
  std::vector<h5::Dataset> ds;
  for (int g = 0; g < kVpicGroups; ++g) {
    h5::Group group = file.root().create_group(workloads::VpicIoKernel::step_group(g));
    for (const char* prop : workloads::kVpicProperties) {
      ds.push_back(group.create_dataset(prop, h5::Datatype::kFloat32, {kVpicParticles}));
    }
  }
  return ds;
}

class Vpic final : public Workload {
 public:
  Vpic(Config config, bool async)
      : c_(std::move(config)), async_(async), path_(c_.dir + "/vpic.apio") {}

  ~Vpic() override {
    close_quietly(conn_);
    remove_quietly(path_);
  }

  void setup() override {
    for (std::size_t p = 0; p < kVpicProps; ++p) {
      props_.push_back(seeded_floats(c_.seed, p, kVpicParticles));
    }
    leaf_ = posix_leaf(path_);
    file_ = h5::File::create(with_top_probe(leaf_.probe, c_));
    ds_ = vpic_layout(*file_);
    if (async_) {
      async_conn_ = std::make_shared<vol::AsyncConnector>(file_);
      conn_ = async_conn_;
    } else {
      conn_ = std::make_shared<vol::NativeConnector>(file_);
    }
    if (c_.observer) conn_->add_observer(c_.observer);
    last_step_.assign(kVpicGroups, -1);
  }

  RunResult run() override {
    RunResult r;
    std::vector<vol::RequestPtr> pending;
    std::uint32_t calls = 0;
    const std::int64_t t_run = now_ns();
    {
      TimedSpan run_span(SpanName::kRun);
      for (int s = 0; s < c_.epochs; ++s) {
        TimedSpan epoch(SpanName::kEpoch, static_cast<std::uint32_t>(s));
        const std::int64_t t0 = now_ns();
        {
          TimedSpan io(SpanName::kIo);
          for (const auto& req : pending) wait_counted(req, r.failed);
          pending.clear();
          const int g = s % kVpicGroups;
          for (std::size_t p = 0; p < kVpicProps; ++p) {
            props_[p][0] = static_cast<float>(s);
            TimedSpan call(SpanName::kVolWrite, ++calls);
            pending.push_back(conn_->dataset_write(ds_[g * kVpicProps + p],
                                                   h5::Selection::all(),
                                                   bytes_of(props_[p])));
          }
          last_step_[g] = s;
        }
        r.epoch_io_s.push_back(ns_to_s(now_ns() - t0));
        compute(kVpicComputeS);
        if (s == c_.epochs / 2) enforce_thread_limit(c_.max_threads);
      }
      const std::int64_t t0 = now_ns();
      {
        TimedSpan close(SpanName::kVolClose);
        for (const auto& req : pending) wait_counted(req, r.failed);
        conn_->close();
      }
      r.tail_io_s = ns_to_s(now_ns() - t0);
    }
    r.run_s = ns_to_s(now_ns() - t_run);

    r.data_calls = calls;
    r.bytes_written = calls * kVpicParticles * sizeof(float);
    r.leaf = leaf_.backend->stats();
    r.leaf_probe = leaf_.probe->stats();
    r.leaf_extents = leaf_.probe->extents();
    if (async_conn_) r.async.push_back(async_conn_->stats());
    conn_.reset();
    async_conn_.reset();
    file_.reset();
    return r;
  }

  void verify(RunResult& r) override {
    Corruptor corrupt(c_.corrupt_verify);
    const Leaf leaf = posix_leaf(path_, storage::PosixBackend::Mode::kOpenExisting);
    const h5::FilePtr file = h5::File::open(leaf.probe);
    std::vector<float> got(kVpicParticles);
    for (int g = 0; g < kVpicGroups; ++g) {
      if (last_step_[g] < 0) continue;
      for (std::size_t p = 0; p < kVpicProps; ++p) {
        file->dataset_at(workloads::VpicIoKernel::step_group(g) + "/" +
                         workloads::kVpicProperties[p])
            .read_raw(h5::Selection::all(),
                      std::as_writable_bytes(std::span<float>(got)));
        corrupt.apply(got);
        if (!matches(got, static_cast<float>(last_step_[g]), props_[p])) {
          ++r.mismatches;
        }
      }
    }
  }

 private:
  Config c_;
  bool async_;
  std::string path_;
  std::vector<std::vector<float>> props_;
  Leaf leaf_;
  h5::FilePtr file_;
  std::vector<h5::Dataset> ds_;  ///< [group * kVpicProps + property]
  std::shared_ptr<vol::AsyncConnector> async_conn_;
  std::shared_ptr<vol::Connector> conn_;
  std::vector<int> last_step_;  ///< step that last wrote each group
};

// ---------------------------------------------------------------------------
// amr_async: Castro-style plotfiles.  A 64^3 float32 domain with 6
// components, tiled by 16^3 boxes: 384 box writes of 16 KiB per
// plotfile, each a hyperslab of 256 strided 64 B rows.  Every plotfile
// is a new container with a new AsyncConnector, cycling between two
// file names; the previous plotfile is closed after the next 10 ms
// compute phase.

constexpr std::uint64_t kAmrDomain = 64;
constexpr std::uint64_t kAmrBox = 16;
constexpr int kAmrComps = 6;
constexpr std::uint64_t kAmrBoxesPerDim = kAmrDomain / kAmrBox;
constexpr std::size_t kAmrBoxes = kAmrBoxesPerDim * kAmrBoxesPerDim * kAmrBoxesPerDim;
constexpr std::size_t kAmrWrites = kAmrBoxes * kAmrComps;
constexpr std::uint64_t kAmrBoxCells = kAmrBox * kAmrBox * kAmrBox;
constexpr double kAmrComputeS = 0.010;

h5::Selection amr_box(std::size_t b) {
  const std::uint64_t z = b / (kAmrBoxesPerDim * kAmrBoxesPerDim);
  const std::uint64_t y = (b / kAmrBoxesPerDim) % kAmrBoxesPerDim;
  const std::uint64_t x = b % kAmrBoxesPerDim;
  return h5::Selection::offsets({z * kAmrBox, y * kAmrBox, x * kAmrBox},
                                {kAmrBox, kAmrBox, kAmrBox});
}

std::vector<h5::Dataset> amr_layout(h5::File& file) {
  std::vector<h5::Dataset> comps;
  for (int c = 0; c < kAmrComps; ++c) {
    comps.push_back(file.root().create_dataset(
        "comp" + std::to_string(c), h5::Datatype::kFloat32,
        {kAmrDomain, kAmrDomain, kAmrDomain}));
  }
  return comps;
}

class Amr final : public Workload {
 public:
  explicit Amr(Config config) : c_(std::move(config)) {}

  ~Amr() override {
    if (cur_) close_quietly(cur_->conn);
    remove_quietly(path(0));
    remove_quietly(path(1));
  }

  void setup() override {
    for (std::size_t b = 0; b < kAmrBoxes; ++b) boxes_.push_back(amr_box(b));
    for (std::size_t w = 0; w < kAmrWrites; ++w) {
      data_.push_back(seeded_floats(c_.seed, w, kAmrBoxCells));
      order_.push_back(w);
    }
    std::uint64_t state = c_.seed ^ 0xA3Bull;
    for (std::size_t i = order_.size() - 1; i > 0; --i) {
      std::swap(order_[i], order_[splitmix(state) % (i + 1)]);
    }
  }

  RunResult run() override {
    RunResult r;
    std::uint32_t calls = 0;
    const std::int64_t t_run = now_ns();
    {
      TimedSpan run_span(SpanName::kRun);
      for (int k = 0; k < c_.epochs; ++k) {
        TimedSpan epoch(SpanName::kEpoch, static_cast<std::uint32_t>(k));
        const std::int64_t t0 = now_ns();
        {
          TimedSpan io(SpanName::kIo);
          if (cur_) close_plotfile(r);
          open_plotfile(k);
          for (const std::size_t w : order_) {
            data_[w][0] = static_cast<float>(k);
            TimedSpan call(SpanName::kVolWrite, ++calls);
            cur_->reqs.push_back(cur_->conn->dataset_write(
                cur_->comps[w % kAmrComps], boxes_[w / kAmrComps], bytes_of(data_[w])));
          }
        }
        r.epoch_io_s.push_back(ns_to_s(now_ns() - t0));
        compute(kAmrComputeS);
        if (k == c_.epochs / 2) enforce_thread_limit(c_.max_threads);
      }
      const std::int64_t t0 = now_ns();
      close_plotfile(r);
      r.tail_io_s = ns_to_s(now_ns() - t0);
    }
    r.run_s = ns_to_s(now_ns() - t_run);
    r.data_calls = calls;
    r.bytes_written = calls * kAmrBoxCells * sizeof(float);
    return r;
  }

  /// The two surviving plotfiles, box by box.
  void verify(RunResult& r) override {
    Corruptor corrupt(c_.corrupt_verify);
    std::vector<float> got(kAmrBoxCells);
    for (int k = std::max(0, c_.epochs - 2); k < c_.epochs; ++k) {
      const Leaf leaf = posix_leaf(path(k), storage::PosixBackend::Mode::kOpenExisting);
      const h5::FilePtr file = h5::File::open(leaf.probe);
      for (std::size_t w = 0; w < kAmrWrites; ++w) {
        file->root()
            .open_dataset("comp" + std::to_string(w % kAmrComps))
            .read_raw(boxes_[w / kAmrComps],
                      std::as_writable_bytes(std::span<float>(got)));
        corrupt.apply(got);
        if (!matches(got, static_cast<float>(k), data_[w])) ++r.mismatches;
      }
    }
  }

 private:
  struct Plotfile {
    Leaf leaf;
    std::shared_ptr<vol::AsyncConnector> conn;
    std::vector<h5::Dataset> comps;
    std::vector<vol::RequestPtr> reqs;
  };

  std::string path(int k) const {
    return c_.dir + "/plt" + std::to_string(k % 2) + ".apio";
  }

  void open_plotfile(int k) {
    TimedSpan span(SpanName::kVolOpen);
    // Unlinking first keeps the file system from writing back the
    // truncated predecessor, which it may do when a file is reopened
    // with O_TRUNC.
    remove_quietly(path(k));
    auto pf = std::make_unique<Plotfile>();
    pf->leaf = posix_leaf(path(k));
    const h5::FilePtr file = h5::File::create(with_top_probe(pf->leaf.probe, c_));
    pf->comps = amr_layout(*file);
    pf->conn = std::make_shared<vol::AsyncConnector>(file);
    if (c_.observer) pf->conn->add_observer(c_.observer);
    pf->reqs.reserve(kAmrWrites);
    cur_ = std::move(pf);
  }

  void close_plotfile(RunResult& r) {
    {
      TimedSpan span(SpanName::kVolClose);
      cur_->conn->close();
    }
    for (const auto& req : cur_->reqs) {
      if (req->failed()) ++r.failed;
    }
    add_stats(r.leaf, cur_->leaf.backend->stats());
    add_stats(r.leaf_probe, cur_->leaf.probe->stats());
    r.leaf_extents += cur_->leaf.probe->extents();
    r.async.push_back(cur_->conn->stats());
    cur_.reset();
  }

  Config c_;
  std::vector<h5::Selection> boxes_;
  std::vector<std::vector<float>> data_;  ///< [box * kAmrComps + comp]
  std::vector<std::size_t> order_;        ///< seeded issue order
  std::unique_ptr<Plotfile> cur_;
};

// ---------------------------------------------------------------------------
// coupled_stack: an in-situ VPIC producer and BD-CATS consumer in one
// process, sharing one AsyncConnector FIFO over the decorated memory
// stack.  Each epoch the producer writes 256 datasets of 64 KiB into a
// ring of 8 step groups; the consumer prefetches the previous step,
// computes for 5 ms, then reads and checks it.

constexpr int kCoupledGroups = 8;
constexpr std::size_t kCoupledDatasets = 256;
constexpr std::uint64_t kCoupledElems = 16384;  // 64 KiB of float32
constexpr double kCoupledComputeS = 0.005;

std::string coupled_name(std::size_t j) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "d%03zu", j);
  return buf;
}

std::vector<h5::Dataset> coupled_layout(h5::File& file) {
  std::vector<h5::Dataset> ds;
  for (int g = 0; g < kCoupledGroups; ++g) {
    h5::Group group = file.root().create_group(workloads::VpicIoKernel::step_group(g));
    for (std::size_t j = 0; j < kCoupledDatasets; ++j) {
      ds.push_back(group.create_dataset(coupled_name(j), h5::Datatype::kFloat32,
                                        {kCoupledElems}));
    }
  }
  return ds;
}

class Coupled final : public Workload {
 public:
  explicit Coupled(Config config) : c_(std::move(config)) {}

  ~Coupled() override { close_quietly(conn_); }

  void setup() override {
    leaf_ = memory_leaf();
    stack_ = decorate(leaf_.probe);
    file_ = h5::File::create(with_top_probe(stack_.cache, c_));
    ds_ = coupled_layout(*file_);
    for (std::size_t j = 0; j < kCoupledDatasets; ++j) {
      base_.push_back(seeded_floats(c_.seed, j, kCoupledElems));
      got_.emplace_back(kCoupledElems);
    }
    conn_ = std::make_shared<vol::AsyncConnector>(file_);
    if (c_.observer) conn_->add_observer(c_.observer);
    last_step_.assign(kCoupledGroups, -1);
  }

  RunResult run() override {
    RunResult r;
    std::uint32_t calls = 0;
    std::vector<vol::RequestPtr> writes;
    std::vector<vol::RequestPtr> reads;
    const sched::SubmissionContext producer = tenant("vpic");
    const sched::SubmissionContext consumer = tenant("bdcats");
    const std::int64_t t_run = now_ns();
    {
      TimedSpan run_span(SpanName::kRun);
      for (int e = 0; e < c_.epochs; ++e) {
        TimedSpan epoch(SpanName::kEpoch, static_cast<std::uint32_t>(e));
        obs::EpochScope marker(e);
        const int g = e % kCoupledGroups;
        const int prev = (e + kCoupledGroups - 1) % kCoupledGroups;
        std::int64_t io_ns = 0;

        std::int64_t t0 = now_ns();
        {
          TimedSpan io(SpanName::kIo);
          if (e > 0) {
            sched::ScopedSubmission bind(consumer);
            for (std::size_t j = 0; j < kCoupledDatasets; ++j) {
              TimedSpan call(SpanName::kVolPrefetch, ++calls);
              conn_->prefetch(ds_[prev * kCoupledDatasets + j], h5::Selection::all());
            }
          }
          sched::ScopedSubmission bind(producer);
          for (std::size_t j = 0; j < kCoupledDatasets; ++j) {
            base_[j][0] = static_cast<float>(e);
            TimedSpan call(SpanName::kVolWrite, ++calls);
            writes.push_back(conn_->dataset_write(ds_[g * kCoupledDatasets + j],
                                                  h5::Selection::all(),
                                                  bytes_of(base_[j])));
          }
        }
        io_ns += now_ns() - t0;

        compute(kCoupledComputeS);

        t0 = now_ns();
        {
          TimedSpan io(SpanName::kIo);
          if (e > 0) {
            sched::ScopedSubmission bind(consumer);
            for (std::size_t j = 0; j < kCoupledDatasets; ++j) {
              TimedSpan call(SpanName::kVolRead, ++calls);
              reads.push_back(conn_->dataset_read(
                  ds_[prev * kCoupledDatasets + j], h5::Selection::all(),
                  std::as_writable_bytes(std::span<float>(got_[j]))));
            }
            for (const auto& req : reads) wait_counted(req, r.failed);
            reads.clear();
          }
          sched::ScopedSubmission bind(producer);
          for (const auto& req : writes) wait_counted(req, r.failed);
          writes.clear();
          TimedSpan drain(SpanName::kDrain);
          marker.end();  // after-epoch visibility: the cache drains here
        }
        io_ns += now_ns() - t0;
        r.epoch_io_s.push_back(ns_to_s(io_ns));
        last_step_[g] = e;

        if (e > 0) {
          TimedSpan check(SpanName::kCheck);
          for (std::size_t j = 0; j < kCoupledDatasets; ++j) {
            if (!matches(got_[j], static_cast<float>(e - 1), base_[j])) ++r.mismatches;
          }
        }
        if (e == c_.epochs / 2) enforce_thread_limit(c_.max_threads);
      }
      const std::int64_t t0 = now_ns();
      {
        TimedSpan close(SpanName::kVolClose);
        conn_->close();
      }
      r.tail_io_s = ns_to_s(now_ns() - t0);
    }
    r.run_s = ns_to_s(now_ns() - t_run);

    constexpr std::uint64_t kBytes = kCoupledElems * sizeof(float);
    const auto steps = static_cast<std::uint64_t>(c_.epochs);
    r.data_calls = calls;
    r.bytes_written = steps * kCoupledDatasets * kBytes;
    r.bytes_read = (steps - 1) * kCoupledDatasets * kBytes;
    r.async.push_back(conn_->stats());
    r.leaf = leaf_.backend->stats();
    r.leaf_probe = leaf_.probe->stats();
    r.leaf_extents = leaf_.probe->extents();
    r.cache = stack_.cache->cache_snapshot();
    r.sched = stack_.scheduler->stats();
    r.resilient_retries = stack_.resilient->retries();
    conn_.reset();
    file_.reset();
    return r;
  }

  /// Reopens the container straight from the memory leaf: after close
  /// the cache has drained everything to it.
  void verify(RunResult& r) override {
    Corruptor corrupt(c_.corrupt_verify);
    const h5::FilePtr file = h5::File::open(leaf_.probe);
    std::vector<float> got(kCoupledElems);
    for (int g = 0; g < kCoupledGroups; ++g) {
      if (last_step_[g] < 0) continue;
      for (std::size_t j = 0; j < kCoupledDatasets; ++j) {
        file->dataset_at(workloads::VpicIoKernel::step_group(g) + "/" +
                         coupled_name(j))
            .read_raw(h5::Selection::all(),
                      std::as_writable_bytes(std::span<float>(got)));
        corrupt.apply(got);
        if (!matches(got, static_cast<float>(last_step_[g]), base_[j])) {
          ++r.mismatches;
        }
      }
    }
  }

 private:
  Config c_;
  Leaf leaf_;
  DecoratedStack stack_;
  h5::FilePtr file_;
  std::vector<h5::Dataset> ds_;  ///< [group * kCoupledDatasets + j]
  std::vector<std::vector<float>> base_;
  std::vector<std::vector<float>> got_;
  std::shared_ptr<vol::AsyncConnector> conn_;
  std::vector<int> last_step_;
};

// ---------------------------------------------------------------------------
// Ladder

struct Shape {
  bool posix = true;
  std::size_t ops = 0;    ///< ops per timed batch
  std::size_t elems = 0;  ///< float32 elements per op
  h5::Selection selection = h5::Selection::all();
  /// Creates the workload's container layout; returns the target dataset.
  h5::Dataset (*layout)(h5::File&) = nullptr;
};

Shape shape_of(const std::string& workload) {
  Shape s;
  if (workload == "amr_async") {
    s.ops = kAmrWrites;
    s.elems = kAmrBoxCells;
    s.selection = amr_box(kAmrBoxes / 2);
    s.layout = [](h5::File& f) { return amr_layout(f).front(); };
  } else if (workload == "coupled_stack") {
    s.posix = false;
    s.ops = kCoupledDatasets;
    s.elems = kCoupledElems;
    // A dataset in the middle of the 2048: path lookups walk half the tree.
    s.layout = [](h5::File& f) { return coupled_layout(f)[kCoupledGroups * kCoupledDatasets / 2]; };
  } else {
    s.ops = kVpicProps;
    s.elems = kVpicParticles;
    s.layout = [](h5::File& f) { return vpic_layout(f).front(); };
  }
  return s;
}

/// One warm-up batch, then the fastest of 5 timed batches, per op.
template <typename Fn>
double min_us_per_op(std::size_t ops, Fn&& op) {
  for (std::size_t i = 0; i < ops; ++i) op();
  double best = 1e300;
  for (int b = 0; b < 5; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < ops; ++i) op();
    best = std::min(best, ns_to_s(now_ns() - t0) / static_cast<double>(ops));
  }
  return best * 1e6;
}

}  // namespace

void add_stats(storage::BackendStats& into, const storage::BackendStats& s) {
  into.bytes_read += s.bytes_read;
  into.bytes_written += s.bytes_written;
  into.read_ops += s.read_ops;
  into.write_ops += s.write_ops;
  into.flushes += s.flushes;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"vpic_async", "vpic_sync",
                                                 "amr_async", "coupled_stack"};
  return names;
}

int nominal_epochs(const std::string& workload) {
  if (workload == "amr_async") return 280;
  if (workload == "coupled_stack") return 400;
  return 360;
}

std::size_t spans_per_epoch(const std::string& workload) {
  if (workload == "amr_async") return 4 * kAmrWrites;
  if (workload == "coupled_stack") return 12 * kCoupledDatasets;
  return 8 * kVpicProps;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  if (name == "vpic_async") return std::make_unique<Vpic>(config, true);
  if (name == "vpic_sync") return std::make_unique<Vpic>(config, false);
  if (name == "amr_async") return std::make_unique<Amr>(config);
  if (name == "coupled_stack") return std::make_unique<Coupled>(config);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Ladder run_ladder(const std::string& workload, const Config& c) {
  const Shape shape = shape_of(workload);
  const std::vector<float> src = seeded_floats(c.seed, 0x1add, shape.elems);
  const std::span<const std::byte> data = bytes_of(src);
  const std::string path = c.dir + "/ladder.apio";
  const std::string stack_path = c.dir + "/ladder_stack.apio";
  auto make_leaf = [&](const std::string& p) {
    return shape.posix ? posix_leaf(p) : memory_leaf();
  };

  Ladder out;
  out.ops_per_row = 5 * shape.ops;
  {
    const Leaf leaf = make_leaf(path);
    const h5::FilePtr file = h5::File::create(leaf.probe);
    h5::Dataset ds = shape.layout(*file);

    // The leaf row replays exactly the extents h5 hands the leaf.
    leaf.probe->capture(true);
    ds.write_raw(shape.selection, data);
    leaf.probe->capture(false);
    std::vector<storage::WriteExtent> extents;
    std::size_t packed = 0;
    for (const auto& [offset, length] : leaf.probe->captured()) {
      extents.push_back({offset, data.subspan(packed, length)});
      packed += length;
    }
    if (packed != data.size()) {
      throw std::runtime_error("ladder: captured extents do not cover the op");
    }
    out.leaf_us = min_us_per_op(shape.ops, [&] {
      if (leaf.backend->write_v(extents) != data.size()) {
        throw std::runtime_error("ladder: short leaf write");
      }
    });
    out.h5_us = min_us_per_op(shape.ops, [&] { ds.write_raw(shape.selection, data); });
    vol::NativeConnector native(file);
    out.native_us = min_us_per_op(shape.ops, [&] {
      native.dataset_write(ds, shape.selection, data)->wait();
    });
    {
      vol::AsyncConnector async(file);
      out.async_us = min_us_per_op(shape.ops, [&] {
        async.dataset_write(ds, shape.selection, data)->wait();
      });
    }
    file->close();
  }
  remove_quietly(path);
  {
    const Leaf leaf = make_leaf(stack_path);
    const DecoratedStack stack = decorate(leaf.probe);
    const h5::FilePtr file = h5::File::create(stack.cache);
    h5::Dataset ds = shape.layout(*file);
    vol::AsyncConnector async(file);
    out.stack_us = min_us_per_op(shape.ops, [&] {
      async.dataset_write(ds, shape.selection, data)->wait();
    });
    async.close();
  }
  remove_quietly(stack_path);
  return out;
}

}  // namespace apio::e2e
