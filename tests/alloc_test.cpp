// Heap traffic of the async connector's steady state, as seen by the
// application thread, and of one strided box write on the drain path.
//
// A counting global operator new, armed by a thread-local flag, counts
// only what the test thread allocates while the flag is set: what a
// caller pays per prefetch, per write and per prefetch-hit read once the
// connector has warmed up, and what a Dataset::write_raw of a box costs
// through h5 planning and the posix leaf.  Allocations on the background
// stream are not counted.  This file is its own executable, so the
// replaced operator new touches no other suite.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "storage/decorator.h"
#include "storage/memory_backend.h"
#include "storage/posix_backend.h"
#include "vol/async_connector.h"

namespace {

/// Allocations at least this large are payload-sized: a stage copy or a
/// prefetch buffer that the connector's recycler should have supplied.
constexpr std::size_t kLargeBytes = 16 * 1024;

struct AllocCount {
  std::uint64_t small = 0;
  std::uint64_t large = 0;
};

thread_local bool t_counting = false;
thread_local AllocCount t_count;

void* counted_alloc(std::size_t bytes) noexcept {
  if (t_counting) {
    ++(bytes >= kLargeBytes ? t_count.large : t_count.small);
  }
  return std::malloc(bytes == 0 ? 1 : bytes);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every form that allocates through malloc frees through free, so the
// nothrow forms are replaced too: the library's own would pair with a
// different deallocator under the sanitizers.
void* operator new(std::size_t bytes) { return or_throw(counted_alloc(bytes)); }
void* operator new[](std::size_t bytes) { return or_throw(counted_alloc(bytes)); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  return counted_alloc(bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  return counted_alloc(bytes);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace apio::vol {
namespace {

/// Holds every transfer while closed, so a warm-up epoch can have all
/// of its buffers out at once.
class GateBackend final : public storage::Decorator {
 public:
  explicit GateBackend(storage::BackendPtr inner)
      : Decorator(std::move(inner), "gate") {}

  void set_open(bool open) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = open;
    }
    cv_.notify_all();
  }

 private:
  void around(obs::IoOp, std::uint64_t, std::uint64_t, Transfer transfer) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return open_; });
    }
    transfer();
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = true;
};

/// Counts the test thread's allocations while `body` runs.
template <typename Body>
AllocCount count_allocations(Body&& body) {
  t_count = {};
  t_counting = true;
  body();
  t_counting = false;
  return t_count;
}

constexpr int kGroups = 8;
constexpr int kPerGroup = 256;
constexpr std::uint64_t kPayload = 64 * 1024;
constexpr int kWarmupEpochs = 2;
constexpr int kMeasuredEpochs = 2;

struct EpochCounts {
  AllocCount prefetch;
  AllocCount write;
  AllocCount read_hit;
};

/// One epoch over group g: prefetch group g-1 (written last epoch), write
/// group g, wait, then read group g-1 back from the prefetch cache.  A
/// warm-up epoch holds the leaf until every prefetch and write is issued,
/// so the recycler sees the most buffers an epoch can have out at once.
EpochCounts run_epoch(AsyncConnector& conn, GateBackend* warmup_gate,
                      const std::vector<std::vector<h5::Dataset>>& groups,
                      int epoch, std::vector<std::byte>& payload,
                      std::vector<std::byte>& out) {
  const auto& written = groups[static_cast<std::size_t>(epoch % kGroups)];
  const auto& previous =
      groups[static_cast<std::size_t>((epoch + kGroups - 1) % kGroups)];
  const auto all = h5::Selection::all();
  for (auto& b : payload) b = static_cast<std::byte>(epoch);
  EpochCounts counts;
  if (warmup_gate != nullptr) warmup_gate->set_open(false);
  counts.prefetch = count_allocations([&] {
    for (const auto& ds : previous) conn.prefetch(ds, all);
  });
  counts.write = count_allocations([&] {
    for (const auto& ds : written) (void)conn.dataset_write(ds, all, payload);
  });
  if (warmup_gate != nullptr) warmup_gate->set_open(true);
  conn.wait_all();
  std::uint64_t misses = 0;
  counts.read_hit = count_allocations([&] {
    for (const auto& ds : previous) {
      if (!conn.dataset_read(ds, all, out)->test()) ++misses;
    }
  });
  conn.wait_all();
  EXPECT_EQ(misses, 0u) << "epoch " << epoch << " read missed the prefetch cache";
  return counts;
}

TEST(AllocTest, SteadyStateEpochAllocatesNoPayloadBuffersAndFewSmallObjects) {
  auto gate = std::make_shared<GateBackend>(std::make_shared<storage::MemoryBackend>());
  auto file = h5::File::create(gate);
  std::vector<std::vector<h5::Dataset>> groups(kGroups);
  for (int g = 0; g < kGroups; ++g) {
    auto group = file->root().create_group("g" + std::to_string(g));
    for (int d = 0; d < kPerGroup; ++d) {
      groups[static_cast<std::size_t>(g)].push_back(group.create_dataset(
          "d" + std::to_string(d), h5::Datatype::kUInt8, {kPayload}));
    }
  }
  AsyncConnector conn(file);
  std::vector<std::byte> payload(kPayload);
  std::vector<std::byte> out(kPayload);

  for (int e = 0; e < kWarmupEpochs; ++e) {
    run_epoch(conn, gate.get(), groups, e, payload, out);
  }
  EpochCounts total;
  for (int e = kWarmupEpochs; e < kWarmupEpochs + kMeasuredEpochs; ++e) {
    const EpochCounts c = run_epoch(conn, nullptr, groups, e, payload, out);
    EXPECT_EQ(c.prefetch.large + c.write.large + c.read_hit.large, 0u)
        << "epoch " << e << ": prefetch " << c.prefetch.large << ", write "
        << c.write.large << ", read hit " << c.read_hit.large
        << " payload-sized allocations";
    total.prefetch.large += c.prefetch.large;
    total.write.large += c.write.large;
    total.read_hit.large += c.read_hit.large;
    total.prefetch.small += c.prefetch.small;
    total.write.small += c.write.small;
    total.read_hit.small += c.read_hit.small;
  }

  const double ops = kMeasuredEpochs * kPerGroup;
  const double per_prefetch = static_cast<double>(total.prefetch.small) / ops;
  const double per_write = static_cast<double>(total.write.small) / ops;
  const double per_read_hit = static_cast<double>(total.read_hit.small) / ops;
  std::printf("per epoch: %.1f payload-sized allocations; per op: prefetch %.2f, "
              "write %.2f, read hit %.2f small allocations\n",
              static_cast<double>(total.prefetch.large + total.write.large +
                                  total.read_hit.large) / kMeasuredEpochs,
              per_prefetch, per_write, per_read_hit);
  // A prefetch allocates its op (which is its Request) and its cache
  // entry, a write its op, a prefetch hit its ready Request.
  EXPECT_LE(per_prefetch, 2.1);
  EXPECT_LE(per_write, 1.1);
  EXPECT_LE(per_read_hit, 1.0);

  // The last epoch's writes landed.
  const int last = kWarmupEpochs + kMeasuredEpochs - 1;
  std::vector<std::uint8_t> got = groups[last % kGroups][kPerGroup - 1]
                                      .read_vector<std::uint8_t>(h5::Selection::all());
  EXPECT_EQ(got, std::vector<std::uint8_t>(kPayload, static_cast<std::uint8_t>(last)));
  EXPECT_EQ(conn.stats().failed_ops, 0u);
  conn.close();
}

TEST(AllocTest, StridedBoxWriteToPosixAllocatesAtMostOnce) {
  // The amr_async drain's op: a 16^3 float32 box into a 64^3 contiguous
  // dataset, 256 row runs.  One warm-up pass writes every box, so the
  // posix leaf's scratch and its record of written bytes are at their
  // steady size; what remains per write is the IoVector's one reserve.
  constexpr std::uint64_t kBox = 16;
  constexpr std::uint64_t kPerDim = 4;
  constexpr int kPasses = 4;
  const std::string path =
      (std::filesystem::temp_directory_path() / "apio_alloc_box.bin").string();
  auto file = h5::File::create(std::make_shared<storage::PosixBackend>(
      path, storage::PosixBackend::Mode::kCreateTruncate));
  h5::Dataset ds = file->root().create_dataset("box", h5::Datatype::kFloat32,
                                               {kBox * kPerDim, kBox * kPerDim, kBox * kPerDim});
  std::vector<h5::Selection> boxes;
  for (std::uint64_t b = 0; b < kPerDim * kPerDim * kPerDim; ++b) {
    boxes.push_back(h5::Selection::offsets(
        {b / (kPerDim * kPerDim) * kBox, b / kPerDim % kPerDim * kBox, b % kPerDim * kBox},
        {kBox, kBox, kBox}));
  }
  const std::vector<float> values(kBox * kBox * kBox, 1.5f);
  const auto bytes = std::as_bytes(std::span<const float>(values));
  for (const auto& box : boxes) ds.write_raw(box, bytes);

  const AllocCount c = count_allocations([&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& box : boxes) ds.write_raw(box, bytes);
    }
  });
  const double per_write = static_cast<double>(c.small + c.large) /
                           static_cast<double>(kPasses * boxes.size());
  std::printf("per strided box write_raw: %.2f allocations\n", per_write);
  EXPECT_LE(per_write, 1.0);
  EXPECT_EQ(ds.read_vector<float>(boxes.back()), values);
  file->close();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace apio::vol
