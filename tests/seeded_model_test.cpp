// Seeded generators checked against flat models.
//
//   - PosixSequenceTest drives one PosixBackend through random sequences
//     of write_v batches (random extents with holes around a page, and
//     Castro-style boxes in shuffled order), shrinking and growing
//     truncates, and closes and reopens, and compares the whole file
//     with a byte array after every step.  ByteRangesTest checks
//     storage::ByteRanges, the range set of the sieve's written bytes
//     and of the cache's staged and dirty bytes, against a bitmap.
//   - HyperslabGeneratorTest draws random rank 1-4 extents and
//     hyperslabs and checks for_each_run and for_each_row_run against a
//     brute-force element enumerator, and Dataset::write_raw/read_raw on
//     both layouts and both FileProps::vectored_io values against a flat
//     element array.
//   - FairSchedulerGeneratorTest submits random requests (tenants,
//     weights, lanes, sizes) to a sched::FairScheduler on a ManualClock,
//     interleaved with completing the granted ticket, and checks the
//     grant order and each tenant's byte accounting against a
//     straight-line model of start-time fair queuing with two lanes.
//
// Under ctest each generator runs a fixed few seeds.  Run with
// `--gtest_shuffle --gtest_random_seed=S --gtest_repeat=R` (ci/check.sh
// does) and repeat i runs seed S + i instead; gtest prints S.  A seed
// that ever fails is committed below as a named case.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "h5/file.h"
#include "obs/metrics.h"
#include "sched/fair_scheduler.h"
#include "storage/byte_ranges.h"
#include "storage/memory_backend.h"
#include "storage/posix_backend.h"

namespace apio {
namespace {

using storage::PosixBackend;
using storage::WriteExtent;

/// Seeds one run draws: `base` and two more under ctest, or the one
/// gtest shuffles with (see the header).
std::vector<std::uint64_t> run_seeds(std::uint64_t base) {
  const int shuffled = ::testing::UnitTest::GetInstance()->random_seed();
  if (shuffled != 0) return {base + static_cast<std::uint64_t>(shuffled)};
  return {base, base + 1, base + 2};
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The file's bytes, read past the backend.
std::vector<std::byte> file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::vector<std::byte> out(ec ? 0 : size);
  std::ifstream(path, std::ios::binary)
      .read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(out.size()));
  return out;
}

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_below(256));
  return out;
}

const obs::Counter& sieve_windows() {
  return obs::Registry::instance().counter("storage.sieve_windows");
}
const obs::Counter& sieve_reads_skipped() {
  return obs::Registry::instance().counter("storage.sieve_reads_skipped");
}

/// Turns the registry on for one test and off again.
struct ObsOn {
  ObsOn() {
    obs::Registry::instance().reset();
    obs::set_enabled(true);
  }
  ~ObsOn() { obs::set_enabled(false); }
};

// ---------------------------------------------------------------------------
// ByteRanges

TEST(ByteRangesTest, MatchesABitmapOnRandomInsertsAndTruncates) {
  // Random adds, subtracts, truncates and clears.  add() reports
  // whether its range met a recorded byte.  After each step a random
  // query range's overlaps(), gaps() and clipped(), and the set's
  // bytes() and runs() (disjoint and coalesced, touching runs included)
  // are checked against the bitmap.  gaps() and clipped() append, so
  // each gets a vector holding a sentinel.
  constexpr std::uint64_t kSpace = 600;
  using Runs = storage::ByteRanges::Runs;
  for (const std::uint64_t seed : run_seeds(11)) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    storage::ByteRanges ranges;
    std::vector<bool> model(kSpace, false);
    const auto draw = [&](std::uint64_t max_len) {
      const std::uint64_t a = rng.next_below(kSpace);
      return std::pair(a, a + rng.next_below(std::min(kSpace - a, max_len) + 1));
    };
    // The maximal runs of [a, b) whose model bits equal `set`.
    const auto model_runs = [&](std::uint64_t a, std::uint64_t b, bool set) {
      Runs out{{kSpace, kSpace}};
      for (std::uint64_t i = a; i < b; ++i) {
        if (model[i] != set) continue;
        if (out.back().second == i) {
          ++out.back().second;
        } else {
          out.emplace_back(i, i + 1);
        }
      }
      return out;
    };
    for (int step = 0; step < 1000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const auto [a, b] = draw(40);
      const auto first = model.begin() + static_cast<std::ptrdiff_t>(a);
      const auto last = model.begin() + static_cast<std::ptrdiff_t>(b);
      const std::uint64_t op = rng.next_below(40);
      if (op == 0) {
        ranges.clear();
        std::fill(model.begin(), model.end(), false);
      } else if (op < 4) {
        ranges.truncate(a);
        std::fill(first, model.end(), false);
      } else if (op < 20) {
        ranges.subtract(a, b);
        std::fill(first, last, false);
      } else {
        const bool met = std::find(first, last, true) != last;
        ASSERT_EQ(ranges.add(a, b), met) << "add [" << a << ", " << b << ")";
        std::fill(first, last, true);
      }

      const auto [qa, qb] = draw(kSpace);
      SCOPED_TRACE("query [" + std::to_string(qa) + ", " + std::to_string(qb) + ")");
      const Runs set = model_runs(qa, qb, true);
      ASSERT_EQ(ranges.overlaps(qa, qb), set.size() > 1);
      Runs got{{kSpace, kSpace}};
      ranges.gaps(qa, qb, got);
      ASSERT_EQ(got, model_runs(qa, qb, false));
      got = {{kSpace, kSpace}};
      ranges.clipped(qa, qb, got);
      ASSERT_EQ(got, set);
      ASSERT_EQ(ranges.bytes(),
                static_cast<std::uint64_t>(std::count(model.begin(), model.end(), true)));
      ASSERT_EQ(ranges.runs(), model_runs(0, kSpace, true).size() - 1);
    }
  }
}

// ---------------------------------------------------------------------------
// PosixBackend sequences

/// One PosixBackend and the bytes its file must hold.
class PosixModel {
 public:
  PosixModel(std::string path, PosixBackend::Mode mode) : path_(std::move(path)) {
    if (mode != PosixBackend::Mode::kCreateTruncate) bytes_ = file_bytes(path_);
    backend_ = std::make_unique<PosixBackend>(path_, mode);
  }

  PosixBackend& backend() { return *backend_; }
  std::uint64_t size() const { return bytes_.size(); }

  void write_v(std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> batch) {
    std::vector<WriteExtent> extents;
    std::uint64_t total = 0;
    for (const auto& [offset, data] : batch) {
      extents.push_back({offset, data});
      total += data.size();
      if (data.empty()) continue;
      if (bytes_.size() < offset + data.size()) bytes_.resize(offset + data.size());
      std::copy(data.begin(), data.end(), bytes_.begin() + static_cast<std::ptrdiff_t>(offset));
    }
    ASSERT_EQ(backend_->write_v(extents), total);
  }

  void truncate(std::uint64_t size) {
    backend_->truncate(size);
    bytes_.resize(size);
  }

  void reopen(PosixBackend::Mode mode) {
    backend_.reset();
    backend_ = std::make_unique<PosixBackend>(path_, mode);
  }

  void expect_file_matches(const std::string& step) {
    ASSERT_EQ(backend_->size(), bytes_.size()) << step;
    const std::vector<std::byte> got = file_bytes(path_);
    ASSERT_EQ(got.size(), bytes_.size()) << step;
    const auto diff = std::mismatch(got.begin(), got.end(), bytes_.begin());
    ASSERT_TRUE(diff.first == got.end())
        << step << ": first differing byte at " << (diff.first - got.begin());
  }

 private:
  std::string path_;
  std::unique_ptr<PosixBackend> backend_;
  std::vector<std::byte> bytes_;
};

using Batch = std::vector<std::pair<std::uint64_t, std::vector<std::byte>>>;

/// Sorted, disjoint extents from `at`, with holes drawn around a page
/// (4095 and 4096 B) and the sieve span, and a few empty extents.
Batch random_batch(Rng& rng, std::uint64_t at) {
  Batch batch;
  const int extents = 1 + static_cast<int>(rng.next_below(20));
  for (int i = 0; i < extents; ++i) {
    const std::size_t size = rng.next_below(10) == 0   ? 0
                             : rng.next_below(4) == 0 ? 1 + rng.next_below(20000)
                                                      : 1 + rng.next_below(300);
    batch.emplace_back(at, random_bytes(rng, size));
    std::uint64_t hole = 0;
    switch (rng.next_below(7)) {
      case 0: hole = 0; break;
      case 1: hole = 4095; break;
      case 2: hole = 4096; break;
      case 3: hole = 1 + rng.next_below(256); break;
      case 4: hole = 60 * 1024 + rng.next_below(8192); break;
      default: hole = rng.next_below(8193); break;
    }
    at += size + hole;
  }
  return batch;
}

/// One batch per box of a Castro-style plotfile, in shuffled order:
/// `cells`^3 float32 cells at `base`, cut into boxes of `box`^3, one
/// extent per box row.
std::vector<Batch> castro_boxes(Rng& rng, std::uint64_t base, std::uint64_t cells,
                                std::uint64_t box) {
  const std::uint64_t per_dim = cells / box;
  std::vector<std::uint64_t> order(per_dim * per_dim * per_dim);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  std::vector<Batch> batches;
  for (const std::uint64_t b : order) {
    const std::uint64_t z0 = b / (per_dim * per_dim) * box;
    const std::uint64_t y0 = b / per_dim % per_dim * box;
    const std::uint64_t x0 = b % per_dim * box;
    Batch rows;
    for (std::uint64_t z = z0; z < z0 + box; ++z) {
      for (std::uint64_t y = y0; y < y0 + box; ++y) {
        rows.emplace_back(base + ((z * cells + y) * cells + x0) * 4, random_bytes(rng, box * 4));
      }
    }
    batches.push_back(std::move(rows));
  }
  return batches;
}

PosixBackend::Mode reopen_mode(Rng& rng) {
  return rng.next_below(2) == 0 ? PosixBackend::Mode::kOpenExisting
                                : PosixBackend::Mode::kOpenOrCreate;
}

/// One sequence: a fresh or prefilled file, then random steps, the file
/// compared with the model after each.
void run_sequence(Rng& rng, const std::string& path, int steps) {
  PosixBackend::Mode mode = PosixBackend::Mode::kCreateTruncate;
  if (rng.next_below(3) == 0) {
    const std::vector<std::byte> prefill = random_bytes(rng, rng.next_below(70000));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(prefill.data()),
               static_cast<std::streamsize>(prefill.size()));
    mode = reopen_mode(rng);
  }
  PosixModel model(path, mode);
  model.expect_file_matches("open");
  for (int step = 0; step < steps; ++step) {
    const std::string at = "step " + std::to_string(step);
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
        model.write_v(random_batch(rng, rng.next_below(model.size() + 8192)));
        break;
      case 3: {
        const std::uint64_t cells = rng.next_below(2) == 0 ? 32 : 64;
        const std::uint64_t box = rng.next_below(2) == 0 ? 8 : 16;
        for (auto& batch : castro_boxes(rng, rng.next_below(5000), cells, box)) {
          model.write_v(std::move(batch));
          ASSERT_NO_FATAL_FAILURE(model.expect_file_matches(at + " (box)"));
        }
        break;
      }
      case 4:
        model.truncate(rng.next_below(model.size() + 1));
        break;
      case 5:
        model.truncate(model.size() + rng.next_below(20000));
        break;
      default:
        model.reopen(reopen_mode(rng));
        break;
    }
    ASSERT_NO_FATAL_FAILURE(model.expect_file_matches(at));
  }
}

TEST(PosixSequenceTest, RandomSequencesMatchAByteArrayModel) {
  const std::string path = temp_path("apio_posix_sequence.bin");
  for (const std::uint64_t seed : run_seeds(20261018)) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int sequence = 0; sequence < 4; ++sequence) {
      SCOPED_TRACE("sequence " + std::to_string(sequence));
      ASSERT_NO_FATAL_FAILURE(run_sequence(rng, path, 10));
    }
  }
  std::filesystem::remove(path);
}

TEST(PosixSequenceTest, FreshFileSkipsReadBackOfNeverWrittenWindows) {
  // Boxes of a new plotfile: the first box in each strip of siblings
  // sieves over bytes nothing wrote, so its windows skip the read.
  const std::string path = temp_path("apio_posix_sequence_fresh.bin");
  const ObsOn obs_on;
  Rng rng(7);
  PosixModel model(path, PosixBackend::Mode::kCreateTruncate);
  for (auto& batch : castro_boxes(rng, 512, 64, 16)) model.write_v(std::move(batch));
  model.expect_file_matches("after the boxes");
  EXPECT_GT(sieve_reads_skipped().total(), 0u);
  EXPECT_LT(sieve_reads_skipped().total(), sieve_windows().total())
      << "a later sibling's window must read back the strip's bytes";
  std::filesystem::remove(path);
}

TEST(PosixSequenceTest, WindowsOverBytesPresentAtOpenAlwaysReadBack) {
  // A file that existed at open counts as written up to its size, in
  // either open mode, so no window inside it skips its read.
  const std::string path = temp_path("apio_posix_sequence_prefilled.bin");
  for (const auto mode : {PosixBackend::Mode::kOpenExisting, PosixBackend::Mode::kOpenOrCreate}) {
    const ObsOn obs_on;
    Rng rng(static_cast<std::uint64_t>(mode) + 3);
    const std::vector<std::byte> prefill = random_bytes(rng, 1 << 20);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(prefill.data()),
               static_cast<std::streamsize>(prefill.size()));
    PosixModel model(path, mode);
    for (auto& batch : castro_boxes(rng, 0, 64, 16)) model.write_v(std::move(batch));
    for (int i = 0; i < 20; ++i) {
      Batch batch = random_batch(rng, rng.next_below(1 << 19));
      while (!batch.empty() && batch.back().first + batch.back().second.size() > prefill.size()) {
        batch.pop_back();
      }
      model.write_v(std::move(batch));
    }
    model.expect_file_matches("after the writes");
    EXPECT_GT(sieve_windows().total(), 0u) << "nothing sieved: the check is vacuous";
    EXPECT_EQ(sieve_reads_skipped().total(), 0u);
  }
  std::filesystem::remove(path);
}

TEST(PosixSequenceTest, ShrinkDropsRecordedBytesAndRegrowthReadsZeros) {
  // Bytes past a shrink are gone: a later window over the regrown span
  // skips its read and its holes are zeros, like the file's.
  const std::string path = temp_path("apio_posix_sequence_shrink.bin");
  const ObsOn obs_on;
  Rng rng(5);
  PosixModel model(path, PosixBackend::Mode::kCreateTruncate);
  model.write_v({{0, random_bytes(rng, 20000)}});
  model.truncate(100);
  model.truncate(20000);
  model.write_v({{8000, random_bytes(rng, 10)}, {9000, random_bytes(rng, 10)}});
  model.expect_file_matches("after the regrowth");
  EXPECT_EQ(sieve_reads_skipped().total(), 1u);
  model.write_v({{50, random_bytes(rng, 10)}, {900, random_bytes(rng, 10)}});
  model.expect_file_matches("after a window across the shrink point");
  EXPECT_EQ(sieve_reads_skipped().total(), 1u) << "[0, 100) was still written";
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Hyperslab generator

using h5::Dims;
using h5::Hyperslab;
using h5::Selection;

/// A random valid hyperslab dimension of extent `e`: count 0 or 1,
/// block == stride, the full dimension, or strided blocks.
void draw_dim(Rng& rng, std::uint64_t e, Hyperslab& slab) {
  std::uint64_t start = 0, stride = 1, block = 1, count = 1;
  switch (rng.next_below(40) == 0 ? 0 : 1 + rng.next_below(8)) {
    case 0:  // empty
      count = 0;
      start = rng.next_below(e);
      break;
    case 1:  // one block, any stride (block may exceed it)
      start = rng.next_below(e);
      block = 1 + rng.next_below(e - start);
      stride = 1 + rng.next_below(4);
      break;
    case 2:
    case 3:  // the full dimension
      count = e;
      break;
    case 4:
    case 5:  // packed: block == stride
      block = stride = 1 + rng.next_below(e);
      start = rng.next_below(e - block + 1);
      count = 1 + rng.next_below((e - start) / block);
      break;
    default:  // strided blocks
      block = 1 + rng.next_below((e + 1) / 2);
      stride = block + 1 + rng.next_below(3);
      start = rng.next_below(e - block + 1);
      count = 1 + rng.next_below(1 + (e - start - block) / stride);
      break;
  }
  slab.start.push_back(start);
  slab.stride.push_back(stride);
  slab.block.push_back(block);
  slab.count.push_back(count);
}

Selection draw_selection(Rng& rng, const Dims& extent) {
  if (rng.next_below(10) == 0) return Selection::all();
  Hyperslab slab;
  for (const std::uint64_t e : extent) draw_dim(rng, e, slab);
  // Empty stride and block lists mean all-ones.
  const auto ones = [](const Dims& d) {
    return std::all_of(d.begin(), d.end(), [](std::uint64_t v) { return v == 1; });
  };
  if (ones(slab.stride) && rng.next_below(2) == 0) slab.stride.clear();
  if (ones(slab.block) && rng.next_below(2) == 0) slab.block.clear();
  return Selection::hyperslab(std::move(slab));
}

Dims draw_extent(Rng& rng) {
  Dims extent(1 + rng.next_below(4));
  const std::uint64_t max = extent.size() <= 2 ? 14 : 6;
  for (auto& e : extent) e = 1 + rng.next_below(max);
  return extent;
}

/// Linear indices of the selected elements, in row-major order.
std::vector<std::uint64_t> brute_force(const Dims& extent, const Selection& selection) {
  std::vector<std::uint64_t> out;
  const std::uint64_t n = h5::num_elements(extent);
  Dims coord(extent.size());
  for (std::uint64_t idx = 0; idx < n; ++idx) {
    std::uint64_t rest = idx;
    for (std::size_t d = extent.size(); d-- > 0;) {
      coord[d] = rest % extent[d];
      rest /= extent[d];
    }
    bool in = true;
    if (!selection.is_all()) {
      const Hyperslab& s = selection.slab();
      for (std::size_t d = 0; d < extent.size() && in; ++d) {
        const std::uint64_t stride = s.stride.empty() ? 1 : s.stride[d];
        const std::uint64_t block = s.block.empty() ? 1 : s.block[d];
        if (coord[d] < s.start[d]) {
          in = false;
          continue;
        }
        const std::uint64_t rel = coord[d] - s.start[d];
        // A single block may be longer than its stride.
        const std::uint64_t b = s.count[d] == 1 ? 0 : rel / stride;
        in = b < s.count[d] && rel - b * stride < block;
      }
    }
    if (in) out.push_back(idx);
  }
  return out;
}

using Runs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Maximal runs of consecutive indices; with `row` > 0, also split at
/// multiples of `row`.
Runs runs_of(const std::vector<std::uint64_t>& idx, std::uint64_t row) {
  Runs runs;
  for (const std::uint64_t i : idx) {
    const bool joins = !runs.empty() && runs.back().first + runs.back().second == i &&
                       (row == 0 || i % row != 0);
    if (joins) {
      ++runs.back().second;
    } else {
      runs.emplace_back(i, 1);
    }
  }
  return runs;
}

/// Checks both walks of one draw against the enumerator.
void expect_walks_match(const Dims& extent, const Selection& selection) {
  ASSERT_NO_THROW(selection.validate(extent));
  const std::vector<std::uint64_t> selected = brute_force(extent, selection);
  ASSERT_EQ(selected.size(), selection.npoints(extent));

  Runs runs;
  h5::for_each_run(extent, selection, [&](std::uint64_t off, std::uint64_t n) {
    runs.emplace_back(off, n);
  });
  ASSERT_EQ(runs, runs_of(selected, 0)) << "for_each_run";

  const auto pitch = h5::row_pitches(extent);
  Runs rows;
  h5::for_each_row_run(extent, selection, [&](const Dims& start, std::uint64_t n) {
    std::uint64_t linear = 0;
    for (std::size_t d = 0; d < start.size(); ++d) linear += start[d] * pitch[d];
    rows.emplace_back(linear, n);
  });
  ASSERT_EQ(rows, runs_of(selected, extent.back())) << "for_each_row_run";
}

TEST(HyperslabGeneratorTest, WalksMatchABruteForceEnumerator) {
  for (const std::uint64_t seed : run_seeds(3901)) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int draw = 0; draw < 1000; ++draw) {
      SCOPED_TRACE("draw " + std::to_string(draw));
      const Dims extent = draw_extent(rng);
      ASSERT_NO_FATAL_FAILURE(expect_walks_match(extent, draw_selection(rng, extent)));
    }
  }
}

TEST(HyperslabGeneratorTest, RanksPastTheInlineOdometerWalkTheSame) {
  // Past RunWalker::kInlineRank the odometer keeps its digits on the heap.
  for (const std::uint64_t seed : run_seeds(3921)) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int draw = 0; draw < 50; ++draw) {
      SCOPED_TRACE("draw " + std::to_string(draw));
      Dims extent(h5::RunWalker::kInlineRank + 1 + rng.next_below(2));
      for (auto& e : extent) e = 1 + rng.next_below(3);
      ASSERT_NO_FATAL_FAILURE(expect_walks_match(extent, draw_selection(rng, extent)));
    }
  }
}

TEST(HyperslabGeneratorTest, DatasetTransfersMatchAFlatArray) {
  for (const std::uint64_t seed : run_seeds(3911)) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int draw = 0; draw < 40; ++draw) {
      const Dims extent = draw_extent(rng);
      Dims chunk(extent.size());
      for (std::size_t d = 0; d < extent.size(); ++d) chunk[d] = 1 + rng.next_below(extent[d]);
      // The same writes go through all four planner configurations.
      std::vector<Selection> selections;
      for (int w = 0; w < 4; ++w) selections.push_back(draw_selection(rng, extent));
      for (const bool chunked : {false, true}) {
        for (const bool vectored : {true, false}) {
          SCOPED_TRACE(std::string(chunked ? "chunked" : "contiguous") +
                       (vectored ? " vectored" : " scalar") + ", draw " + std::to_string(draw));
          h5::FileProps props;
          props.vectored_io = vectored;
          auto file = h5::File::create(std::make_shared<storage::MemoryBackend>(), props);
          auto ds = file->root().create_dataset(
              "d", h5::Datatype::kInt32, extent,
              chunked ? h5::DatasetCreateProps::chunked(chunk) : h5::DatasetCreateProps{});
          std::vector<std::int32_t> model(h5::num_elements(extent), 0);
          for (const Selection& selection : selections) {
            const std::vector<std::uint64_t> selected = brute_force(extent, selection);
            std::vector<std::int32_t> values(selected.size());
            for (auto& v : values) v = static_cast<std::int32_t>(rng.next_u64());
            ds.write(selection, std::span<const std::int32_t>(values));
            for (std::size_t i = 0; i < selected.size(); ++i) model[selected[i]] = values[i];
            ASSERT_EQ(ds.read_vector<std::int32_t>(selection), values);
          }
          ASSERT_EQ(ds.read_vector<std::int32_t>(Selection::all()), model);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FairScheduler

/// The documented admission rule, one channel slot, straight-line: any
/// queued priority request is granted before any bulk one; within a
/// lane the tenant whose head has the smallest start = max(vtime, V)
/// wins, then the earlier arrival.  A grant charges bytes / weight to
/// its tenant's vtime, and only a bulk grant moves V to its start.
class ReferenceSfq {
 public:
  struct Tenant {
    double weight = 1.0;
    double vtime = 0.0;
    std::deque<std::pair<std::uint64_t, std::uint64_t>> queue[sched::kLanes];  // (seq, bytes)
    std::uint64_t dispatched_bytes = 0;
    std::uint64_t lane_bytes[sched::kLanes] = {0, 0};
  };

  explicit ReferenceSfq(const std::vector<double>& weights) {
    for (const double w : weights) tenants_.emplace_back().weight = w;
  }

  void submit(std::size_t tenant, sched::Lane lane, std::uint64_t bytes) {
    tenants_[tenant].queue[static_cast<int>(lane)].emplace_back(next_seq_++, bytes);
    dispatch();
  }

  void complete() {
    busy_ = false;
    dispatch();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& grants() const { return grants_; }
  [[nodiscard]] const Tenant& tenant(std::size_t i) const { return tenants_[i]; }

 private:
  void dispatch() {
    if (busy_) return;
    for (int lane = 0; lane < sched::kLanes; ++lane) {
      Tenant* best = nullptr;
      double best_start = 0.0;
      for (Tenant& t : tenants_) {
        if (t.queue[lane].empty()) continue;
        const double start = std::max(t.vtime, v_);
        if (best == nullptr || start < best_start ||
            (start == best_start && t.queue[lane].front().first < best->queue[lane].front().first)) {
          best = &t;
          best_start = start;
        }
      }
      if (best == nullptr) continue;
      const auto [seq, bytes] = best->queue[lane].front();
      best->queue[lane].pop_front();
      if (lane == static_cast<int>(sched::Lane::kBulk)) v_ = best_start;
      best->vtime = best_start + static_cast<double>(bytes) / best->weight;
      best->dispatched_bytes += bytes;
      best->lane_bytes[lane] += bytes;
      grants_.push_back(seq);
      busy_ = true;
      return;
    }
  }

  std::vector<Tenant> tenants_;
  double v_ = 0.0;
  bool busy_ = false;
  std::uint64_t next_seq_ = 0;
  std::vector<std::uint64_t> grants_;
};

TEST(FairSchedulerGeneratorTest, GrantOrderMatchesAReferenceSfq) {
  // One thread drives the scheduler: submit() grants at once when the
  // slot is free, and completing the granted ticket grants the next.
  // Completions are drawn less often than submits, so both lanes queue
  // up across tenants.  The sequence ends by completing every grant.
  for (const std::uint64_t seed : run_seeds(4101)) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int draw = 0; draw < 60; ++draw) {
      SCOPED_TRACE("draw " + std::to_string(draw));
      ManualClock clock;
      sched::FairScheduler scheduler(&clock);
      std::vector<double> weights(1 + rng.next_below(4));
      for (std::size_t i = 0; i < weights.size(); ++i) {
        weights[i] = static_cast<double>(1 + rng.next_below(4));
        scheduler.register_tenant("t" + std::to_string(i), weights[i]);
      }
      ReferenceSfq model(weights);
      std::vector<sched::TicketPtr> pending;
      sched::TicketPtr held;
      std::vector<std::uint64_t> grants;
      // Moves the ticket the last step granted, if any, from pending to held.
      const auto note_grant = [&] {
        const auto it = std::find_if(pending.begin(), pending.end(),
                                     [](const sched::TicketPtr& t) { return t->granted(); });
        if (it == pending.end()) return;
        ASSERT_TRUE(held == nullptr) << "two tickets hold the one slot";
        held = *it;
        pending.erase(it);
        grants.push_back(held->seq());
      };
      const auto complete = [&] {
        scheduler.complete(held);
        held = nullptr;
        model.complete();
        note_grant();
      };
      for (int step = 0; step < 200; ++step) {
        if (held != nullptr && rng.next_below(5) < 2) {
          ASSERT_NO_FATAL_FAILURE(complete());
          continue;
        }
        const std::size_t tenant = rng.next_below(weights.size());
        const auto lane = rng.next_below(2) == 0 ? sched::Lane::kPriority : sched::Lane::kBulk;
        const std::uint64_t bytes = rng.next_below((1u << 20) + 1);
        sched::IoRequest request;
        request.tenant = "t" + std::to_string(tenant);
        request.lane = lane;
        request.bytes = bytes;
        pending.push_back(scheduler.submit(request));
        model.submit(tenant, lane, bytes);
        ASSERT_NO_FATAL_FAILURE(note_grant());
      }
      while (held != nullptr) ASSERT_NO_FATAL_FAILURE(complete());
      ASSERT_TRUE(pending.empty());

      ASSERT_EQ(grants, model.grants());
      const sched::SchedStats stats = scheduler.stats();
      for (std::size_t i = 0; i < weights.size(); ++i) {
        SCOPED_TRACE("tenant " + std::to_string(i));
        const sched::TenantStats& got = stats.tenants.at("t" + std::to_string(i));
        const ReferenceSfq::Tenant& want = model.tenant(i);
        EXPECT_EQ(got.dispatched_bytes, want.dispatched_bytes);
        for (int lane = 0; lane < sched::kLanes; ++lane) {
          EXPECT_EQ(got.lane_bytes[lane], want.lane_bytes[lane]) << "lane " << lane;
        }
      }
    }
  }
}

}  // namespace
}  // namespace apio
