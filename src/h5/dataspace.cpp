#include "h5/dataspace.h"

#include "common/error.h"

namespace apio::h5 {
namespace {

std::uint64_t dim_or_one(const Dims& dims, std::size_t i) {
  return dims.empty() ? 1 : dims[i];
}

std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b, const char* what) {
  std::uint64_t r = 0;
  APIO_REQUIRE(!__builtin_mul_overflow(a, b, &r), what);
  return r;
}

std::uint64_t checked_add(std::uint64_t a, std::uint64_t b, const char* what) {
  std::uint64_t r = 0;
  APIO_REQUIRE(!__builtin_add_overflow(a, b, &r), what);
  return r;
}

}  // namespace

std::uint64_t Hyperslab::npoints() const {
  // Rank guards first: a block/stride list shorter than count would
  // index out of bounds below (dim_or_one only handles the empty case).
  APIO_REQUIRE(block.empty() || block.size() == count.size(),
               "hyperslab block rank mismatch");
  std::uint64_t n = 1;
  for (std::size_t i = 0; i < count.size(); ++i) {
    const std::uint64_t per_dim = checked_mul(count[i], dim_or_one(block, i),
                                              "hyperslab point count overflows");
    n = checked_mul(n, per_dim, "hyperslab point count overflows");
  }
  return n;
}

Selection Selection::all() { return Selection{}; }

Selection Selection::hyperslab(Hyperslab slab) {
  Selection s;
  s.is_all_ = false;
  s.slab_ = std::move(slab);
  return s;
}

Selection Selection::offsets(Dims start, Dims count) {
  Hyperslab slab;
  slab.start = std::move(start);
  slab.count = std::move(count);
  return hyperslab(std::move(slab));
}

std::uint64_t Selection::npoints(const Dims& extent) const {
  if (is_all_) return num_elements(extent);
  return slab_.npoints();
}

void Selection::validate(const Dims& extent) const {
  if (is_all_) return;
  const std::size_t rank = extent.size();
  APIO_REQUIRE(slab_.start.size() == rank && slab_.count.size() == rank,
               "hyperslab rank does not match dataspace rank");
  APIO_REQUIRE(slab_.stride.empty() || slab_.stride.size() == rank,
               "hyperslab stride rank mismatch");
  APIO_REQUIRE(slab_.block.empty() || slab_.block.size() == rank,
               "hyperslab block rank mismatch");
  for (std::size_t i = 0; i < rank; ++i) {
    const std::uint64_t stride = dim_or_one(slab_.stride, i);
    const std::uint64_t block = dim_or_one(slab_.block, i);
    APIO_REQUIRE(stride >= 1, "hyperslab stride must be >= 1");
    APIO_REQUIRE(block >= 1, "hyperslab block must be >= 1");
    APIO_REQUIRE(block <= stride || slab_.count[i] <= 1,
                 "hyperslab blocks overlap (block > stride)");
    if (slab_.count[i] == 0) continue;
    // Checked arithmetic: a huge stride/count must report "exceeds
    // extent", not wrap to a small offset that passes the bound check
    // and reads/writes the wrong elements.
    const std::uint64_t span =
        checked_mul(slab_.count[i] - 1, stride, "hyperslab exceeds dataspace extent");
    const std::uint64_t last = checked_add(
        checked_add(slab_.start[i], span, "hyperslab exceeds dataspace extent"),
        block, "hyperslab exceeds dataspace extent");
    APIO_REQUIRE(last <= extent[i], "hyperslab exceeds dataspace extent");
  }
}

std::uint64_t num_elements(const Dims& extent) {
  std::uint64_t n = 1;
  for (std::uint64_t d : extent) {
    n = checked_mul(n, d, "dataspace element count overflows");
  }
  return n;
}

std::vector<std::uint64_t> row_pitches(const Dims& extent) {
  std::vector<std::uint64_t> pitch(extent.size(), 1);
  for (std::size_t i = extent.size(); i-- > 1;) {
    pitch[i - 1] = pitch[i] * extent[i];
  }
  return pitch;
}

RunWalker::RunWalker(const Dims& extent, const Selection& selection, bool fold_rows)
    : rank_(extent.size()) {
  if (rank_ > kInlineRank) spill_.resize(rank_);
  dims_ = rank_ > kInlineRank ? spill_.data() : inline_.data();
  std::uint64_t pitch = 1;
  for (std::size_t d = rank_; d-- > 0;) {
    Dim& s = dims_[d];
    s.pitch = pitch;
    pitch *= extent[d];
    if (selection.is_all()) {
      s.count = extent[d];
    } else {
      const Hyperslab& slab = selection.slab();
      s.start = slab.start[d];
      s.stride = dim_or_one(slab.stride, d);
      s.block = dim_or_one(slab.block, d);
      s.count = slab.count[d];
    }
    s.coord = s.start;
    offset_ += s.start * s.pitch;
    done_ = done_ || s.count == 0;
  }
  // The last dimension steps one block per run, or one row per run when
  // packed (block == stride).  A run that covers its rows whole folds in
  // the dimension above, whose rows then follow each other in the file.
  for (std::size_t last = rank_; last-- > 0;) {
    Dim& s = dims_[last];
    if (s.stride == s.block) {
      s.block *= s.count;
      s.count = 1;
    }
    count_ = s.block * s.pitch;
    s.block = 1;
    rank_ = last + 1;
    if (!fold_rows || last == 0 || count_ != extent[last] * s.pitch) break;
  }
  for (std::size_t d = 0; d < rank_; ++d) runs_ *= dims_[d].block * dims_[d].count;
  if (done_) runs_ = 0;
}

void RunWalker::advance() {
  for (std::size_t d = rank_; d-- > 0;) {
    Dim& s = dims_[d];
    if (++s.k < s.block) {
      ++s.coord;
      offset_ += s.pitch;
      return;
    }
    s.k = 0;
    if (++s.b < s.count) {
      const std::uint64_t jump = s.stride - s.block + 1;
      s.coord += jump;
      offset_ += jump * s.pitch;
      return;
    }
    s.b = 0;
    offset_ -= (s.coord - s.start) * s.pitch;
    s.coord = s.start;
  }
  done_ = true;
}

}  // namespace apio::h5
