#include "storage/byte_ranges.h"

#include <algorithm>
#include <iterator>

namespace apio::storage {

bool ByteRanges::add(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return false;
  auto it = runs_.upper_bound(begin);
  const bool before = it != runs_.begin() && std::prev(it)->second >= begin;
  const bool met = (before && std::prev(it)->second > begin) ||
                   (it != runs_.end() && it->first < end);
  // `merged` counts the recorded bytes of the runs folded into `it`.
  std::uint64_t merged = 0;
  if (before) {
    it = std::prev(it);
    merged = it->second - it->first;
  } else {
    it = runs_.emplace_hint(it, begin, end);
  }
  // `it` covers `begin`: absorb every later run that starts by its end.
  it->second = std::max(it->second, end);
  for (auto next = std::next(it); next != runs_.end() && next->first <= it->second;
       next = runs_.erase(next)) {
    merged += next->second - next->first;
    it->second = std::max(it->second, next->second);
  }
  bytes_ += (it->second - it->first) - merged;
  return met;
}

void ByteRanges::subtract(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  auto it = runs_.upper_bound(begin);
  if (it != runs_.begin() && std::prev(it)->second > begin) --it;
  while (it != runs_.end() && it->first < end) {
    const auto [b, e] = *it;
    bytes_ -= std::min(e, end) - std::max(b, begin);
    if (b < begin) {
      it->second = begin;
      ++it;
    } else {
      it = runs_.erase(it);
    }
    if (e > end) {
      runs_.emplace_hint(it, end, e);
      break;
    }
  }
}

ByteRanges::Map::const_iterator ByteRanges::first_ending_after(std::uint64_t at) const {
  auto it = runs_.upper_bound(at);
  if (it != runs_.begin() && std::prev(it)->second > at) --it;
  return it;
}

bool ByteRanges::overlaps(std::uint64_t begin, std::uint64_t end) const {
  if (begin >= end) return false;
  const auto it = first_ending_after(begin);
  return it != runs_.end() && it->first < end;
}

void ByteRanges::gaps(std::uint64_t begin, std::uint64_t end, Runs& out) const {
  if (begin >= end) return;
  std::uint64_t pos = begin;
  for (auto it = first_ending_after(begin); it != runs_.end() && it->first < end; ++it) {
    if (it->first > pos) out.emplace_back(pos, it->first);
    pos = it->second;
  }
  if (pos < end) out.emplace_back(pos, end);
}

void ByteRanges::clipped(std::uint64_t begin, std::uint64_t end, Runs& out) const {
  if (begin >= end) return;
  for (auto it = first_ending_after(begin); it != runs_.end() && it->first < end; ++it) {
    out.emplace_back(std::max(it->first, begin), std::min(it->second, end));
  }
}

}  // namespace apio::storage
