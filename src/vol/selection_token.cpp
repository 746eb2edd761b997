#include "vol/selection_token.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/error.h"

namespace apio::vol {
namespace {

std::string dims_token(const h5::Dims& dims) {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) s += 'x';
    s += std::to_string(dims[i]);
  }
  return s;
}

h5::Dims parse_dims_token(const std::string& token) {
  h5::Dims dims;
  std::size_t pos = 0;
  while (pos < token.size()) {
    std::size_t end = token.find('x', pos);
    if (end == std::string::npos) end = token.size();
    dims.push_back(std::strtoull(token.substr(pos, end - pos).c_str(), nullptr, 10));
    pos = end + 1;
  }
  return dims;
}

}  // namespace

std::string selection_to_token(const h5::Selection& selection) {
  if (selection.is_all()) return "all";
  const auto& slab = selection.slab();
  // Offset/count selections encode compactly; strided slabs carry all
  // four dim lists.
  std::string s = dims_token(slab.start) + ":" + dims_token(slab.count);
  if (!slab.stride.empty() || !slab.block.empty()) {
    s += ":" + dims_token(slab.stride.empty() ? h5::Dims(slab.start.size(), 1)
                                              : slab.stride);
    s += ":" + dims_token(slab.block.empty() ? h5::Dims(slab.start.size(), 1)
                                             : slab.block);
  }
  return s;
}

h5::Selection selection_from_token(const std::string& token) {
  if (token.empty() || token == "all") return h5::Selection::all();
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= token.size()) {
    std::size_t end = token.find(':', pos);
    if (end == std::string::npos) end = token.size();
    parts.push_back(token.substr(pos, end - pos));
    pos = end + 1;
  }
  if (parts.size() != 2 && parts.size() != 4) {
    throw FormatError("malformed selection token '" + token + "'");
  }
  h5::Hyperslab slab;
  slab.start = parse_dims_token(parts[0]);
  slab.count = parse_dims_token(parts[1]);
  if (parts.size() == 4) {
    slab.stride = parse_dims_token(parts[2]);
    slab.block = parse_dims_token(parts[3]);
  }
  return h5::Selection::hyperslab(std::move(slab));
}

std::uint64_t selection_offset_bytes(const h5::Selection& selection,
                                     const h5::Dims& dims,
                                     std::uint64_t element_size) {
  if (selection.is_all()) return 0;
  const auto pitches = h5::row_pitches(dims);
  const h5::Dims& start = selection.slab().start;
  std::uint64_t elems = 0;
  const std::size_t rank = std::min(start.size(), pitches.size());
  for (std::size_t i = 0; i < rank; ++i) elems += start[i] * pitches[i];
  return elems * element_size;
}

}  // namespace apio::vol
