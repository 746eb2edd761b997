// apio-ls: lists the object tree of an apio-h5 container, in the
// spirit of h5ls.  For each dataset prints datatype, dataspace, layout
// and logical size; groups are walked recursively.
//
// Usage: apio_ls <container.h5>
#include <cstdio>
#include <string>

#include "common/error.h"
#include "common/units.h"
#include "h5/file.h"

namespace {

std::string dims_string(const apio::h5::Dims& dims) {
  if (dims.empty()) return "scalar";
  std::string s = "[";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) s += " x ";
    s += std::to_string(dims[i]);
  }
  return s + "]";
}

void list_group(apio::h5::Group group, const std::string& prefix) {
  using namespace apio::h5;
  for (const auto& name : group.dataset_names()) {
    Dataset ds = group.open_dataset(name);
    const std::string layout = ds.layout() == Layout::kContiguous
                                   ? "contiguous"
                                   : "chunked " + dims_string(ds.chunk_dims());
    std::printf("%s%-24s dataset  %-8s %-20s %-28s %s\n", prefix.c_str(),
                name.c_str(), datatype_name(ds.dtype()).c_str(),
                dims_string(ds.dims()).c_str(), layout.c_str(),
                apio::format_bytes(ds.byte_size()).c_str());
  }
  for (const auto& name : group.group_names()) {
    std::printf("%s%-24s group\n", prefix.c_str(), (name + "/").c_str());
    list_group(group.open_group(name), prefix + "  ");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <container.h5>\n", argv[0]);
    return 2;
  }
  try {
    auto file = apio::h5::open_file(argv[1]);
    std::printf("%s  (end of file: %s)\n", argv[1],
                apio::format_bytes(file->end_of_file()).c_str());
    list_group(file->root(), "  ");
  } catch (const apio::Error& e) {
    std::fprintf(stderr, "apio_ls: %s\n", e.what());
    return 1;
  }
  return 0;
}
