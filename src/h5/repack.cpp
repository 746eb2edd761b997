#include "h5/repack.h"

#include <algorithm>

#include "common/error.h"

namespace apio::h5 {
namespace {

void visit_group(const std::string& path, Group group, const ObjectVisitor& visitor) {
  if (visitor.on_group) visitor.on_group(path, group);
  for (const auto& name : group.dataset_names()) {
    if (visitor.on_dataset) {
      visitor.on_dataset(meta::child_path(path, name), group.open_dataset(name));
    }
  }
  for (const auto& name : group.group_names()) {
    visit_group(meta::child_path(path, name), group.open_group(name), visitor);
  }
}

void copy_attributes(const auto& from, auto& to, RepackResult& result) {
  for (const auto& name : from.attribute_names()) {
    const meta::AttributeNode attr = from.attribute_info(name);
    to.set_attribute_raw(attr.name, attr.dtype, attr.dims, attr.value);
    ++result.attributes_copied;
  }
}

void copy_dataset_contents(Dataset src, Dataset dst, std::uint64_t buffer_bytes,
                           RepackResult& result) {
  const Dims& dims = src.dims();
  const std::uint64_t total_bytes = src.byte_size();
  if (total_bytes == 0) return;

  if (dims.empty()) {
    std::vector<std::byte> buf(src.element_size());
    src.read_raw(Selection::all(), buf);
    dst.write_raw(Selection::all(), buf);
    result.bytes_copied += buf.size();
    return;
  }

  // Copy slab-wise along dimension 0.
  std::uint64_t row_bytes = src.element_size();
  for (std::size_t i = 1; i < dims.size(); ++i) row_bytes *= dims[i];
  const std::uint64_t rows_per_batch =
      std::max<std::uint64_t>(1, buffer_bytes / std::max<std::uint64_t>(row_bytes, 1));

  for (std::uint64_t row = 0; row < dims[0]; row += rows_per_batch) {
    const std::uint64_t batch = std::min(rows_per_batch, dims[0] - row);
    Dims start(dims.size(), 0);
    start[0] = row;
    Dims count = dims;
    count[0] = batch;
    const Selection slab = Selection::offsets(start, count);
    std::vector<std::byte> buf(batch * row_bytes);
    src.read_raw(slab, buf);
    dst.write_raw(slab, buf);
    result.bytes_copied += buf.size();
  }
}

}  // namespace

void visit_objects(const FilePtr& file, const ObjectVisitor& visitor) {
  APIO_REQUIRE(file != nullptr && file->is_open(), "visit_objects needs an open file");
  visit_group("", file->root(), visitor);
}

RepackResult repack(const FilePtr& source, const FilePtr& destination,
                    RepackOptions options) {
  APIO_REQUIRE(source != nullptr && source->is_open(), "repack needs an open source");
  APIO_REQUIRE(destination != nullptr && destination->is_open(),
               "repack needs an open destination");
  APIO_REQUIRE(options.copy_buffer_bytes >= 1, "copy buffer must be >= 1 byte");

  RepackResult result;
  result.source_size = source->end_of_file();

  ObjectVisitor visitor;
  visitor.on_group = [&](const std::string& path, Group group) {
    Group dst = path.empty() ? destination->root() : destination->ensure_path(path);
    copy_attributes(group, dst, result);
    if (!path.empty()) ++result.groups_copied;
  };
  visitor.on_dataset = [&](const std::string& path, Dataset src) {
    const std::size_t slash = path.rfind('/');
    Group parent = slash == std::string::npos
                       ? destination->root()
                       : destination->ensure_path(path.substr(0, slash));
    DatasetCreateProps props;
    props.layout = src.layout();
    props.chunk_dims = src.chunk_dims();
    props.filter = src.filter();
    if (options.refilter.has_value() && src.layout() == Layout::kChunked) {
      props.filter = *options.refilter;
    }
    Dataset dst = parent.create_dataset(src.name(), src.dtype(), src.dims(), props);
    copy_attributes(src, dst, result);
    copy_dataset_contents(src, dst, options.copy_buffer_bytes, result);
    ++result.datasets_copied;
  };
  visit_objects(source, visitor);

  destination->flush();
  result.packed_size = destination->end_of_file();
  return result;
}

}  // namespace apio::h5
