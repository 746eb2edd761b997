#include "h5/metadata.h"

#include "common/error.h"

namespace apio::h5::meta {
namespace {

constexpr std::uint8_t kAttrTag = 0xA1;
constexpr std::uint8_t kDatasetTag = 0xD5;
constexpr std::uint8_t kGroupTag = 0x6F;

void put_dims(ByteWriter& out, const Dims& dims) {
  out.put_u32(static_cast<std::uint32_t>(dims.size()));
  for (std::uint64_t d : dims) out.put_u64(d);
}

Dims get_dims(ByteReader& in) {
  const std::uint32_t rank = in.get_u32();
  if (rank > 32) throw FormatError("implausible dataspace rank " + std::to_string(rank));
  Dims dims(rank);
  for (auto& d : dims) d = in.get_u64();
  return dims;
}

void put_attribute(ByteWriter& out, const AttributeNode& attr) {
  out.put_u8(kAttrTag);
  out.put_string(attr.name);
  out.put_u8(static_cast<std::uint8_t>(attr.dtype));
  put_dims(out, attr.dims);
  out.put_u64(attr.value.size());
  out.put_bytes(attr.value);
}

AttributeNode get_attribute(ByteReader& in) {
  if (in.get_u8() != kAttrTag) throw FormatError("bad attribute tag");
  AttributeNode attr;
  attr.name = in.get_string();
  attr.dtype = datatype_from_code(in.get_u8());
  attr.dims = get_dims(in);
  const std::uint64_t n = in.get_u64();
  auto bytes = in.get_bytes(n);
  attr.value.assign(bytes.begin(), bytes.end());
  return attr;
}

void put_attributes(ByteWriter& out, const std::vector<AttributeNode>& attrs) {
  out.put_u32(static_cast<std::uint32_t>(attrs.size()));
  for (const auto& a : attrs) put_attribute(out, a);
}

std::vector<AttributeNode> get_attributes(ByteReader& in) {
  const std::uint32_t n = in.get_u32();
  std::vector<AttributeNode> attrs;
  attrs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) attrs.push_back(get_attribute(in));
  return attrs;
}

void put_dataset(ByteWriter& out, const DatasetNode& ds) {
  out.put_u8(kDatasetTag);
  out.put_string(ds.name);
  out.put_u8(static_cast<std::uint8_t>(ds.dtype));
  put_dims(out, ds.dims);
  out.put_u8(static_cast<std::uint8_t>(ds.layout));
  put_dims(out, ds.chunk_dims);
  out.put_u8(static_cast<std::uint8_t>(ds.filter));
  out.put_u64(ds.data_offset);
  out.put_u64(ds.data_size);
  out.put_u64(ds.chunks.size());
  for (const auto& [coords, loc] : ds.chunks) {
    put_dims(out, coords);
    out.put_u64(loc.offset);
    out.put_u64(loc.stored_size);
    out.put_u64(loc.allocated_size);
  }
  put_attributes(out, ds.attributes);
}

std::unique_ptr<DatasetNode> get_dataset(ByteReader& in, const GroupNode& parent) {
  if (in.get_u8() != kDatasetTag) throw FormatError("bad dataset tag");
  auto ds = std::make_unique<DatasetNode>();
  ds->name = in.get_string();
  ds->path = child_path(parent.path, ds->name);
  ds->dtype = datatype_from_code(in.get_u8());
  ds->dims = get_dims(in);
  const std::uint8_t layout = in.get_u8();
  if (layout > 1) throw FormatError("bad layout code");
  ds->layout = static_cast<Layout>(layout);
  ds->chunk_dims = get_dims(in);
  ds->filter = filter_from_code(in.get_u8());
  ds->data_offset = in.get_u64();
  ds->data_size = in.get_u64();
  const std::uint64_t nchunks = in.get_u64();
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    Dims coords = get_dims(in);
    ChunkLocation loc;
    loc.offset = in.get_u64();
    loc.stored_size = in.get_u64();
    loc.allocated_size = in.get_u64();
    ds->chunks.emplace(std::move(coords), loc);
  }
  ds->attributes = get_attributes(in);
  return ds;
}

void put_group(ByteWriter& out, const GroupNode& group) {
  out.put_u8(kGroupTag);
  out.put_string(group.name);
  put_attributes(out, group.attributes);
  out.put_u32(static_cast<std::uint32_t>(group.datasets.size()));
  for (const auto& [name, ds] : group.datasets) put_dataset(out, *ds);
  out.put_u32(static_cast<std::uint32_t>(group.groups.size()));
  for (const auto& [name, child] : group.groups) put_group(out, *child);
}

/// `parent` is null for the root.
std::unique_ptr<GroupNode> get_group(ByteReader& in, const GroupNode* parent) {
  if (in.get_u8() != kGroupTag) throw FormatError("bad group tag");
  auto group = std::make_unique<GroupNode>();
  group->name = in.get_string();
  if (parent != nullptr) group->path = child_path(parent->path, group->name);
  group->attributes = get_attributes(in);
  const std::uint32_t ndatasets = in.get_u32();
  for (std::uint32_t i = 0; i < ndatasets; ++i) {
    auto ds = get_dataset(in, *group);
    std::string name = ds->name;
    group->datasets.emplace(std::move(name), std::move(ds));
  }
  const std::uint32_t ngroups = in.get_u32();
  for (std::uint32_t i = 0; i < ngroups; ++i) {
    auto child = get_group(in, group.get());
    std::string name = child->name;
    group->groups.emplace(std::move(name), std::move(child));
  }
  return group;
}

}  // namespace

std::string child_path(const std::string& parent, const std::string& name) {
  return parent.empty() ? name : parent + "/" + name;
}

void serialize_tree(const GroupNode& root, ByteWriter& out) {
  put_group(out, root);
}

std::unique_ptr<GroupNode> deserialize_tree(ByteReader& in) {
  return get_group(in, nullptr);
}

}  // namespace apio::h5::meta
