#include "h5/file.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <type_traits>

#include "common/crc32.h"
#include "common/error.h"
#include "h5/io_vector.h"
#include "storage/posix_backend.h"

namespace apio::h5 {
namespace {

constexpr char kMagic[8] = {'A', 'P', 'I', 'O', 'H', '5', 'F', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint64_t kSuperblockSize = 64;

std::uint64_t align_up(std::uint64_t v, std::uint64_t alignment) {
  if (alignment <= 1) return v;
  return (v + alignment - 1) / alignment * alignment;
}

meta::AttributeNode* find_attribute(std::vector<meta::AttributeNode>& attrs,
                                    const std::string& name) {
  for (auto& a : attrs) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const meta::AttributeNode* find_attribute(const std::vector<meta::AttributeNode>& attrs,
                                          const std::string& name) {
  for (const auto& a : attrs) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

void set_attribute_impl(std::vector<meta::AttributeNode>& attrs,
                        const std::string& name, Datatype dtype, Dims dims,
                        std::span<const std::byte> value) {
  const std::uint64_t expected = num_elements(dims) * datatype_size(dtype);
  APIO_REQUIRE(value.size() == expected, "attribute value size mismatch");
  meta::AttributeNode* node = find_attribute(attrs, name);
  if (node == nullptr) {
    attrs.emplace_back();
    node = &attrs.back();
    node->name = name;
  }
  node->dtype = dtype;
  node->dims = std::move(dims);
  node->value.assign(value.begin(), value.end());
}

void get_attribute_impl(const std::vector<meta::AttributeNode>& attrs,
                        const std::string& name, Datatype expected,
                        std::span<std::byte> out) {
  const meta::AttributeNode* node = find_attribute(attrs, name);
  if (node == nullptr) throw NotFoundError("attribute '" + name + "' not found");
  APIO_REQUIRE(node->dtype == expected,
               "attribute '" + name + "' has type " + datatype_name(node->dtype));
  APIO_REQUIRE(out.size() == node->value.size(), "attribute buffer size mismatch");
  std::memcpy(out.data(), node->value.data(), out.size());
}

void validate_name(const std::string& name) {
  APIO_REQUIRE(!name.empty(), "object names must be non-empty");
  APIO_REQUIRE(name.find('/') == std::string::npos,
               "object names must not contain '/' — use File::ensure_path");
}

/// Marks a group and everything below it removed.
void mark_removed(meta::GroupNode& group) {
  group.removed.store(true, std::memory_order_release);
  for (auto& [name, ds] : group.datasets) ds->removed.store(true, std::memory_order_release);
  for (auto& [name, child] : group.groups) mark_removed(*child);
}

/// Decomposes the rest of `walker`'s walk over a chunked dataset into
/// chunk-local segments: each row run is split at chunk boundaries of
/// the last dimension and reported as fn(chunk_coord, local_linear_elem,
/// seg_elems, buf_elem_off), where buf_elem_off is the segment's
/// position in the packed transfer buffer.  `walker` must not fold rows.
/// Dataset::plan is its one caller.
template <typename Fn>
void for_each_chunk_segment(RunWalker& walker, const Dims& chunk, Fn&& fn) {
  const auto cpitch = row_pitches(chunk);
  const std::size_t last = chunk.size() - 1;
  Dims chunk_coord(chunk.size());
  std::uint64_t buf_elem = 0;
  for (; !walker.done(); walker.advance()) {
    std::uint64_t local_rows = 0;
    for (std::size_t i = 0; i < last; ++i) {
      chunk_coord[i] = walker.coord(i) / chunk[i];
      local_rows += (walker.coord(i) % chunk[i]) * cpitch[i];
    }
    std::uint64_t col = walker.coord(last);
    for (std::uint64_t remaining = walker.count(); remaining > 0;) {
      chunk_coord[last] = col / chunk[last];
      const std::uint64_t local = col % chunk[last];
      const std::uint64_t seg = std::min<std::uint64_t>(remaining, chunk[last] - local);
      fn(static_cast<const Dims&>(chunk_coord), local_rows + local, seg, buf_elem);
      buf_elem += seg;
      remaining -= seg;
      col += seg;
    }
  }
}

/// File offset the planner reports for a segment of a chunk that was
/// never written; the read path zero-fills it.
constexpr std::uint64_t kUnwritten = ~std::uint64_t{0};

}  // namespace

// ---------------------------------------------------------------------------
// Dataset

const std::string& Dataset::name() const {
  require_valid();
  return node_->name;
}

Datatype Dataset::dtype() const {
  require_valid();
  return node_->dtype;
}

const Dims& Dataset::dims() const {
  require_valid();
  return node_->dims;
}

Layout Dataset::layout() const {
  require_valid();
  return node_->layout;
}

const Dims& Dataset::chunk_dims() const {
  require_valid();
  return node_->chunk_dims;
}

std::uint64_t Dataset::npoints() const {
  require_valid();
  return num_elements(node_->dims);
}

std::size_t Dataset::element_size() const {
  require_valid();
  return datatype_size(node_->dtype);
}

std::uint64_t Dataset::byte_size() const { return npoints() * element_size(); }

std::uint64_t Dataset::npoints_of(const Selection& selection) const {
  require_valid();
  return selection.npoints(node_->dims);
}

void Dataset::require_dtype(Datatype t) const {
  require_valid();
  APIO_REQUIRE(t == node_->dtype,
               "dataset '" + node_->name + "' holds " + datatype_name(node_->dtype) +
                   ", not " + datatype_name(t));
}

void Dataset::require_valid() const {
  if (file_ == nullptr || node_ == nullptr) throw StateError("null Dataset handle");
  if (!file_->is_open()) throw StateError("Dataset handle used after file close");
  if (node_->removed.load(std::memory_order_acquire)) {
    throw StateError("Dataset handle '" + node_->path + "' used after remove");
  }
}

template <typename Byte, typename Fn>
void Dataset::plan(const Selection& selection, std::span<Byte> buf, IoVector& iov,
                   Fn&& fn) const {
  constexpr bool kWrite = std::is_const_v<Byte>;
  // Validate before sizing: npoints() walks block/stride by count's
  // rank, so a malformed selection must be rejected before any code
  // indexes through it.
  selection.validate(node_->dims);
  const std::size_t elsize = element_size();
  const std::uint64_t n = npoints_of(selection);
  APIO_REQUIRE(buf.size() == n * elsize,
               std::string(kWrite ? "write" : "read") + " buffer size (" +
                   std::to_string(buf.size()) + ") != selection bytes (" +
                   std::to_string(n * elsize) + ")");
  if (n == 0) return;

  const bool contiguous = node_->layout == Layout::kContiguous;
  RunWalker walker(node_->dims, selection, /*fold_rows=*/contiguous);
  if (file_->props_.vectored_io) {
    if constexpr (kWrite) {
      iov.reserve_writes(walker.runs());
    } else {
      iov.reserve_reads(walker.runs());
    }
  }
  if (contiguous) {
    std::uint64_t buf_off = 0;
    for_each_run(walker, [&](std::uint64_t elem_off, std::uint64_t count) {
      fn(node_->data_offset + elem_off * elsize, buf.subspan(buf_off, count * elsize));
      buf_off += count * elsize;
    });
    return;
  }

  // Per-call chunk-offset cache: one meta_mutex_ acquisition per
  // touched chunk instead of one per segment.  A write allocates each
  // chunk on first touch, in walk order.
  const std::uint64_t chunk_bytes = num_elements(node_->chunk_dims) * elsize;
  std::map<Dims, std::uint64_t> chunk_offs;
  for_each_chunk_segment(
      walker, node_->chunk_dims,
      [&](const Dims& cc, std::uint64_t local_linear, std::uint64_t seg,
          std::uint64_t buf_elem) {
        auto it = chunk_offs.find(cc);
        if (it == chunk_offs.end()) {
          std::uint64_t off = kUnwritten;  // kept when the chunk was never written
          if constexpr (kWrite) {
            off = file_->chunk_offset_for_write(*node_, cc, chunk_bytes);
          } else {
            file_->chunk_offset_for_read(*node_, cc, off);
          }
          it = chunk_offs.emplace(cc, off).first;
        }
        const std::uint64_t off =
            it->second == kUnwritten ? kUnwritten : it->second + local_linear * elsize;
        fn(off, buf.subspan(buf_elem * elsize, seg * elsize));
      });
}

void Dataset::write_raw(const Selection& selection, std::span<const std::byte> data) {
  require_valid();
  storage::Backend& backend = *file_->backend_;
  const bool vectored = file_->props_.vectored_io;
  IoVector iov;
  plan(selection, data, iov, [&](std::uint64_t off, std::span<const std::byte> seg) {
    // The scalar A/B mode bypasses IoVector so no two segments merge.
    if (vectored) {
      iov.add_write(off, seg);
    } else {
      backend.write(off, seg);  // apio-lint: allow(io-vector)
    }
  });
  iov.write_to(backend);
}

void Dataset::read_raw(const Selection& selection, std::span<std::byte> out) const {
  require_valid();
  storage::Backend& backend = *file_->backend_;
  const bool vectored = file_->props_.vectored_io;
  IoVector iov;
  plan(selection, out, iov, [&](std::uint64_t off, std::span<std::byte> seg) {
    if (off == kUnwritten) {
      std::memset(seg.data(), 0, seg.size());  // fill value
    } else if (vectored) {
      iov.add_read(off, seg);
    } else {
      backend.read(off, seg);  // apio-lint: allow(io-vector)
    }
  });
  iov.read_from(backend);
}

void Dataset::set_extent(const Dims& new_dims) {
  require_valid();
  APIO_REQUIRE(node_->layout == Layout::kChunked,
               "set_extent requires a chunked dataset");
  APIO_REQUIRE(new_dims.size() == node_->dims.size(), "set_extent rank mismatch");
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  // Drop chunks lying entirely beyond the new extent: a shrink followed
  // by a regrow must read zero fill there, not resurrect stale data.
  // The chunk's file extent becomes dead space, never reclaimed,
  // matching how unlink treats raw data.
  for (auto it = node_->chunks.begin(); it != node_->chunks.end();) {
    bool outside = false;
    for (std::size_t i = 0; i < new_dims.size(); ++i) {
      if (it->first[i] * node_->chunk_dims[i] >= new_dims[i]) {
        outside = true;
        break;
      }
    }
    it = outside ? node_->chunks.erase(it) : std::next(it);
  }
  node_->dims = new_dims;
}

bool Dataset::has_attribute(const std::string& attr_name) const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  return find_attribute(node_->attributes, attr_name) != nullptr;
}

void Dataset::set_attribute_raw(const std::string& attr_name, Datatype dtype,
                                Dims dims, std::span<const std::byte> value) {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  set_attribute_impl(node_->attributes, attr_name, dtype, std::move(dims), value);
}

void Dataset::attribute_raw(const std::string& attr_name, Datatype expected,
                            std::span<std::byte> out) const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  get_attribute_impl(node_->attributes, attr_name, expected, out);
}

// ---------------------------------------------------------------------------
// Group

const std::string& Group::name() const {
  require_valid();
  return node_->name;
}

void Group::require_valid() const {
  if (file_ == nullptr || node_ == nullptr) throw StateError("null Group handle");
  if (!file_->is_open()) throw StateError("Group handle used after file close");
  if (node_->removed.load(std::memory_order_acquire)) {
    throw StateError("Group handle '" + node_->path + "' used after remove");
  }
}

Group Group::create_group(const std::string& child_name) {
  require_valid();
  validate_name(child_name);
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  APIO_REQUIRE(node_->groups.find(child_name) == node_->groups.end() &&
                   node_->datasets.find(child_name) == node_->datasets.end(),
               "name '" + child_name + "' already exists in group '" + node_->name + "'");
  auto child = std::make_unique<meta::GroupNode>();
  child->name = child_name;
  child->path = meta::child_path(node_->path, child_name);
  meta::GroupNode* raw = child.get();
  node_->groups.emplace(child_name, std::move(child));
  return Group(file_, raw);
}

Group Group::open_group(const std::string& child_name) const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  auto it = node_->groups.find(child_name);
  if (it == node_->groups.end()) {
    throw NotFoundError("group '" + child_name + "' not found in '" + node_->name + "'");
  }
  return Group(file_, it->second.get());
}

Group Group::require_group(const std::string& child_name) {
  require_valid();
  {
    std::lock_guard<std::mutex> lock(file_->meta_mutex_);
    auto it = node_->groups.find(child_name);
    if (it != node_->groups.end()) return Group(file_, it->second.get());
  }
  return create_group(child_name);
}

Dataset Group::create_dataset(const std::string& ds_name, Datatype dtype, Dims dims,
                              DatasetCreateProps props) {
  require_valid();
  validate_name(ds_name);
  if (props.layout == Layout::kChunked) {
    APIO_REQUIRE(props.chunk_dims.size() == dims.size(),
                 "chunk rank must match dataspace rank");
    for (std::uint64_t c : props.chunk_dims) {
      APIO_REQUIRE(c >= 1, "chunk dimensions must be >= 1");
    }
    APIO_REQUIRE(!dims.empty(), "chunked datasets must have rank >= 1");
  }

  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  APIO_REQUIRE(node_->datasets.find(ds_name) == node_->datasets.end() &&
                   node_->groups.find(ds_name) == node_->groups.end(),
               "name '" + ds_name + "' already exists in group '" + node_->name + "'");
  auto ds = std::make_unique<meta::DatasetNode>();
  ds->name = ds_name;
  ds->path = meta::child_path(node_->path, ds_name);
  ds->dtype = dtype;
  ds->dims = std::move(dims);
  ds->layout = props.layout;
  ds->chunk_dims = std::move(props.chunk_dims);
  if (ds->layout == Layout::kContiguous) {
    ds->data_size = num_elements(ds->dims) * datatype_size(dtype);
    ds->data_offset = file_->allocate(ds->data_size);
    // Materialise the extent so never-written regions read back as the
    // zero fill value (POSIX holes / zeroed memory) instead of running
    // past the end of the object.
    file_->backend_->truncate(
        std::max(file_->backend_->size(), ds->data_offset + ds->data_size));
  }
  meta::DatasetNode* raw = ds.get();
  node_->datasets.emplace(ds_name, std::move(ds));
  return Dataset(file_, raw);
}

Dataset Group::open_dataset(const std::string& ds_name) const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  auto it = node_->datasets.find(ds_name);
  if (it == node_->datasets.end()) {
    throw NotFoundError("dataset '" + ds_name + "' not found in '" + node_->name + "'");
  }
  return Dataset(file_, it->second.get());
}

bool Group::has_group(const std::string& child_name) const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  return node_->groups.count(child_name) > 0;
}

bool Group::has_dataset(const std::string& ds_name) const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  return node_->datasets.count(ds_name) > 0;
}

std::vector<std::string> Group::group_names() const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  std::vector<std::string> names;
  names.reserve(node_->groups.size());
  for (const auto& [name, _] : node_->groups) names.push_back(name);
  return names;
}

std::vector<std::string> Group::dataset_names() const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  std::vector<std::string> names;
  names.reserve(node_->datasets.size());
  for (const auto& [name, _] : node_->datasets) names.push_back(name);
  return names;
}

void Group::remove(const std::string& child_name) {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  // The unlinked node moves to the File, marked removed, so a handle
  // that outlives the unlink (or an async op still queued for it) fails
  // require_valid() instead of reading freed memory.
  if (auto it = node_->groups.find(child_name); it != node_->groups.end()) {
    mark_removed(*it->second);
    file_->unlinked_groups_.push_back(std::move(it->second));
    node_->groups.erase(it);
    return;
  }
  if (auto it = node_->datasets.find(child_name); it != node_->datasets.end()) {
    it->second->removed.store(true, std::memory_order_release);
    file_->unlinked_datasets_.push_back(std::move(it->second));
    node_->datasets.erase(it);
    return;
  }
  throw NotFoundError("'" + child_name + "' not found in group '" + node_->name + "'");
}

bool Group::has_attribute(const std::string& attr_name) const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  return find_attribute(node_->attributes, attr_name) != nullptr;
}

void Group::set_attribute_raw(const std::string& attr_name, Datatype dtype, Dims dims,
                              std::span<const std::byte> value) {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  set_attribute_impl(node_->attributes, attr_name, dtype, std::move(dims), value);
}

void Group::attribute_raw(const std::string& attr_name, Datatype expected,
                          std::span<std::byte> out) const {
  require_valid();
  std::lock_guard<std::mutex> lock(file_->meta_mutex_);
  get_attribute_impl(node_->attributes, attr_name, expected, out);
}

// ---------------------------------------------------------------------------
// File

File::File(storage::BackendPtr backend, FileProps props)
    : backend_(std::move(backend)), props_(props) {}

FilePtr File::create(storage::BackendPtr backend, FileProps props) {
  APIO_REQUIRE(backend != nullptr, "File::create requires a backend");
  APIO_REQUIRE(props.allocation_alignment >= 1 &&
                   (props.allocation_alignment & (props.allocation_alignment - 1)) == 0,
               "allocation_alignment must be a power of two");
  auto file = FilePtr(new File(std::move(backend), props));
  file->root_ = std::make_unique<meta::GroupNode>();
  file->root_->name = "/";
  file->eof_ = kSuperblockSize;
  file->open_ = true;
  file->write_superblock(0, 0, 0);
  return file;
}

FilePtr File::open(storage::BackendPtr backend) {
  APIO_REQUIRE(backend != nullptr, "File::open requires a backend");
  if (backend->size() < kSuperblockSize) {
    throw FormatError("backend too small to hold an apio-h5 superblock");
  }
  std::vector<std::byte> sb(kSuperblockSize);
  backend->read(0, sb);
  ByteReader reader(sb);
  auto magic = reader.get_bytes(sizeof kMagic);
  if (std::memcmp(magic.data(), kMagic, sizeof kMagic) != 0) {
    throw FormatError("bad magic: not an apio-h5 container");
  }
  const std::uint32_t version = reader.get_u32();
  if (version != kFormatVersion) {
    throw FormatError("unsupported format version " + std::to_string(version));
  }
  reader.get_u32();  // flags
  const std::uint64_t meta_offset = reader.get_u64();
  const std::uint64_t meta_size = reader.get_u64();
  const std::uint64_t eof = reader.get_u64();
  const std::uint64_t alignment = reader.get_u64();
  const std::uint32_t meta_crc = reader.get_u32();
  const std::uint32_t stored_sb_crc = reader.get_u32();
  const std::size_t checked_bytes = reader.position() - sizeof(std::uint32_t);
  const std::uint32_t computed_sb_crc =
      crc32c(std::span<const std::byte>(sb.data(), checked_bytes));
  if (stored_sb_crc != computed_sb_crc) {
    throw FormatError("superblock checksum mismatch: file corrupt or torn write");
  }

  FileProps props;
  props.allocation_alignment = alignment;
  auto file = FilePtr(new File(std::move(backend), props));
  if (meta_size == 0) {
    // Created but never flushed with content: empty root.
    file->root_ = std::make_unique<meta::GroupNode>();
    file->root_->name = "/";
  } else {
    std::vector<std::byte> blob(meta_size);
    file->backend_->read(meta_offset, blob);
    if (crc32c(blob) != meta_crc) {
      throw FormatError("metadata block checksum mismatch: file corrupt");
    }
    ByteReader meta_reader(blob);
    file->root_ = meta::deserialize_tree(meta_reader);
  }
  file->eof_ = std::max(eof, kSuperblockSize);
  file->open_ = true;
  return file;
}

File::~File() {
  if (open_) {
    try {
      close();
    } catch (...) {
      // Destructors must not throw; an unflushable file is already lost.
    }
  }
}

Group File::root() {
  APIO_REQUIRE(open_, "File is closed");
  return Group(this, root_.get());
}

Group File::ensure_path(std::string_view path) {
  Group g = root();
  std::size_t pos = 0;
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') ++pos;
    const std::size_t end = std::min(path.find('/', pos), path.size());
    if (end > pos) {
      g = g.require_group(std::string(path.substr(pos, end - pos)));
    }
    pos = end;
  }
  return g;
}

Dataset File::dataset_at(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string_view::npos) {
    return root().open_dataset(std::string(path));
  }
  Group g = root();
  std::string_view dir = path.substr(0, slash);
  std::size_t pos = 0;
  while (pos < dir.size()) {
    while (pos < dir.size() && dir[pos] == '/') ++pos;
    const std::size_t end = std::min(dir.find('/', pos), dir.size());
    if (end > pos) g = g.open_group(std::string(dir.substr(pos, end - pos)));
    pos = end;
  }
  return g.open_dataset(std::string(path.substr(slash + 1)));
}

std::string File::path_of(const Dataset& ds) const {
  // No lock: a node's path is fixed before any handle to it exists, and
  // an unlinked node stays alive until the File goes away.
  if (ds.file_ != this || ds.node_ == nullptr) {
    throw NotFoundError("dataset handle does not belong to this file");
  }
  if (ds.node_->removed.load(std::memory_order_acquire)) {
    throw NotFoundError("dataset '" + ds.node_->path + "' was removed");
  }
  return ds.node_->path;
}

std::uint64_t File::allocate(std::uint64_t size) {
  // Caller holds meta_mutex_ OR is inside create(); allocation itself is
  // cheap so we take no separate lock — all call sites are serialised.
  const std::uint64_t offset = align_up(eof_, props_.allocation_alignment);
  eof_ = offset + size;
  return offset;
}

std::uint64_t File::chunk_offset_for_write(meta::DatasetNode& node, const Dims& coords,
                                           std::uint64_t chunk_bytes) {
  std::lock_guard<std::mutex> lock(meta_mutex_);
  auto it = node.chunks.find(coords);
  if (it != node.chunks.end()) return it->second;
  const std::uint64_t offset = allocate(chunk_bytes);
  node.chunks.emplace(coords, offset);
  // Zero-fill so partial chunk writes leave deterministic fill values.
  // POSIX holes and the memory backend already read back zero, so only
  // the extent needs to exist.
  backend_->truncate(std::max(backend_->size(), offset + chunk_bytes));
  return offset;
}

bool File::chunk_offset_for_read(const meta::DatasetNode& node, const Dims& coords,
                                 std::uint64_t& offset) const {
  std::lock_guard<std::mutex> lock(meta_mutex_);
  auto it = node.chunks.find(coords);
  if (it == node.chunks.end()) return false;
  offset = it->second;
  return true;
}

void File::write_superblock(std::uint64_t meta_offset, std::uint64_t meta_size,
                            std::uint32_t meta_crc) {
  ByteWriter writer;
  writer.put_bytes(std::as_bytes(std::span<const char>(kMagic, sizeof kMagic)));
  writer.put_u32(kFormatVersion);
  writer.put_u32(0);  // flags
  writer.put_u64(meta_offset);
  writer.put_u64(meta_size);
  writer.put_u64(eof_);
  writer.put_u64(props_.allocation_alignment);
  writer.put_u32(meta_crc);
  // Self-checksum over everything that precedes it: a torn superblock
  // write is detected at open time.
  writer.put_u32(crc32c(writer.view()));
  std::vector<std::byte> block(kSuperblockSize);
  auto view = writer.view();
  APIO_ASSERT(view.size() <= kSuperblockSize, "superblock overflow");
  std::memcpy(block.data(), view.data(), view.size());
  backend_->write(0, block);
}

void File::flush() {
  APIO_REQUIRE(open_, "flush on closed file");
  std::lock_guard<std::mutex> lock(meta_mutex_);
  ByteWriter writer;
  meta::serialize_tree(*root_, writer);
  const std::uint64_t meta_size = writer.size();
  const std::uint64_t meta_offset = allocate(meta_size);
  backend_->write(meta_offset, writer.view());
  // Shadow update: data and the new metadata block land before the
  // superblock starts pointing at them.
  write_superblock(meta_offset, meta_size, crc32c(writer.view()));
  backend_->flush();
}

void File::close() {
  if (!open_) return;
  flush();
  // Lifecycle hook after the final flush: visibility-deferring tiers
  // (storage::CachedBackend in after-close / after-epoch mode) drain
  // their staged data to the PFS here.
  backend_->close();
  open_ = false;
}

FilePtr create_file(const std::string& path, FileProps props) {
  auto backend = std::make_shared<storage::PosixBackend>(
      path, storage::PosixBackend::Mode::kCreateTruncate);
  return File::create(std::move(backend), props);
}

FilePtr open_file(const std::string& path) {
  auto backend = std::make_shared<storage::PosixBackend>(
      path, storage::PosixBackend::Mode::kOpenExisting);
  return File::open(std::move(backend));
}

}  // namespace apio::h5
