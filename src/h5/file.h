// apio-h5: a self-describing hierarchical container with HDF5-style
// semantics — one file, a tree of groups, typed N-dimensional datasets
// with hyperslab-selected parallel reads/writes, and attributes.
//
// This is the "native" data path; the VOL layer (src/vol) routes the
// same operations either directly here (sync) or through a background
// execution stream (async), exactly as HDF5's Virtual Object Layer
// routes H5Dwrite/H5Dread in the paper.
//
// Concurrency: metadata operations (create/open/flush) are serialised
// internally; raw-data transfers to disjoint selections may run
// concurrently from many ranks, the MPI-IO-style contract.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "h5/datatype.h"
#include "h5/dataspace.h"
#include "h5/metadata.h"
#include "h5/properties.h"
#include "storage/backend.h"

namespace apio::h5 {

class File;
class Group;
class IoVector;
using FilePtr = std::shared_ptr<File>;

/// Handle to a dataset.  Lightweight; valid while the file is open and
/// the dataset is not removed.  Using a handle after Group::remove
/// unlinked its dataset (or a group above it) throws StateError: the
/// File keeps unlinked nodes alive, so the check never reads freed
/// memory.
class Dataset {
 public:
  Dataset() = default;

  const std::string& name() const;
  Datatype dtype() const;
  const Dims& dims() const;
  Layout layout() const;
  const Dims& chunk_dims() const;
  std::uint64_t npoints() const;
  std::size_t element_size() const;
  /// Total raw-data bytes implied by the current extent.
  std::uint64_t byte_size() const;

  /// Writes packed `data` into the selected elements.  data.size() must
  /// equal selection npoints * element size.
  void write_raw(const Selection& selection, std::span<const std::byte> data);

  /// Reads the selected elements into packed `out` (same size contract).
  /// Unwritten chunked regions read back as zero fill.
  void read_raw(const Selection& selection, std::span<std::byte> out) const;

  template <typename T>
  void write(const Selection& selection, std::span<const T> data) {
    require_dtype(native_datatype<T>());
    write_raw(selection, std::as_bytes(data));
  }

  template <typename T>
  void read(const Selection& selection, std::span<T> out) const {
    require_dtype(native_datatype<T>());
    read_raw(selection, std::as_writable_bytes(out));
  }

  /// Reads the selection into a freshly allocated vector.
  template <typename T>
  std::vector<T> read_vector(const Selection& selection) const {
    std::vector<T> out(npoints_of(selection));
    read<T>(selection, out);
    return out;
  }

  /// Grows (or shrinks) a chunked dataset's extent; rank must match.
  void set_extent(const Dims& new_dims);

  /// Attribute access.  Scalars only need the value overloads.
  template <typename T>
  void set_attribute(const std::string& attr_name, const T& value) {
    set_attribute_raw(attr_name, native_datatype<T>(), Dims{},
                      std::as_bytes(std::span<const T>(&value, 1)));
  }
  template <typename T>
  T attribute(const std::string& attr_name) const {
    T value{};
    attribute_raw(attr_name, native_datatype<T>(),
                  std::as_writable_bytes(std::span<T>(&value, 1)));
    return value;
  }
  bool has_attribute(const std::string& attr_name) const;

  void set_attribute_raw(const std::string& attr_name, Datatype dtype, Dims dims,
                         std::span<const std::byte> value);
  void attribute_raw(const std::string& attr_name, Datatype expected,
                     std::span<std::byte> out) const;

  /// Stable identity of the underlying object for the File's lifetime
  /// (removed nodes are not freed, so no address is reused); used as a
  /// cache key by the async VOL's prefetcher.
  const void* object_key() const { return node_; }

 private:
  friend class Group;
  friend class File;
  Dataset(File* file, meta::DatasetNode* node) : file_(file), node_(node) {}

  std::uint64_t npoints_of(const Selection& selection) const;
  /// The one selection walk behind write_raw and read_raw (on a valid
  /// handle): validates the selection against `buf`, reserves `iov` for
  /// the walk's runs when the file issues vectored transfers, then
  /// reports each segment as fn(file_offset, slice of buf) in walk
  /// order.  A write (const Byte) allocates chunks on first touch; a
  /// read reports a segment of a never-written chunk with an all-ones
  /// file offset.
  template <typename Byte, typename Fn>
  void plan(const Selection& selection, std::span<Byte> buf, IoVector& iov,
            Fn&& fn) const;
  void require_dtype(Datatype t) const;
  void require_valid() const;

  File* file_ = nullptr;
  meta::DatasetNode* node_ = nullptr;
};

/// Handle to a group.  Lightweight; valid while the file is open and
/// the group is not removed (same rule as Dataset).
class Group {
 public:
  Group() = default;

  const std::string& name() const;

  Group create_group(const std::string& child_name);
  Group open_group(const std::string& child_name) const;
  /// Opens the group, creating it when absent.
  Group require_group(const std::string& child_name);

  Dataset create_dataset(const std::string& ds_name, Datatype dtype, Dims dims,
                         DatasetCreateProps props = {});
  Dataset open_dataset(const std::string& ds_name) const;
  bool has_group(const std::string& child_name) const;
  bool has_dataset(const std::string& ds_name) const;

  std::vector<std::string> group_names() const;
  std::vector<std::string> dataset_names() const;

  /// Unlinks a child group or dataset.  Its raw data extents stay in
  /// the file as dead space, which is never reclaimed.  Handles to the
  /// child and everything below it become invalid (StateError).
  void remove(const std::string& child_name);

  template <typename T>
  void set_attribute(const std::string& attr_name, const T& value) {
    set_attribute_raw(attr_name, native_datatype<T>(), Dims{},
                      std::as_bytes(std::span<const T>(&value, 1)));
  }
  template <typename T>
  T attribute(const std::string& attr_name) const {
    T value{};
    attribute_raw(attr_name, native_datatype<T>(),
                  std::as_writable_bytes(std::span<T>(&value, 1)));
    return value;
  }
  bool has_attribute(const std::string& attr_name) const;
  void set_attribute_raw(const std::string& attr_name, Datatype dtype, Dims dims,
                         std::span<const std::byte> value);
  void attribute_raw(const std::string& attr_name, Datatype expected,
                     std::span<std::byte> out) const;

 private:
  friend class File;
  Group(File* file, meta::GroupNode* node) : file_(file), node_(node) {}

  void require_valid() const;

  File* file_ = nullptr;
  meta::GroupNode* node_ = nullptr;
};

/// An open container.  Create/open via the static factories; share the
/// FilePtr across ranks for parallel access.
class File : public std::enable_shared_from_this<File> {
 public:
  /// Creates a fresh container on `backend` (truncating semantics: the
  /// backend is assumed empty or disposable).
  static FilePtr create(storage::BackendPtr backend, FileProps props = {});

  /// Opens an existing container; throws FormatError when the backend
  /// does not hold one.
  static FilePtr open(storage::BackendPtr backend);

  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  Group root();

  /// Walks `/`-separated `path`, creating intermediate groups.
  Group ensure_path(std::string_view path);

  /// Opens the dataset at a `/`-separated path ("particles/x").
  Dataset dataset_at(std::string_view path);

  /// Inverse of dataset_at: full path of a dataset handle ("a/b/d").
  /// The path is captured when the dataset is created or loaded, so the
  /// lookup is O(1) and takes no lock.  Throws NotFoundError when the
  /// handle belongs to another file or its dataset was removed.  Used by
  /// the VOL's request identity, trace recording and diagnostics.
  std::string path_of(const Dataset& ds) const;

  /// Serialises metadata and flushes the backend (shadow update: data
  /// first, superblock last).
  void flush();

  /// Flushes and detaches from the backend; handles become invalid.
  void close();

  bool is_open() const { return open_; }

  const storage::BackendPtr& backend() const { return backend_; }

  /// Raw-data bytes allocated so far (diagnostics).
  std::uint64_t end_of_file() const { return eof_; }

 private:
  friend class Group;
  friend class Dataset;

  File(storage::BackendPtr backend, FileProps props);

  /// Allocates `size` bytes of file space; returns the offset.
  std::uint64_t allocate(std::uint64_t size);

  /// Chunked-layout helper: offset of the chunk, allocating on demand.
  std::uint64_t chunk_offset_for_write(meta::DatasetNode& node, const Dims& coords,
                                       std::uint64_t chunk_bytes);
  /// Read-side lookup; returns false when the chunk was never written.
  bool chunk_offset_for_read(const meta::DatasetNode& node, const Dims& coords,
                             std::uint64_t& offset) const;

  void write_superblock(std::uint64_t meta_offset, std::uint64_t meta_size,
                        std::uint32_t meta_crc);

  storage::BackendPtr backend_;
  FileProps props_;
  std::unique_ptr<meta::GroupNode> root_;
  /// Nodes unlinked by Group::remove, kept (marked removed) for the
  /// File's lifetime so stale handles can detect the removal.
  std::vector<std::unique_ptr<meta::GroupNode>> unlinked_groups_;
  std::vector<std::unique_ptr<meta::DatasetNode>> unlinked_datasets_;
  mutable std::mutex meta_mutex_;
  std::uint64_t eof_ = 0;
  /// Atomic: a handle on another thread may check it while close() runs
  /// (an async submit racing the connector's close, say).
  std::atomic<bool> open_{false};
};

/// Convenience: creates a container on a fresh POSIX file.
FilePtr create_file(const std::string& path, FileProps props = {});

/// Convenience: opens a container from a POSIX file.
FilePtr open_file(const std::string& path);

}  // namespace apio::h5
