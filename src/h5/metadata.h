// In-memory metadata tree of an apio-h5 container and its on-disk
// serialisation.  The whole tree is written as one metadata block on
// flush; the superblock points at the current block (shadow update, so
// a crash before the superblock rewrite leaves the old tree intact).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "h5/datatype.h"
#include "h5/dataspace.h"
#include "h5/properties.h"

namespace apio::h5::meta {

/// A named attribute: small typed value stored inline in the metadata.
struct AttributeNode {
  std::string name;
  Datatype dtype = Datatype::kUInt8;
  Dims dims;                     ///< empty = scalar
  std::vector<std::byte> value;  ///< packed native bytes
};

/// File location of one stored chunk.
struct ChunkLocation {
  std::uint64_t offset = 0;
  /// Bytes actually stored (post-filter).
  std::uint64_t stored_size = 0;
  /// Bytes reserved at `offset`; a refiltered chunk that still fits is
  /// rewritten in place, otherwise it moves to a fresh extent.
  std::uint64_t allocated_size = 0;
};

/// A dataset's metadata: shape, layout, filter and raw-data location.
struct DatasetNode {
  std::string name;
  /// In memory only, never serialised: the `/`-joined path from the root
  /// ("a/b/d"), fixed when the node is created or loaded.
  std::string path;
  /// In memory only: set once when Group::remove unlinks the node or a
  /// group above it.  Handles check it before every use.
  std::atomic<bool> removed{false};
  Datatype dtype = Datatype::kUInt8;
  Dims dims;
  Layout layout = Layout::kContiguous;
  Dims chunk_dims;
  FilterId filter = FilterId::kNone;

  /// Contiguous layout: file extent of the raw data.
  std::uint64_t data_offset = 0;
  std::uint64_t data_size = 0;

  /// Chunked layout: chunk grid coordinates -> stored location.
  std::map<Dims, ChunkLocation> chunks;

  std::vector<AttributeNode> attributes;
};

/// A group: named container of groups and datasets.
struct GroupNode {
  std::string name;
  /// In memory only, as for DatasetNode ("" for the root).
  std::string path;
  std::atomic<bool> removed{false};
  std::map<std::string, std::unique_ptr<GroupNode>> groups;
  std::map<std::string, std::unique_ptr<DatasetNode>> datasets;
  std::vector<AttributeNode> attributes;
};

/// Path of the child `name` of the group at `parent` ("" = the root).
std::string child_path(const std::string& parent, const std::string& name);

/// Serialises a metadata tree rooted at `root`.
void serialize_tree(const GroupNode& root, ByteWriter& out);

/// Parses a metadata tree; throws FormatError on malformed input.
std::unique_ptr<GroupNode> deserialize_tree(ByteReader& in);

}  // namespace apio::h5::meta
