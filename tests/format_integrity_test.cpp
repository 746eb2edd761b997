// Integrity tests: CRC-32C vectors, corruption detection at open time,
// shadow-update crash consistency, and the guard against chunk fields
// that only a filtered dataset could hold.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/error.h"
#include "h5/file.h"
#include "storage/memory_backend.h"

namespace apio {
namespace {

std::span<const std::byte> str_bytes(const char* s, std::size_t n) {
  return std::as_bytes(std::span<const char>(s, n));
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / published CRC-32C test vectors.
  EXPECT_EQ(crc32c({}), 0x00000000u);
  EXPECT_EQ(crc32c(str_bytes("123456789", 9)), 0xE3069283u);
  EXPECT_EQ(crc32c(str_bytes("a", 1)), 0xC1D04330u);
  std::vector<std::byte> zeros32(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros32), 0x8A9136AAu);
  std::vector<std::byte> ffs32(32, std::byte{0xFF});
  EXPECT_EQ(crc32c(ffs32), 0x62A8AB43u);
}

TEST(Crc32cTest, SeedContinuation) {
  // Checksumming in two pieces must equal one pass.
  const char* msg = "asynchronous parallel i/o";
  const std::size_t n = 25;
  const auto full = crc32c(str_bytes(msg, n));
  const auto part = crc32c(str_bytes(msg + 10, n - 10), crc32c(str_bytes(msg, 10)));
  EXPECT_EQ(full, part);
}

TEST(Crc32cTest, SensitiveToSingleBitFlips) {
  std::vector<std::byte> data(128, std::byte{0x5A});
  const auto base = crc32c(data);
  for (std::size_t i = 0; i < data.size(); i += 17) {
    auto copy = data;
    copy[i] ^= std::byte{0x01};
    EXPECT_NE(crc32c(copy), base) << "flip at " << i;
  }
}

// ---------------------------------------------------------------------------
// Container corruption detection

h5::FilePtr populated_file(storage::BackendPtr backend) {
  auto file = h5::File::create(backend);
  auto ds = file->root().create_dataset("d", h5::Datatype::kInt64, {64});
  std::vector<std::int64_t> values(64);
  std::iota(values.begin(), values.end(), 0);
  ds.write<std::int64_t>(h5::Selection::all(), values);
  file->close();
  return file;
}

TEST(CorruptionTest, CleanFileOpens) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  populated_file(backend);
  EXPECT_NO_THROW(h5::File::open(backend));
}

TEST(CorruptionTest, FlippedSuperblockByteDetected) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  populated_file(backend);
  // Corrupt a byte inside the superblock payload (eof field region).
  std::vector<std::byte> byte_buf(1);
  backend->read(34, byte_buf);
  byte_buf[0] ^= std::byte{0xFF};
  backend->write(34, byte_buf);
  EXPECT_THROW(h5::File::open(backend), FormatError);
}

TEST(CorruptionTest, FlippedMetadataByteDetected) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  populated_file(backend);
  // The metadata block is the last thing flushed; flip a byte near the
  // end of the backend (inside the metadata blob).
  const std::uint64_t target = backend->size() - 8;
  std::vector<std::byte> byte_buf(1);
  backend->read(target, byte_buf);
  byte_buf[0] ^= std::byte{0x10};
  backend->write(target, byte_buf);
  EXPECT_THROW(h5::File::open(backend), FormatError);
}

TEST(CorruptionTest, TornSuperblockWriteDetected) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  populated_file(backend);
  // Emulate a torn in-place superblock update: half the block replaced
  // with other content.
  std::vector<std::byte> garbage(24, std::byte{0x77});
  backend->write(16, garbage);
  EXPECT_THROW(h5::File::open(backend), FormatError);
}

TEST(CorruptionTest, ShadowUpdateLeavesOldTreeReadable) {
  // Crash between writing the new metadata block and the superblock:
  // we emulate it by snapshotting the backend before a second flush and
  // appending the new metadata without the superblock rewrite.
  auto backend = std::make_shared<storage::MemoryBackend>();
  auto file = h5::File::create(backend);
  file->root().create_dataset("first", h5::Datatype::kInt8, {1});
  file->flush();

  // Snapshot: copy all bytes.
  std::vector<std::byte> snapshot(backend->size());
  backend->read(0, snapshot);

  file->root().create_dataset("second", h5::Datatype::kInt8, {1});
  file->close();  // second flush appends new metadata + new superblock

  // "Crash before the superblock rewrite": restore the old superblock
  // (first 64 bytes) from the snapshot.  It points at the old, intact
  // metadata block, because flushes never overwrite previous metadata.
  backend->write(0, std::span<const std::byte>(snapshot.data(), 64));

  auto reopened = h5::File::open(backend);
  EXPECT_TRUE(reopened->root().has_dataset("first"));
  EXPECT_FALSE(reopened->root().has_dataset("second"));
}

TEST(CorruptionTest, DataBytesAreNotChecksummed) {
  // Raw dataset bytes carry no checksum (matching HDF5 defaults); a
  // flipped data byte is returned as stored, not rejected.  This test
  // documents the boundary of the integrity guarantee.
  auto backend = std::make_shared<storage::MemoryBackend>();
  populated_file(backend);
  std::vector<std::byte> byte_buf(1);
  backend->read(64, byte_buf);  // first raw data byte (after superblock)
  byte_buf[0] ^= std::byte{0x01};
  backend->write(64, byte_buf);
  auto file = h5::File::open(backend);
  auto values = file->root().open_dataset("d").read_vector<std::int64_t>(
      h5::Selection::all());
  EXPECT_NE(values[0], 0);  // silently different, by design
}

// ---------------------------------------------------------------------------
// Format guard: a dataset whose chunks were stored through a filter (a
// nonzero filter byte, or chunk sizes other than the raw chunk size)
// must fail to open, not read back encoded bytes as data.

constexpr std::uint64_t kChunkBytes = 4 * sizeof(std::int32_t);

void chunked_file(storage::BackendPtr backend) {
  auto file = h5::File::create(backend);
  auto ds = file->root().create_dataset("c", h5::Datatype::kInt32, {8},
                                        h5::DatasetCreateProps::chunked({4}));
  std::vector<std::int32_t> values(8);
  std::iota(values.begin(), values.end(), 1);
  ds.write<std::int32_t>(h5::Selection::all(), values);
  file->close();
}

enum class ChunkedField { kFilterByte, kFirstStoredSize };

/// Overwrites one field of a chunked_file() container's metadata block
/// with `value`, then re-seals the metadata CRC and the superblock's
/// self-CRC so that only the patched field is wrong.  The block is
/// found through the superblock's fields, and the field by walking the
/// tree in serialisation order: root group, then its one dataset.
void patch_chunked_metadata(storage::Backend& backend, ChunkedField field,
                            std::uint64_t value) {
  std::vector<std::byte> sb(64);
  backend.read(0, sb);
  ByteReader header(sb);
  header.get_bytes(8);  // magic
  header.get_u32();     // version
  header.get_u32();     // flags
  const std::uint64_t meta_offset = header.get_u64();
  const std::uint64_t meta_size = header.get_u64();
  header.get_u64();  // end of file
  header.get_u64();  // allocation alignment
  const std::size_t meta_crc_at = header.position();

  std::vector<std::byte> blob(meta_size);
  backend.read(meta_offset, blob);
  ByteReader tree(blob);
  auto skip_dims = [&] {
    const std::uint32_t rank = tree.get_u32();
    tree.get_bytes(rank * sizeof(std::uint64_t));
  };
  tree.get_u8();       // group tag
  tree.get_string();   // root name
  ASSERT_EQ(tree.get_u32(), 0u);  // root attributes
  ASSERT_EQ(tree.get_u32(), 1u);  // root datasets
  tree.get_u8();       // dataset tag
  tree.get_string();   // dataset name
  tree.get_u8();       // datatype
  skip_dims();         // extent
  tree.get_u8();       // layout
  skip_dims();         // chunk dims
  const std::size_t filter_at = tree.position();
  tree.get_u8();       // filter
  tree.get_u64();      // contiguous data offset
  tree.get_u64();      // contiguous data size
  ASSERT_GE(tree.get_u64(), 1u);  // chunk count
  skip_dims();         // first chunk's coordinates
  tree.get_u64();      // first chunk's offset
  const std::size_t stored_size_at = tree.position();

  auto overwrite = [](std::vector<std::byte>& buf, std::size_t at, const ByteWriter& w) {
    std::memcpy(buf.data() + at, w.view().data(), w.size());
  };
  ByteWriter patch;
  if (field == ChunkedField::kFilterByte) {
    patch.put_u8(static_cast<std::uint8_t>(value));
    overwrite(blob, filter_at, patch);
  } else {
    patch.put_u64(value);
    overwrite(blob, stored_size_at, patch);
  }
  backend.write(meta_offset, blob);

  ByteWriter meta_crc;
  meta_crc.put_u32(crc32c(blob));
  overwrite(sb, meta_crc_at, meta_crc);
  ByteWriter sb_crc;
  sb_crc.put_u32(crc32c(std::span<const std::byte>(sb.data(), meta_crc_at + 4)));
  overwrite(sb, meta_crc_at + 4, sb_crc);
  backend.write(0, sb);
}

TEST(CorruptionTest, ResealedUnfilteredMetadataOpens) {
  // Control: the patch helper's re-sealing alone must not break a
  // container, or the guard cases below would pass on a checksum error.
  auto backend = std::make_shared<storage::MemoryBackend>();
  chunked_file(backend);
  patch_chunked_metadata(*backend, ChunkedField::kFilterByte, 0);
  patch_chunked_metadata(*backend, ChunkedField::kFirstStoredSize, kChunkBytes);
  auto file = h5::File::open(backend);
  EXPECT_EQ(file->root().open_dataset("c").read_vector<std::int32_t>(h5::Selection::all()),
            (std::vector<std::int32_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(CorruptionTest, FilterByteOneRejected) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  chunked_file(backend);
  patch_chunked_metadata(*backend, ChunkedField::kFilterByte, 1);
  EXPECT_THROW(h5::File::open(backend), FormatError);
}

TEST(CorruptionTest, FilterByteTwoRejected) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  chunked_file(backend);
  patch_chunked_metadata(*backend, ChunkedField::kFilterByte, 2);
  EXPECT_THROW(h5::File::open(backend), FormatError);
}

TEST(CorruptionTest, ShortStoredChunkRejected) {
  auto backend = std::make_shared<storage::MemoryBackend>();
  chunked_file(backend);
  patch_chunked_metadata(*backend, ChunkedField::kFirstStoredSize, kChunkBytes - 1);
  EXPECT_THROW(h5::File::open(backend), FormatError);
}

}  // namespace
}  // namespace apio
