// Storage backends: flat byte-addressable object stores underneath the
// apio-h5 container.  A backend is what the paper's storage stack calls
// "the target storage location" — a parallel file system file, a
// node-local SSD file, or an in-memory staging buffer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace apio::storage {

/// Byte-level transfer counters, readable while the backend is in use.
struct BackendStats {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t flushes = 0;
};

/// One extent of a gather-write: `data` lands at byte `offset`.
struct WriteExtent {
  std::uint64_t offset = 0;
  std::span<const std::byte> data;
};

/// One extent of a scatter-read: `out` is filled from byte `offset`.
struct ReadExtent {
  std::uint64_t offset = 0;
  std::span<std::byte> out;
};

/// Abstract flat address space with positional read/write.
///
/// Each direction has one transfer path: write_v/read_v.  The scalar
/// write()/read() are one-extent batches of it, with their one body
/// here; no backend under src/ overrides them (apio_lint rule
/// scalar-transfer).
///
/// Thread-safety: transfers on disjoint ranges may be issued
/// concurrently (parallel ranks write disjoint hyperslabs); overlapping
/// concurrent writes are a data race, as they are in MPI-IO.
/// Metadata operations (truncate) must be externally serialised.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Current end-of-object offset in bytes.
  virtual std::uint64_t size() const = 0;

  /// Reads exactly out.size() bytes at `offset`: read_v of one extent.
  virtual void read(std::uint64_t offset, std::span<std::byte> out) {
    const ReadExtent extent{offset, out};
    (void)read_v({&extent, 1});
  }

  /// Writes data at `offset`: write_v of one extent.
  virtual void write(std::uint64_t offset, std::span<const std::byte> data) {
    const WriteExtent extent{offset, data};
    (void)write_v({&extent, 1});
  }

  /// Vectored write: the extents must be sorted by offset and pairwise
  /// non-overlapping (h5::IoVector produces exactly this shape); empty
  /// extents transfer nothing, wherever they lie.  Non-empty extents
  /// grow the object as needed.  Every backend implements it as ONE
  /// operation: leaves as one batched transfer (pwritev or a data-sieved
  /// read-modify-write of a window with small holes, single-lock memcpy
  /// loop), decorators by passing the whole batch inward through their
  /// policy (storage::Decorator), so the aggregation built above
  /// survives every layer.  Only FaultyBackend splits a batch per
  /// extent, to model a mid-batch fault.  BackendStats count one op per
  /// call and the payload bytes, never the hole bytes a sieve also
  /// moves.  Returns the bytes transferred; a completed call transfers
  /// every extent in full (partial kernel transfers are retried
  /// internally), so callers check the count against the bytes they
  /// submitted.  A failed call throws without a byte count.
  [[nodiscard]] virtual std::uint64_t write_v(
      std::span<const WriteExtent> extents) = 0;

  /// Vectored read, same extent contract as write_v.  Every non-empty
  /// extent must lie inside the object (throws IoError otherwise); an
  /// empty one transfers nothing, even past end of object.  Returns the
  /// bytes transferred into the extents' buffers.
  [[nodiscard]] virtual std::uint64_t read_v(
      std::span<const ReadExtent> extents) = 0;

  /// Persists buffered data (no-op for memory backends).
  virtual void flush() = 0;

  /// Lifecycle hook: the container (h5::File::close) announces that no
  /// further writes follow.  Leaves ignore it; decorators forward it
  /// inward; visibility-deferring tiers (CachedBackend in kAfterClose /
  /// kAfterEpoch mode) drain their staged data here.  Unlike flush(),
  /// close() may publish data a consistency policy was withholding.
  virtual void close() {}

  /// Sets the object size, zero-filling on growth.
  virtual void truncate(std::uint64_t new_size) = 0;

  /// Human-readable backend identity for diagnostics.
  virtual std::string name() const = 0;

  BackendStats stats() const {
    BackendStats s;
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    s.read_ops = read_ops_.load(std::memory_order_relaxed);
    s.write_ops = write_ops_.load(std::memory_order_relaxed);
    s.flushes = flushes_.load(std::memory_order_relaxed);
    return s;
  }

 protected:
  void count_read(std::uint64_t bytes) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_write(std::uint64_t bytes) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    write_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_flush() { flushes_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> read_ops_{0};
  std::atomic<std::uint64_t> write_ops_{0};
  std::atomic<std::uint64_t> flushes_{0};
};

using BackendPtr = std::shared_ptr<Backend>;

/// Total payload of an extent list.
inline std::uint64_t extent_bytes(std::span<const WriteExtent> extents) {
  std::uint64_t total = 0;
  for (const auto& e : extents) total += e.data.size();
  return total;
}
inline std::uint64_t extent_bytes(std::span<const ReadExtent> extents) {
  std::uint64_t total = 0;
  for (const auto& e : extents) total += e.out.size();
  return total;
}

}  // namespace apio::storage
