// Bench-local probes.  ProbeBackend wraps a storage::Backend, counts the
// operations, extents and bytes that cross it, and opens a span around
// each call when the run is traced.  RecordingObserver keeps the
// connector's per-operation IoRecords.  Both are inserted from outside
// through public interfaces (storage::Backend, Connector::add_observer),
// so the library under test is unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/backend.h"
#include "vol/observer.h"

namespace apio::e2e {

class ProbeBackend final : public storage::Backend {
 public:
  /// kLeaf sits directly on the leaf backend; kTop wraps the whole built
  /// stack.  A leaf probe absorbs flush(): it counts the call but does not
  /// forward it, so the fsync of a disk-backed data directory never
  /// enters the numbers (on tmpfs, where the paper's runs stage, fsync
  /// is free anyway).
  enum class Role { kLeaf, kTop };

  ProbeBackend(storage::BackendPtr inner, Role role);

  std::uint64_t size() const override { return inner_->size(); }
  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t write_v(
      std::span<const storage::WriteExtent> extents) override;
  [[nodiscard]] std::uint64_t read_v(
      std::span<const storage::ReadExtent> extents) override;
  void flush() override;
  void close() override;
  void truncate(std::uint64_t new_size) override;
  std::string name() const override;

  /// Extents carried by every read/write so far (a scalar call is one).
  std::uint64_t extents() const { return extents_.load(); }

  /// While capturing, remembers the (offset, length) extents of the last
  /// write the probe saw.  Single-threaded use only (the ladder).
  void capture(bool on) { capturing_ = on; }
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& captured() const {
    return captured_;
  }

 private:
  storage::BackendPtr inner_;
  Role role_;
  std::atomic<std::uint64_t> extents_{0};
  bool capturing_ = false;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> captured_;
};

/// One connector operation as the observer saw it.
struct OpRecord {
  vol::IoOp op = vol::IoOp::kWrite;
  bool cache_hit = false;
  double blocking_s = 0.0;
  double completion_s = 0.0;
};

/// Keeps IoRecords in a preallocated buffer; safe to call from the
/// connector's background stream.
class RecordingObserver final : public vol::IoObserver {
 public:
  explicit RecordingObserver(std::size_t capacity) : records_(capacity) {}

  void on_io(const vol::IoRecord& record) override;

  /// Records kept so far; read only after the connectors are closed.
  std::vector<OpRecord> records() const;
  std::uint64_t dropped() const { return dropped_.load(); }

 private:
  std::vector<OpRecord> records_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace apio::e2e
