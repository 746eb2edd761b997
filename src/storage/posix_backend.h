// POSIX file backend using positional pread/pwrite, the same primitive
// layer HDF5's sec2 driver uses underneath a parallel file system.
// Vectored transfers are planned in windows: a file-contiguous run costs
// one preadv/pwritev, and extents separated by holes smaller than a page
// are data-sieved (Thakur/Gropp/Lusk, ROMIO) as one read of the covering
// span, plus one write back for writes.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>

#include "common/debug/lock_rank.h"
#include "storage/backend.h"

namespace apio::storage {

namespace detail {

/// A positional-write primitive with pwrite's signature, injectable for
/// tests.  Returns bytes written, or -1 with errno set.
using PwriteFn =
    std::function<long(const std::byte* buf, std::size_t len, std::uint64_t offset)>;

/// Loops `op` until `data` is fully written at `offset`.  EINTR is
/// retried; a negative return throws IoError with `path` in the
/// message.  A return of 0 with bytes remaining is also an error — the
/// write made no progress and looping again would spin forever
/// (regression: the old loop treated 0 as retryable and hung).
void write_fully(const PwriteFn& op, std::uint64_t offset,
                 std::span<const std::byte> data, const std::string& path);

}  // namespace detail

/// File-backed flat object.  Reads need no user-space lock.  Writes
/// serialise on one mutex: a sieved write rewrites the hole bytes of
/// its window, which a concurrent writer of a disjoint range may own.
class PosixBackend final : public Backend {
 public:
  enum class Mode { kCreateTruncate, kOpenExisting, kOpenOrCreate };

  PosixBackend(const std::string& path, Mode mode);
  ~PosixBackend() override;

  PosixBackend(const PosixBackend&) = delete;
  PosixBackend& operator=(const PosixBackend&) = delete;

  std::uint64_t size() const override;
  [[nodiscard]] std::uint64_t write_v(
      std::span<const WriteExtent> extents) override;
  [[nodiscard]] std::uint64_t read_v(
      std::span<const ReadExtent> extents) override;
  void flush() override;
  void truncate(std::uint64_t new_size) override;
  std::string name() const override { return "posix:" + path_; }

  const std::string& path() const { return path_; }

  /// Caps the iovec count of one preadv/pwritev call.  Defaults to the
  /// platform IOV_MAX; tests lower it to exercise the splitting path
  /// without building million-extent vectors.
  void set_iov_batch_limit(std::size_t limit);
  std::size_t iov_batch_limit() const { return iov_limit_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::size_t iov_limit_;
  debug::RankedMutex<debug::LockRank::kStorageBase> write_mutex_;
};

}  // namespace apio::storage
