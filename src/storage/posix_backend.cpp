#include "storage/posix_backend.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/debug/invariant.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "storage/obs_metrics.h"

namespace apio::storage {
namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw IoError(what + " '" + path + "': " + std::strerror(errno));
}

constexpr std::size_t default_iov_limit() {
#ifdef IOV_MAX
  return IOV_MAX;
#else
  return 1024;
#endif
}

}  // namespace

namespace detail {

void write_fully(const PwriteFn& op, std::uint64_t offset,
                 std::span<const std::byte> data, const std::string& path) {
  std::size_t done = 0;
  while (done < data.size()) {
    const long n = op(data.data() + done, data.size() - done, offset + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pwrite failed for", path);
    }
    if (n == 0) {
      // No progress and no errno: looping would spin forever.  Treat it
      // as an error, exactly like the read path treats a short read.
      throw IoError("posix backend: zero-progress write to '" + path + "'");
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace detail

PosixBackend::PosixBackend(const std::string& path, Mode mode)
    : path_(path), iov_limit_(default_iov_limit()) {
  int flags = O_RDWR;
  switch (mode) {
    case Mode::kCreateTruncate: flags |= O_CREAT | O_TRUNC; break;
    case Mode::kOpenExisting: break;
    case Mode::kOpenOrCreate: flags |= O_CREAT; break;
  }
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) throw_errno("open failed for", path);
}

PosixBackend::~PosixBackend() {
  if (fd_ >= 0) ::close(fd_);
}

void PosixBackend::set_iov_batch_limit(std::size_t limit) {
  APIO_REQUIRE(limit >= 1, "iovec batch limit must be >= 1");
  iov_limit_ = limit;
}

std::uint64_t PosixBackend::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) throw_errno("fstat failed for", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void PosixBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  APIO_INVARIANT(offset + out.size() >= offset, "read range overflows offset space");
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, out.size(), "posix",
                               storage_read_hist(), &storage_bytes_read());
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread failed for", path_);
    }
    if (n == 0) {
      throw IoError("posix backend: read past end of file '" + path_ + "'");
    }
    done += static_cast<std::size_t>(n);
  }
  count_read(out.size());
}

void PosixBackend::write(std::uint64_t offset, std::span<const std::byte> data) {
  APIO_INVARIANT(offset + data.size() >= offset, "write range overflows offset space");
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, data.size(), "posix",
                               storage_write_hist(), &storage_bytes_written());
  detail::write_fully(
      [this](const std::byte* buf, std::size_t len, std::uint64_t off) {
        return static_cast<long>(::pwrite(fd_, buf, len, static_cast<off_t>(off)));
      },
      offset, data, path_);
  count_write(data.size());
}

std::uint64_t PosixBackend::write_v(std::span<const WriteExtent> extents) {
  if (extents.empty()) return 0;
  const std::uint64_t total = extent_bytes(extents);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "posix",
                               storage_write_hist(), &storage_bytes_written());

  // Group file-contiguous extents into one pwritev each (a gather from
  // many memory spans into one contiguous file run), splitting batches
  // at the iovec limit.  Partial writes advance through the batch.
  std::vector<struct iovec> iov;
  std::size_t i = 0;
  while (i < extents.size()) {
    std::uint64_t start = extents[i].offset;
    std::uint64_t end = start;
    iov.clear();
    while (i < extents.size() && iov.size() < iov_limit_ &&
           extents[i].offset == end) {
      iov.push_back({const_cast<std::byte*>(extents[i].data.data()),
                     extents[i].data.size()});
      end += extents[i].data.size();
      ++i;
    }
    std::size_t idx = 0;
    std::uint64_t offset = start;
    while (idx < iov.size()) {
      const ssize_t n = ::pwritev(fd_, iov.data() + idx,
                                  static_cast<int>(iov.size() - idx),
                                  static_cast<off_t>(offset));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("pwritev failed for", path_);
      }
      if (n == 0) {
        throw IoError("posix backend: zero-progress vectored write to '" +
                      path_ + "'");
      }
      offset += static_cast<std::uint64_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (idx < iov.size() && left >= iov[idx].iov_len) {
        left -= iov[idx].iov_len;
        ++idx;
      }
      if (idx < iov.size() && left > 0) {
        iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + left;
        iov[idx].iov_len -= left;
      }
    }
  }
  count_write(total);
  return total;
}

std::uint64_t PosixBackend::read_v(std::span<const ReadExtent> extents) {
  if (extents.empty()) return 0;
  const std::uint64_t total = extent_bytes(extents);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "posix",
                               storage_read_hist(), &storage_bytes_read());

  std::vector<struct iovec> iov;
  std::size_t i = 0;
  while (i < extents.size()) {
    std::uint64_t start = extents[i].offset;
    std::uint64_t end = start;
    iov.clear();
    while (i < extents.size() && iov.size() < iov_limit_ &&
           extents[i].offset == end) {
      iov.push_back({extents[i].out.data(), extents[i].out.size()});
      end += extents[i].out.size();
      ++i;
    }
    std::size_t idx = 0;
    std::uint64_t offset = start;
    while (idx < iov.size()) {
      const ssize_t n = ::preadv(fd_, iov.data() + idx,
                                 static_cast<int>(iov.size() - idx),
                                 static_cast<off_t>(offset));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("preadv failed for", path_);
      }
      if (n == 0) {
        throw IoError("posix backend: read past end of file '" + path_ + "'");
      }
      offset += static_cast<std::uint64_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (idx < iov.size() && left >= iov[idx].iov_len) {
        left -= iov[idx].iov_len;
        ++idx;
      }
      if (idx < iov.size() && left > 0) {
        iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + left;
        iov[idx].iov_len -= left;
      }
    }
  }
  count_read(total);
  return total;
}

void PosixBackend::flush() {
  if (::fsync(fd_) != 0) throw_errno("fsync failed for", path_);
  count_flush();
}

void PosixBackend::truncate(std::uint64_t new_size) {
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    throw_errno("ftruncate failed for", path_);
  }
}

}  // namespace apio::storage
