#include "storage/posix_backend.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
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

[[noreturn]] void throw_past_eof(const std::string& path) {
  throw IoError("posix backend: read past end of file '" + path + "'");
}

constexpr std::size_t default_iov_limit() {
#ifdef IOV_MAX
  return IOV_MAX;
#else
  return 1024;
#endif
}

// A hole joins a sieve window only while it is smaller than a page.
// Such a hole cannot contain a whole page, so a sieved write dirties
// exactly the pages that one write per extent would.
constexpr std::uint64_t kSieveMaxHole = 4096;
// A window with holes spans at most HDF5's default sieve buffer.
constexpr std::uint64_t kSieveMaxSpan = 64 * 1024;
// write_v keeps its piece scratch between calls up to this many pieces,
// so one huge batch does not pin its iovec list for the file's lifetime.
constexpr std::size_t kKeptPieces = 4096;

detail::PwriteFn pwrite_to(int fd) {
  return [fd](const std::byte* buf, std::size_t len, std::uint64_t off) {
    return static_cast<long>(::pwrite(fd, buf, len, static_cast<off_t>(off)));
  };
}

/// Reads into `out` at `offset` until it is full or the file ends, and
/// returns the bytes read.
std::size_t pread_upto(int fd, std::span<std::byte> out, std::uint64_t offset,
                       const std::string& path) {
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread failed for", path);
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

using detail::Pieces;

/// Pieces [first, last), covering file bytes [begin, end), of which
/// `holes` bytes lie between pieces.  A window without holes is a
/// file-contiguous run.
struct Window {
  std::size_t first, last;
  std::uint64_t begin, end, holes;
};

/// The window starting at piece `first`.  The next piece joins while the
/// hole before it is under kSieveMaxHole and a window with holes spans
/// at most kSieveMaxSpan, so the cap never cuts a contiguous run.  A
/// piece that starts before the window's end starts a new window.
Window window_at(const Pieces& p, std::size_t first) {
  Window w{first, first + 1, p.offset[first], p.end(first), 0};
  for (; w.last < p.size(); ++w.last) {
    const std::uint64_t at = p.offset[w.last];
    if (at < w.end || at - w.end >= kSieveMaxHole) break;
    const std::uint64_t holes = w.holes + (at - w.end);
    if (holes > 0 && p.end(w.last) - w.begin > kSieveMaxSpan) break;
    w.holes = holes;
    w.end = p.end(w.last);
  }
  return w;
}

/// Moves one file-contiguous run with pwritev or preadv, at most `limit`
/// iovecs per call, advancing through partial transfers.
void transfer_run(int fd, bool write, std::span<struct iovec> iov,
                  std::uint64_t offset, std::size_t limit, const std::string& path) {
  std::size_t idx = 0;
  while (idx < iov.size()) {
    const int count = static_cast<int>(std::min(iov.size() - idx, limit));
    const auto at = static_cast<off_t>(offset);
    const ssize_t n = write ? ::pwritev(fd, iov.data() + idx, count, at)
                            : ::preadv(fd, iov.data() + idx, count, at);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(write ? "pwritev failed for" : "preadv failed for", path);
    }
    if (n == 0) {
      if (!write) throw_past_eof(path);
      throw IoError("posix backend: zero-progress vectored write to '" + path + "'");
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

/// Moves every piece, window by window: a contiguous run through
/// transfer_run, a window with holes through `bounce`.  A sieved read is
/// one pread of the span and a scatter; it ends at its last piece, so a
/// short read is past EOF.  A sieved write patches the span and writes
/// it back with one pwrite.  It reads the span first only when the span
/// meets a byte in `written` (which a write records), and zero-fills it
/// otherwise: past end of file, or in holes never written.
void transfer(int fd, Pieces& p, std::size_t limit, const std::string& path,
              std::vector<std::byte>& bounce, ByteRanges* written) {
  const bool write = written != nullptr;
  std::uint64_t windows = 0;
  std::uint64_t hole_bytes = 0;
  std::uint64_t reads_skipped = 0;
  for (std::size_t i = 0; i < p.size();) {
    const Window w = window_at(p, i);
    i = w.last;
    const bool read_back = !write || (written->add(w.begin, w.end) && w.holes > 0);
    if (w.holes == 0) {
      transfer_run(fd, write, std::span(p.iov).subspan(w.first, w.last - w.first),
                   w.begin, limit, path);
      continue;
    }
    ++windows;
    hole_bytes += w.holes;
    bounce.resize(w.end - w.begin);
    const std::size_t got = read_back ? pread_upto(fd, bounce, w.begin, path) : 0;
    const auto in_span = [&](std::size_t k) {
      return bounce.data() + (p.offset[k] - w.begin);
    };
    if (!write) {
      if (got < bounce.size()) throw_past_eof(path);
      for (std::size_t k = w.first; k < w.last; ++k) {
        std::memcpy(p.iov[k].iov_base, in_span(k), p.iov[k].iov_len);
      }
      continue;
    }
    if (read_back) {
      std::memset(bounce.data() + got, 0, bounce.size() - got);
    } else {
      ++reads_skipped;
    }
    for (std::size_t k = w.first; k < w.last; ++k) {
      if (!read_back && k > w.first) {
        std::memset(bounce.data() + (p.end(k - 1) - w.begin), 0, p.offset[k] - p.end(k - 1));
      }
      std::memcpy(in_span(k), p.iov[k].iov_base, p.iov[k].iov_len);
    }
    detail::write_fully(pwrite_to(fd), w.begin, bounce, path);
  }
  if (windows > 0 && obs::enabled()) {
    storage_sieve_windows().add(windows);
    storage_sieve_hole_bytes().add(hole_bytes);
    storage_sieve_reads_skipped().add(reads_skipped);
  }
}

}  // namespace

namespace detail {

void Pieces::add(std::uint64_t at, const std::byte* data, std::size_t len) {
  APIO_INVARIANT(at + len >= at, "extent overflows offset space");
  if (len == 0) return;
  iov.push_back({const_cast<std::byte*>(data), len});
  offset.push_back(at);
}

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
  if (mode != Mode::kCreateTruncate) written_.add(0, size());
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

std::uint64_t PosixBackend::write_v(std::span<const WriteExtent> extents) {
  if (extents.empty()) return 0;
  const std::uint64_t total = extent_bytes(extents);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "posix",
                               storage_write_hist());
  std::lock_guard lock(write_mutex_);
  write_pieces_.clear();
  for (const auto& e : extents) write_pieces_.add(e.offset, e.data.data(), e.data.size());
  transfer(fd_, write_pieces_, iov_limit_, path_, write_bounce_, &written_);
  if (write_pieces_.size() > kKeptPieces) write_pieces_ = Pieces();
  count_write(total);
  return total;
}

std::uint64_t PosixBackend::read_v(std::span<const ReadExtent> extents) {
  if (extents.empty()) return 0;
  Pieces pieces(extents.size());
  for (const auto& e : extents) pieces.add(e.offset, e.out.data(), e.out.size());
  const std::uint64_t total = extent_bytes(extents);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "posix",
                               storage_read_hist());
  std::vector<std::byte> bounce;
  transfer(fd_, pieces, iov_limit_, path_, bounce, /*written=*/nullptr);
  count_read(total);
  return total;
}

void PosixBackend::flush() {
  if (::fsync(fd_) != 0) throw_errno("fsync failed for", path_);
  count_flush();
}

void PosixBackend::truncate(std::uint64_t new_size) {
  std::lock_guard lock(write_mutex_);
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    throw_errno("ftruncate failed for", path_);
  }
  written_.truncate(new_size);
}

}  // namespace apio::storage
