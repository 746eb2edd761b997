// In-memory backend: models a DRAM or node-local staging area, holds
// CachedBackend's staging, and backs unit tests that must not touch the
// file system.
//
// Page lending: a store can hand whole pages to another store instead
// of copying them.  The lender gathers spans over its pages (Pinned)
// and opens a Lend scope over them on its thread; while the scope is
// open, a MemoryBackend written on that thread keeps any extent that is
// exactly one lent page (whole, page-aligned, same address) by sharing
// the page, and copies every other extent.  The scope is thread-local
// rather than a virtual call, so it reaches the leaf through every
// decorator that transfers inline on the calling thread.
//
// Ownership rule: a page held by two stores is written in place by
// neither.  Adoption happens on the lending thread inside the scope, so
// the scope learns which pages were taken and, on closing, marks them
// in the lender under its lock; the adopter marks them on adoption.  A
// marked page is copied before any write, and nothing reads another
// store's reference count.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/debug/lock_rank.h"
#include "storage/backend.h"

namespace apio::storage {

/// Paged in-memory object.  Bytes live in fixed-size pages: a page is
/// allocated zeroed on its first write and never moved, so growth by
/// write or truncate copies nothing, and a page never written reads as
/// zeros.  A shrink drops whole pages and zeroes the tail of the last
/// kept one, so a regrow reads zeros.  A page shared with another store
/// (see Lend) is copied before it is written.  All operations are
/// internally locked, so the backend is safe for the concurrent
/// disjoint-range access pattern of parallel ranks (the lock serialises
/// the copies; correctness, not parallel throughput, is the goal at
/// test scale).
class MemoryBackend final : public Backend {
  using Page = std::shared_ptr<std::byte[]>;

 public:
  /// Page size; also the unit of CachedBackend's LRU.
  static constexpr std::uint64_t kPageBytes = 256 * 1024;

  /// Spans over stored bytes, filled by gather().  The pages under the
  /// spans stay allocated and unchanged while this object lives: a
  /// write or shrink that reaches a pinned page first replaces it with
  /// a copy, and a discard or shrink that drops one leaves it to the
  /// pin.  Must not outlive its store.
  class Pinned {
   public:
    explicit Pinned(MemoryBackend& store) : store_(store) {}
    ~Pinned();
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;

    std::span<const WriteExtent> extents() const { return extents_; }

   private:
    friend class MemoryBackend;
    MemoryBackend& store_;
    std::vector<WriteExtent> extents_;
    std::vector<Page> pins_;  ///< one per extent; null over a never-written page
  };

  /// RAII thread-local scope lending the whole pages under `pinned` to
  /// any other MemoryBackend written on this thread while it is open.
  /// Nests: the previous scope is restored on destruction.  Closing
  /// marks the adopted pages in the lender, so both stores copy them
  /// before writing; it must close before `pinned` is destroyed.
  class Lend {
   public:
    explicit Lend(const Pinned& pinned);
    ~Lend();
    Lend(const Lend&) = delete;
    Lend& operator=(const Lend&) = delete;

   private:
    friend class MemoryBackend;
    /// The index of the pinned extent over the page at `data`, or ~0.  Scans from just past the last hit, so extents forwarded
    /// in order are found in one step each.
    std::size_t find(const std::byte* data);

    const Pinned& pinned_;
    Lend* previous_;
    std::size_t cursor_ = 0;
    std::vector<std::size_t> taken_;  ///< pinned extents some store adopted
  };

  MemoryBackend() = default;

  std::uint64_t size() const override;
  /// One lock acquisition and one stats count for the whole extent list
  /// (a per-extent copy loop inside).  Inside a Lend scope, writes
  /// share lent pages instead of copying them.
  [[nodiscard]] std::uint64_t write_v(
      std::span<const WriteExtent> extents) override;
  [[nodiscard]] std::uint64_t read_v(
      std::span<const ReadExtent> extents) override;
  void flush() override;
  void truncate(std::uint64_t new_size) override;
  std::string name() const override { return "memory"; }

  /// Appends to `out` one extent per page piece of [offset, offset +
  /// length), each a span over the stored bytes (a page never written
  /// yields zeros), and pins their pages.  Copies no byte and counts no
  /// transfer.
  void gather(std::uint64_t offset, std::uint64_t length, Pinned& out);

  /// Frees every page lying wholly inside [offset, offset + length);
  /// its bytes read as zeros afterwards.  size() does not change.
  void discard(std::uint64_t offset, std::uint64_t length);

  /// Bytes held in allocated pages (a page shared with another store
  /// counts in both).
  std::uint64_t resident_bytes() const;

 private:
  struct Slot {
    Page page;            ///< null until first written
    bool shared = false;  ///< also held by another store: copy before writing
  };

  /// The page at `index`, allocated if absent and copied if pinned or
  /// shared.
  std::byte* writable_page_locked(std::uint64_t index);
  /// Stores `data` at `offset`: by sharing the page when it is a whole
  /// page lent by `lend` (null outside a scope), by copying otherwise.
  void put_locked(Lend* lend, std::uint64_t offset,
                  std::span<const std::byte> data);
  /// The thread's open Lend scope, unless it lends this store's own
  /// pages.
  Lend* lend_to_this() const;
  /// The page at `index`, or zeros when it was never written.
  const std::byte* readable_page_locked(std::uint64_t index) const;
  void copy_in_locked(std::uint64_t offset, std::span<const std::byte> data);
  void copy_out_locked(std::uint64_t offset, std::span<std::byte> out) const;
  void require_readable_locked(std::uint64_t offset, std::uint64_t length) const;

  mutable debug::RankedMutex<debug::LockRank::kStorageBase> mutex_;
  std::vector<Slot> pages_;  ///< by page index
  std::uint64_t size_ = 0;
  std::uint64_t resident_pages_ = 0;
};

}  // namespace apio::storage
