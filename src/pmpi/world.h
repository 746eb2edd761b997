// pmpi: an in-process message-passing subset with MPI semantics.
//
// The paper's experiments run MPI programs (6 ranks/node on Summit, 32
// on Cori).  This repository has no MPI launcher, so pmpi provides the
// same programming model over std::thread ranks inside one process:
// SPMD bodies, a communicator per rank, barrier/bcast/reduce/gather
// collectives and matched point-to-point send/recv.  Collective
// semantics follow MPI: every rank of the communicator must call the
// collective, in the same order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/debug/lock_rank.h"

namespace apio::pmpi {

class Communicator;

/// Shared state backing one communicator group.  Create one World per
/// SPMD region; obtain per-rank Communicators from it.  Prefer run()
/// below, which owns the thread spawn/join.
class World {
 public:
  explicit World(int size);

  int size() const { return size_; }

  /// Returns the communicator handle for `rank` (0 <= rank < size()).
  Communicator comm(int rank);

 private:
  friend class Communicator;

  struct Mailbox {
    debug::RankedMutex<debug::LockRank::kPmpiMailbox> mutex;
    std::condition_variable_any cv;
    // keyed by (source rank, tag)
    std::map<std::pair<int, int>, std::deque<std::vector<std::byte>>> queues;
  };

  int size_;

  // Sense-reversing central barrier.
  debug::RankedMutex<debug::LockRank::kPmpiBarrier> barrier_mutex_;
  std::condition_variable_any barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Collective exchange area: one slot per rank, plus the root's bcast view.
  debug::RankedMutex<debug::LockRank::kPmpiCollective> coll_mutex_;
  std::vector<std::vector<std::byte>> coll_slots_;
  std::span<const std::byte> bcast_view_;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  void barrier();
};

/// Per-rank handle to a World.  Cheap to copy.
class Communicator {
 public:
  Communicator() = default;

  int rank() const { return rank_; }
  int size() const;

  /// Blocks until every rank has entered the barrier.
  void barrier();

  /// Broadcasts root's buffer into every rank's buffer.  All buffers
  /// must have identical byte size.
  void bcast_bytes(std::span<std::byte> buffer, int root);

  template <typename T>
  void bcast(std::span<T> buffer, int root) {
    bcast_bytes(std::as_writable_bytes(buffer), root);
  }

  /// All-gathers a variable-length byte buffer per rank; result is
  /// indexed by rank.  Collective-aggregation layers (two-phase I/O)
  /// use this directly to exchange extent lists.
  std::vector<std::vector<std::byte>> allgather_bytes(std::span<const std::byte> mine);

  /// All-gathers one value per rank; result is indexed by rank.
  template <typename T>
  std::vector<T> allgather(const T& value) {
    auto raw = allgather_bytes(std::as_bytes(std::span<const T>(&value, 1)));
    std::vector<T> out(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      std::memcpy(&out[r], raw[r].data(), sizeof(T));
    }
    return out;
  }

  /// Gathers one value per rank at `root`; non-roots receive an empty
  /// vector.  (Implemented over allgather for simplicity.)
  template <typename T>
  std::vector<T> gather(const T& value, int root) {
    auto all = allgather(value);
    if (rank() != root) return {};
    return all;
  }

  /// MPI_Allreduce with a caller-provided combiner.
  template <typename T>
  T allreduce(const T& value, const std::function<T(const T&, const T&)>& op) {
    auto all = allgather(value);
    T acc = all[0];
    for (std::size_t i = 1; i < all.size(); ++i) acc = op(acc, all[i]);
    return acc;
  }

  double allreduce_sum(double value);
  double allreduce_max(double value);
  double allreduce_min(double value);
  std::uint64_t allreduce_sum(std::uint64_t value);
  std::uint64_t allreduce_max(std::uint64_t value);

  /// Exclusive prefix sum over ranks (MPI_Exscan); rank 0 receives 0.
  std::uint64_t exscan_sum(std::uint64_t value);

  /// Blocking matched send/recv.  Message order between a fixed
  /// (source, dest, tag) triple is FIFO.  Sends are buffered and never
  /// block (MPI_Bsend semantics), so self-sends are safe.
  void send_bytes(std::span<const std::byte> data, int dest, int tag);
  std::vector<std::byte> recv_bytes(int source, int tag);

 private:
  friend class World;
  Communicator(World* world, int rank) : world_(world), rank_(rank) {}

  World* world_ = nullptr;
  int rank_ = -1;
};

/// Runs `body` as an SPMD region over `size` ranks, one std::thread per
/// rank, and joins them.  The first exception thrown by any rank is
/// rethrown on the caller after all ranks have been joined.
void run(int size, const std::function<void(Communicator&)>& body);

}  // namespace apio::pmpi
