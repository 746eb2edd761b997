#include "pmpi/world.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <tuple>

#include "common/debug/invariant.h"
#include "common/debug/thread_role.h"
#include "common/error.h"
#include "obs/metrics.h"

namespace apio::pmpi {

World::World(int size) : size_(size) {
  APIO_REQUIRE(size >= 1, "World size must be >= 1");
  coll_slots_.resize(static_cast<std::size_t>(size));
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
}

Communicator World::comm(int rank) {
  APIO_REQUIRE(rank >= 0 && rank < size_, "rank out of range");
  return Communicator(this, rank);
}

namespace {

obs::Histogram& barrier_wait_hist() {
  static auto& h = obs::Registry::instance().histogram("pmpi.barrier_wait_seconds");
  return h;
}

obs::Counter& barriers_counter() {
  static auto& c = obs::Registry::instance().counter("pmpi.barriers");
  return c;
}

}  // namespace

void World::barrier() {
  // Time spent here is rank-skew wait — the collective synchronization
  // cost the paper's Fig. 7 overlap analysis charges against I/O modes.
  const bool timed = obs::enabled();
  const double t0 = timed ? obs::steady_seconds() : 0.0;
  std::unique_lock lock(barrier_mutex_);
  const std::uint64_t my_generation = barrier_generation_;
  APIO_INVARIANT(barrier_arrived_ >= 0 && barrier_arrived_ < size_,
                 "barrier arrival count out of range");
  if (++barrier_arrived_ == size_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [&] { return barrier_generation_ != my_generation; });
    // A waiter may only be released by the generation flip of its own
    // round (or a later one, for a thread descheduled across rounds) —
    // never by a stale notify of an earlier round.
    APIO_INVARIANT(barrier_generation_ > my_generation,
                   "barrier released into an earlier generation");
  }
  if (timed) {
    barrier_wait_hist().record_seconds(obs::steady_seconds() - t0);
    barriers_counter().increment();
  }
}

int Communicator::size() const { return world_->size(); }

void Communicator::barrier() {
  APIO_ASSERT_ON_RANK(world_, rank_);
  world_->barrier();
}

void Communicator::bcast_bytes(std::span<std::byte> buffer, int root) {
  APIO_REQUIRE(root >= 0 && root < size(), "bcast root out of range");
  APIO_ASSERT_ON_RANK(world_, rank_);
  if (rank_ == root) {
    std::lock_guard lock(world_->coll_mutex_);
    world_->bcast_view_ = buffer;
  }
  world_->barrier();  // publish root's view
  if (rank_ != root) {
    std::span<const std::byte> src;
    {
      std::lock_guard lock(world_->coll_mutex_);
      src = world_->bcast_view_;
    }
    APIO_REQUIRE(src.size() == buffer.size(), "bcast buffer size mismatch across ranks");
    std::memcpy(buffer.data(), src.data(), buffer.size());
  }
  world_->barrier();  // all copies done before root may reuse its buffer
}

std::vector<std::vector<std::byte>> Communicator::allgather_bytes(
    std::span<const std::byte> mine) {
  APIO_ASSERT_ON_RANK(world_, rank_);
  {
    std::lock_guard lock(world_->coll_mutex_);
    world_->coll_slots_[rank_].assign(mine.begin(), mine.end());
  }
  world_->barrier();  // all deposits visible
  std::vector<std::vector<std::byte>> out;
  {
    std::lock_guard lock(world_->coll_mutex_);
    out = world_->coll_slots_;
  }
  world_->barrier();  // all copies done before slots may be overwritten
  return out;
}

double Communicator::allreduce_sum(double value) {
  return allreduce<double>(value, [](const double& a, const double& b) { return a + b; });
}

double Communicator::allreduce_max(double value) {
  return allreduce<double>(value, [](const double& a, const double& b) { return a > b ? a : b; });
}

double Communicator::allreduce_min(double value) {
  return allreduce<double>(value, [](const double& a, const double& b) { return a < b ? a : b; });
}

std::uint64_t Communicator::allreduce_sum(std::uint64_t value) {
  return allreduce<std::uint64_t>(
      value, [](const std::uint64_t& a, const std::uint64_t& b) { return a + b; });
}

std::uint64_t Communicator::allreduce_max(std::uint64_t value) {
  return allreduce<std::uint64_t>(
      value, [](const std::uint64_t& a, const std::uint64_t& b) { return a > b ? a : b; });
}

std::uint64_t Communicator::exscan_sum(std::uint64_t value) {
  auto all = allgather(value);
  std::uint64_t acc = 0;
  for (int r = 0; r < rank_; ++r) acc += all[r];
  return acc;
}

void Communicator::send_bytes(std::span<const std::byte> data, int dest, int tag) {
  APIO_REQUIRE(dest >= 0 && dest < size(), "send dest out of range");
  APIO_ASSERT_ON_RANK(world_, rank_);
  auto& box = *world_->mailboxes_[dest];
  {
    std::lock_guard lock(box.mutex);
    box.queues[{rank_, tag}].emplace_back(data.begin(), data.end());
  }
  box.cv.notify_all();
}

std::vector<std::byte> Communicator::recv_bytes(int source, int tag) {
  APIO_REQUIRE(source >= 0 && source < size(), "recv source out of range");
  APIO_ASSERT_ON_RANK(world_, rank_);
  auto& box = *world_->mailboxes_[rank_];
  std::unique_lock lock(box.mutex);
  const auto key = std::make_pair(source, tag);
  box.cv.wait(lock, [&] {
    auto it = box.queues.find(key);
    return it != box.queues.end() && !it->second.empty();
  });
  auto& queue = box.queues[key];
  std::vector<std::byte> msg = std::move(queue.front());
  queue.pop_front();
  return msg;
}

bool Communicator::iprobe(int source, int tag) const {
  APIO_REQUIRE(source >= 0 && source < size(), "iprobe source out of range");
  APIO_ASSERT_ON_RANK(world_, rank_);
  auto& box = *world_->mailboxes_[rank_];
  std::lock_guard lock(box.mutex);
  auto it = box.queues.find({source, tag});
  return it != box.queues.end() && !it->second.empty();
}

Communicator Communicator::split(int color, int key) {
  APIO_ASSERT_ON_RANK(world_, rank_);
  // Collect (color, key) of every rank; group and order deterministically.
  struct Entry {
    int color;
    int key;
    int rank;
  };
  auto entries = allgather(Entry{color, key, rank_});
  std::vector<Entry> group;
  for (const auto& e : entries) {
    if (e.color == color) group.push_back(e);
  }
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });
  int new_rank = -1;
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (group[i].rank == rank_) new_rank = static_cast<int>(i);
  }
  APIO_ASSERT(new_rank >= 0, "split(): calling rank missing from its group");

  // Rendezvous: the first arriver of each colour creates the sub-world.
  std::shared_ptr<World> sub;
  {
    std::lock_guard lock(world_->split_mutex_);
    auto& slot = world_->split_worlds_[color];
    if (!slot) slot = std::make_shared<World>(static_cast<int>(group.size()));
    sub = slot;
  }
  world_->barrier();  // every rank holds its sub-world
  if (rank_ == 0) {
    std::lock_guard lock(world_->split_mutex_);
    world_->split_worlds_.clear();  // ready for the next split() round
  }
  world_->barrier();
  return Communicator(std::move(sub), new_rank);
}

void run(int size, const std::function<void(Communicator&)>& body) {
  World world(size);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size));
  debug::RankedMutex<debug::LockRank::kCounters> error_mutex;
  std::exception_ptr first_error;

  for (int r = 0; r < size; ++r) {
    threads.emplace_back([&world, &body, &error_mutex, &first_error, r] {
      // Tag the thread with its rank so APIO_ASSERT_ON_RANK catches a
      // communicator leaking to the wrong rank thread (or to a stream).
      debug::ScopedThreadRole role(debug::ThreadRole::kPmpiRank, r, &world);
      // Rank-tag the observability layer too: spans land in per-rank
      // trace lanes and counter shards stripe by rank.
      obs::set_thread_rank(r);
      Communicator comm = world.comm(r);
      try {
        body(comm);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace apio::pmpi
