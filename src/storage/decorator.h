// storage::Decorator: the shared skeleton of the backend decorators
// (throttled, resilient, qos, faulty).
//
// A decorator wraps one inner backend and adds one policy around its
// transfers — a modelled delay, retries, fair-share admission, an
// injected fault.  The base owns everything else:
//   - size/close/truncate forward inward untouched (metadata, not
//     transfers; close() is a lifecycle announcement);
//   - name() is "<layer>(<inner name>)";
//   - write_v/read_v/flush each make ONE call of the layer's around()
//     hook with the op, the first offset and the total byte count, and
//     count one op in BackendStats.  The scalar write()/read() are
//     Backend's one-extent batches, so they take the same path;
//   - a batch reaches the inner backend as one write_v/read_v, so the
//     aggregation built above survives every layer.
//
// `transfer` is a non-owning reference to the inner call: around() runs
// it once (or again, to retry) before returning and never stores it, so
// no operation allocates.  The only layer that overrides write_v/read_v
// is the fault injector, which splits a batch into one-extent batches
// on purpose.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "obs/record.h"
#include "storage/backend.h"

namespace apio::storage {

class Decorator : public Backend {
 public:
  std::uint64_t size() const final { return inner_->size(); }
  [[nodiscard]] std::uint64_t write_v(
      std::span<const WriteExtent> extents) override {
    std::uint64_t moved = 0;
    around(obs::IoOp::kWrite, extents.empty() ? 0 : extents.front().offset,
           extent_bytes(extents),
           Transfer([&] { moved = inner_->write_v(extents); }));
    count_write(moved);
    return moved;
  }
  [[nodiscard]] std::uint64_t read_v(
      std::span<const ReadExtent> extents) override {
    std::uint64_t moved = 0;
    around(obs::IoOp::kRead, extents.empty() ? 0 : extents.front().offset,
           extent_bytes(extents),
           Transfer([&] { moved = inner_->read_v(extents); }));
    count_read(moved);
    return moved;
  }
  void flush() final {
    around(obs::IoOp::kFlush, 0, 0, Transfer([&] { inner_->flush(); }));
    count_flush();
  }
  void close() final { inner_->close(); }
  void truncate(std::uint64_t new_size) final { inner_->truncate(new_size); }
  std::string name() const final {
    return std::string(layer_) + "(" + inner_->name() + ")";
  }

 protected:
  /// Non-owning reference to the inner call around() wraps.
  class Transfer {
   public:
    template <typename Fn>
      requires(!std::is_same_v<std::remove_cvref_t<Fn>, Transfer>)
    explicit Transfer(Fn&& fn)
        : fn_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
          call_([](void* f) { (*static_cast<std::remove_reference_t<Fn>*>(f))(); }) {}
    void operator()() const { call_(fn_); }

   private:
    void* fn_;
    void (*call_)(void*);
  };

  Decorator(BackendPtr inner, const char* layer)
      : inner_(std::move(inner)), layer_(layer) {
    APIO_REQUIRE(inner_ != nullptr,
                 std::string(layer_) + " decorator requires an inner backend");
  }

  /// The layer's policy: runs `transfer` (the inner call for `op`, whose
  /// extents start at `offset` and carry `bytes` in total; 0/0 for a
  /// flush) under whatever the layer adds.  Errors propagate.
  virtual void around(obs::IoOp op, std::uint64_t offset, std::uint64_t bytes,
                      Transfer transfer) = 0;

  const BackendPtr& inner() const { return inner_; }

 private:
  BackendPtr inner_;
  const char* layer_;
};

}  // namespace apio::storage
