// PassthroughConnector: the VOL's forwarding base, as HDF5's passthrough
// VOL connector demonstrates and as storage::Decorator is for backends.
//
// Wraps one inner Connector and forwards every call to it unchanged:
// file, the dataset transfers, prefetch, flush, wait_all, close, the
// observer subscriptions and the reported rank count.  Used bare it is
// a transparent layer (the property Sec. II-A emphasises); an
// interposer derives from it and states only the behaviour it adds
// (TraceRecorder adds a record sink).  Interposers emit no IoRecords of
// their own — subscriptions and the rank count land on the inner
// connector, which builds the records.
#pragma once

#include "common/error.h"
#include "vol/connector.h"

namespace apio::vol {

class PassthroughConnector : public Connector {
 public:
  explicit PassthroughConnector(ConnectorPtr inner) : inner_(std::move(inner)) {
    APIO_REQUIRE(inner_ != nullptr, "PassthroughConnector requires an inner connector");
  }

  const h5::FilePtr& file() const override { return inner_->file(); }
  RequestPtr dataset_write(h5::Dataset ds, const h5::Selection& selection,
                           std::span<const std::byte> data) override {
    return inner_->dataset_write(std::move(ds), selection, data);
  }
  RequestPtr dataset_read(h5::Dataset ds, const h5::Selection& selection,
                          std::span<std::byte> out) override {
    return inner_->dataset_read(std::move(ds), selection, out);
  }
  void prefetch(h5::Dataset ds, const h5::Selection& selection) override {
    inner_->prefetch(std::move(ds), selection);
  }
  RequestPtr flush() override { return inner_->flush(); }
  void wait_all() override { inner_->wait_all(); }
  void close() override { inner_->close(); }

  void set_reported_ranks(int ranks) override {
    Connector::set_reported_ranks(ranks);
    inner_->set_reported_ranks(ranks);
  }
  void add_observer(IoObserverPtr observer) override {
    inner_->add_observer(std::move(observer));
  }
  void remove_observer(const IoObserverPtr& observer) override {
    inner_->remove_observer(observer);
  }

  const ConnectorPtr& inner() const { return inner_; }

 private:
  ConnectorPtr inner_;
};

}  // namespace apio::vol
