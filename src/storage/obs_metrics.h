// Shared registry entries for leaf storage backends (memory, posix).
// Wrapper backends (throttled, faulty) delegate to a leaf and must NOT
// record here — one physical transfer, one sample.  Byte and op counts
// live in each backend's own BackendStats.
#pragma once

#include "obs/metrics.h"

namespace apio::storage {

inline obs::Histogram& storage_read_hist() {
  static auto& h = obs::Registry::instance().histogram("storage.read_seconds");
  return h;
}

inline obs::Histogram& storage_write_hist() {
  static auto& h = obs::Registry::instance().histogram("storage.write_seconds");
  return h;
}

/// Data-sieved windows of vectored reads and writes (posix leaf).
inline obs::Counter& storage_sieve_windows() {
  static auto& c = obs::Registry::instance().counter("storage.sieve_windows");
  return c;
}

/// Hole bytes those windows moved beyond the payload.
inline obs::Counter& storage_sieve_hole_bytes() {
  static auto& c = obs::Registry::instance().counter("storage.sieve_hole_bytes");
  return c;
}

/// Sieved write windows that met no byte the backend had written, so
/// skipped their read-back.
inline obs::Counter& storage_sieve_reads_skipped() {
  static auto& c = obs::Registry::instance().counter("storage.sieve_reads_skipped");
  return c;
}

}  // namespace apio::storage
