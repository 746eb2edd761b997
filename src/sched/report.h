// Rendering of the fair scheduler's metrics into the human-readable
// `sched:` report block, shared by apio_profile and tests.
//
// Reads only an obs::RegistrySnapshot — per-tenant dispatched bytes and
// channel share, and the full submit->grant wait percentile spread
// (p50/p95/p99 from the per-tenant wait histograms).  Returns "" when
// the scheduler dispatched nothing, so non-QoS profiles stay unchanged.
#pragma once

#include <string>

#include "obs/metrics.h"

namespace apio::sched {

std::string render_sched_report(const obs::RegistrySnapshot& snapshot);

}  // namespace apio::sched
