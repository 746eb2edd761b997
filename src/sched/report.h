// Rendering of the fair scheduler's accounting into the human-readable
// `sched:` report block, shared by apio_profile and tests.
//
// Reads only a SchedStats, the scheduler's one copy of its counts:
// dispatched ops and bytes, the priority-lane and submitted counts, and
// per tenant the dispatched bytes, channel share, queue-depth high-water
// mark and exact submit->grant wait percentiles (p50/p95/p99 over both
// lanes' wait_samples).  Returns "" when the scheduler dispatched
// nothing.
#pragma once

#include <string>

#include "sched/fair_scheduler.h"

namespace apio::sched {

std::string render_sched_report(const SchedStats& stats);

}  // namespace apio::sched
