#include "sched/report.h"

#include <cstdio>
#include <sstream>
#include <vector>

#include "common/stats.h"
#include "common/units.h"

namespace apio::sched {

std::string render_sched_report(const SchedStats& stats) {
  if (stats.dispatched_ops == 0) return "";

  std::uint64_t priority_ops = 0;
  for (const auto& [id, tenant] : stats.tenants) priority_ops += tenant.priority_ops;
  std::ostringstream os;
  os << "sched:\n";
  os << "  dispatched " << stats.dispatched_ops << " ops / "
     << format_bytes(stats.dispatched_bytes) << " (priority " << priority_ops
     << "), submitted " << stats.submitted_ops << "\n";

  for (const auto& [id, tenant] : stats.tenants) {
    const double share = stats.dispatched_bytes > 0
                             ? static_cast<double>(tenant.dispatched_bytes) /
                                   static_cast<double>(stats.dispatched_bytes)
                             : 0.0;
    char share_buf[16];
    std::snprintf(share_buf, sizeof(share_buf), "%5.1f%%", 100.0 * share);
    os << "  tenant " << id << ": " << format_bytes(tenant.dispatched_bytes)
       << "  share " << share_buf << "  max queue " << tenant.max_queue_depth;
    std::vector<double> waits;
    for (const auto& lane : tenant.wait_samples) {
      waits.insert(waits.end(), lane.begin(), lane.end());
    }
    if (!waits.empty()) {
      os << "  wait p50/p95/p99 " << format_seconds(percentile(waits, 50.0))
         << "/" << format_seconds(percentile(waits, 95.0)) << "/"
         << format_seconds(percentile(waits, 99.0)) << " (n=" << waits.size()
         << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace apio::sched
