#include "sched/report.h"

#include <cstdio>
#include <sstream>

#include "common/units.h"

namespace apio::sched {

std::string render_sched_report(const obs::RegistrySnapshot& snapshot) {
  const std::uint64_t dispatched = snapshot.counter_total("sched.dispatched");
  if (dispatched == 0) return "";

  std::ostringstream os;
  const std::uint64_t total_bytes =
      snapshot.counter_total("sched.dispatched_bytes");
  os << "sched:\n";
  os << "  dispatched " << dispatched << " ops / "
     << format_bytes(total_bytes) << " (priority "
     << snapshot.counter_total("sched.priority_dispatched") << ")\n";

  const std::string prefix = "sched.tenant.";
  const std::string suffix = ".dispatched_bytes";
  for (const auto& [name, counter] : snapshot.counters) {
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string tenant =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    const double share = total_bytes > 0
                             ? static_cast<double>(counter.total) /
                                   static_cast<double>(total_bytes)
                             : 0.0;
    char share_buf[16];
    std::snprintf(share_buf, sizeof(share_buf), "%5.1f%%", 100.0 * share);
    os << "  tenant " << tenant << ": " << format_bytes(counter.total)
       << "  share " << share_buf;
    auto hist = snapshot.histograms.find(prefix + tenant + ".wait_seconds");
    if (hist != snapshot.histograms.end() && hist->second.count > 0) {
      os << "  wait p50/p95/p99 " << format_seconds(hist->second.p50_seconds())
         << "/" << format_seconds(hist->second.p95_seconds()) << "/"
         << format_seconds(hist->second.p99_seconds()) << " (n="
         << hist->second.count << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace apio::sched
