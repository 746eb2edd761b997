#include "workloads/workload_common.h"

#include <algorithm>

#include "common/error.h"
#include "vol/event_set.h"

namespace apio::workloads {

double PhaseTimes::peak_bandwidth() const {
  double peak = 0.0;
  for (double t : io_seconds) {
    if (t > 0.0) peak = std::max(peak, static_cast<double>(bytes_per_phase) / t);
  }
  return peak;
}

std::uint64_t drain(pmpi::Communicator& comm,
                    const std::vector<vol::RequestPtr>& requests,
                    std::vector<std::string>& local_errors) {
  vol::EventSet set;
  for (const auto& request : requests) set.insert(request);
  set.wait();
  for (auto& line : set.error_messages()) local_errors.push_back(std::move(line));
  return comm.allreduce_sum(static_cast<std::uint64_t>(set.num_errors()));
}

void drain_or_throw(pmpi::Communicator& comm,
                    const std::vector<vol::RequestPtr>& requests) {
  std::vector<std::string> local_errors;
  const std::uint64_t failed = drain(comm, requests, local_errors);
  if (failed == 0) return;
  throw IoError(std::to_string(failed) + " request(s) failed across ranks" +
                (local_errors.empty() ? "" : "; first on this rank: " + local_errors[0]));
}

}  // namespace apio::workloads
