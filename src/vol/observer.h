// I/O observation hook: the "model feedback loop added to a high-level
// I/O library" of Fig. 2.  The record shape and observer interfaces
// now live in the unified observability layer (src/obs); this header
// re-exports them under apio::vol so connector-facing code keeps its
// historical spelling.  Every VOL connector reports one IoRecord per
// container operation; the performance model and trace sinks subscribe
// to the same stream through a CompositeObserver chain
// (Connector::add_observer), and the connector feeds the registry's two
// io.* latency histograms from it while obs is enabled.
#pragma once

#include "obs/record.h"

namespace apio::vol {

using obs::IoOp;
using obs::IoRecord;
using obs::IoObserver;
using obs::IoObserverPtr;
using obs::CompositeObserver;
using obs::CompositeObserverPtr;

}  // namespace apio::vol
