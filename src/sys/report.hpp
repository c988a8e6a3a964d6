#pragma once
// System-wide status report: fabrics, gateways, resource manager and energy,
// rendered as aligned tables.  Examples print it after a run; operators of a
// long simulation can snapshot it at any time.

#include <string>

#include "sys/accelerated.hpp"
#include "sys/system.hpp"

namespace deep::sys {

/// Renders the full status of a DEEP system at the current simulation time.
std::string format_report(DeepSystem& system);

/// Renders the status of an accelerated-cluster baseline system.
std::string format_report(AcceleratedCluster& system);

}  // namespace deep::sys
