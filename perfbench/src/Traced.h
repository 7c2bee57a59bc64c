//===- perfbench/src/Traced.h - In-process traced replay -----------------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced mode replays a workload's inputs in-process with spans
/// around calls into each layer's public functions:
///
///  * engine pass - every cold spec goes through engine::stage(), one
///    SearchSession::step() span per cost level, bytesUsed() after each
///    level, encodeRow/decodeRow over the answer's rows and
///    satisfiesExamples on the answer;
///  * service pass - requests go through serve::encodeFrame/decodeFrame
///    and SynthService::submit() (span until the future resolves). On
///    serve-mix it is the workload's own stream; on the other workloads,
///    whose streams never repeat or edit a spec, it is a fixed probe of
///    one refinement script and one capped script on cheap instances,
///    run under the workload's backend and options. Latencies are kept
///    by request kind (repeat, edit, widened, first submission); the
///    service's counters tell whether each kind took its intended path
///    (cache hit, delta graft, resume).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

#include "Trace.h"
#include "Workloads.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One traced round: per-layer metrics plus the check verdicts.
struct TracedRound {
  std::map<std::string, double> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< Failed checks, one line each.
};

/// Runs one traced round of \p W (and, where \p W has no service
/// script of its own, the probe \p Probe), recording spans into \p T.
TracedRound runTracedRound(const Workload &W, const Workload &Probe,
                           Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
