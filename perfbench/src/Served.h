//===- perfbench/src/Served.h - One round against a live server ---------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The untraced path: launch `paresy_cli --serve 0` with the workload's
/// backend and options, connect one serve::ServeClient, submit the
/// round's requests as a closed loop (the next Submit goes out only
/// after the previous Result arrived), then stop the server and read
/// its CPU time and peak resident set from wait4().
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVED_H
#define PERFBENCH_SERVED_H

#include "Check.h"
#include "Workloads.h"

#include <string>
#include <vector>

namespace perfbench {

/// What one request got back.
struct Reply {
  Outcome Got;
  double LatencyMs = 0;
  uint64_t ProgressFrames = 0;
};

struct RoundResult {
  double SetupS = 0; ///< Launch until the connection holds its HelloOk.
  double SolveS = 0; ///< First Submit sent until last Result received.
  double CpuS = 0;   ///< Server user + system CPU seconds.
  double PeakRssMb = 0;
  std::vector<Reply> Replies;
  std::string ServerStats; ///< The server's StatsReply text.
};

/// Runs one round of \p W against a fresh server started from \p Cli.
/// False with \p Error when the server or the connection fails.
bool runServedRound(const std::string &Cli, const Workload &W,
                    RoundResult &Out, std::string *Error);

} // namespace perfbench

#endif // PERFBENCH_SERVED_H
