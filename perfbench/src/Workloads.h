//===- perfbench/src/Workloads.h - Workload inputs -----------------------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads: which instances they draw, the server they run
/// against, and the request list of one round. The instance pools and
/// the request order are fixed; the seed permutes the examples inside
/// every submitted spec, so every seed does the same search work and
/// differs in what the service must canonicalize.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Check.h"

#include "core/Synthesizer.h"
#include "lang/Spec.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One instance of a pool: name, examples, optional hand-written target.
struct Instance {
  std::string Name;
  paresy::Spec Examples;
  std::string Target;
};

/// One row of the reference table (reference.tsv).
struct RefRow {
  std::string Set;
  uint64_t MinCost = 0;
  uint64_t Candidates = 0;
  std::string Regex;
};
using RefTable = std::map<std::string, RefRow>;

/// Reads reference.tsv; false with \p Error on a malformed file.
bool readReference(const std::string &Path, RefTable &Out,
                   std::string *Error);

/// How a request relates to the earlier ones of its script.
enum class Kind {
  Cold,    ///< First submission of a spec.
  Repeat,  ///< Same spec, examples permuted: the result cache answers.
  Edit,    ///< Superset edit of the script's spec: the delta graft.
  Capped,  ///< First submission with MaxCost below the minimum.
  Widened, ///< The capped spec resubmitted uncapped: parked session resumes.
};
const char *kindName(Kind K);

/// One request of a round.
struct Request {
  std::string Name; ///< Instance (or edited instance) name.
  Kind K = Kind::Cold;
  paresy::Spec Examples; ///< As submitted (seed-permuted).
  paresy::SynthOptions Opts;
  Expectation Expect;
  /// Index of the request this one is checked against (Repeat: the
  /// answer it repeats; Edit: its base; Widened: the capped request),
  /// or -1.
  int Ref = -1;
  /// Reference candidate count (0 = not pinned).
  uint64_t Candidates = 0;
};

/// A workload: the server it launches and the requests of one round.
struct Workload {
  std::string Name;
  std::string Backend;
  unsigned Jobs = 0; ///< Kernel worker threads (0 = backend default).
  paresy::SynthOptions Opts;
  /// paresy_cli arguments after "--serve 0".
  std::vector<std::string> ServerArgs;
  std::vector<Request> Round;
  /// Cold specs, in round order: what the engine-direct traced pass runs.
  std::vector<int> ColdIndex;
};

/// What the program answered to one request.
struct Outcome {
  bool Ok = false; ///< An answer arrived (no Overloaded or Error).
  Answer A;
  uint64_t Candidates = 0;
};

/// Checks every answer of a round of \p W: checkAnswer() on each, the
/// reference candidate count of each cold request, and the stream
/// properties of repeats, edits and widened resubmits. Returns one line
/// per failed check; requests without an answer only add to \p Failed.
std::vector<std::string> checkRound(const Workload &W,
                                    const std::vector<Outcome> &Got,
                                    uint64_t &Failed);

/// The traced-mode probe for workloads whose own stream never reaches
/// the service's cache, graft and resume paths: one refinement script
/// and one capped script, under \p W's backend and options.
Workload buildProbe(const Workload &W, const RefTable &Ref);

/// The names of the four workloads.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name for \p Seed. False with \p Error for an
/// unknown name or a reference table that lacks an instance.
bool buildWorkload(const std::string &Name, uint64_t Seed,
                   const RefTable &Ref, Workload &Out, std::string *Error);

/// The reference sets: every instance the workloads pin, with the set
/// name and the options its reference figures are computed under.
struct RefInstance {
  Instance I;
  std::string Set;
  paresy::SynthOptions Opts;
};
std::vector<RefInstance> referenceInstances();

/// The cost function every workload uses: the paper's (20,20,20,5,30).
paresy::CostFn workloadCost();
Costs toCosts(const paresy::CostFn &C);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
