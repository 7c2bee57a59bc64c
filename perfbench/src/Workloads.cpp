//===- perfbench/src/Workloads.cpp - Workload inputs ---------------------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "benchgen/AlphaSuite.h"
#include "benchgen/Generators.h"

#include <fstream>
#include <random>
#include <sstream>

using namespace paresy;

namespace perfbench {

namespace {

constexpr uint64_t MiB = uint64_t(1) << 20;

// The instance pools. Generated instances are named the way benchgen
// names them, e.g. "T1-le12-p4-n4-s2".
const char *const ParallelNames[] = {"no3", "no6", "no9", "no14", "no16",
                                     "no22"};

struct GenSpec {
  benchgen::BenchType Type;
  unsigned Len, Pos, Neg;
  uint64_t Seed;
};

// wide-tiered: long Type-1 examples, universes of 4 and 8 CS words.
const GenSpec WideGens[] = {
    {benchgen::BenchType::Type1, 12, 4, 4, 1},
    {benchgen::BenchType::Type1, 12, 4, 4, 3},
    {benchgen::BenchType::Type1, 12, 4, 4, 7},
    {benchgen::BenchType::Type1, 14, 3, 3, 3},
    {benchgen::BenchType::Type1, 14, 3, 3, 17},
    {benchgen::BenchType::Type1, 14, 3, 3, 23},
};

// serve-mix: easy and medium Table-2 instances plus small Type-2 ones.
const char *const RefineTable2[] = {"no5", "no8", "no12", "no16"};
const char *const CappedTable2[] = {"no3", "no17"};
const GenSpec RefineGens[] = {
    {benchgen::BenchType::Type2, 5, 5, 5, 3},
    {benchgen::BenchType::Type2, 5, 5, 5, 6},
    {benchgen::BenchType::Type2, 5, 5, 5, 8},
    {benchgen::BenchType::Type2, 5, 5, 5, 9},
};
const GenSpec CappedGens[] = {
    {benchgen::BenchType::Type2, 5, 5, 5, 1},
    {benchgen::BenchType::Type2, 5, 5, 5, 7},
};

Instance suiteInstance(const std::string &Name) {
  for (const benchgen::SuiteInstance &S : benchgen::alphaRegexSuite())
    if (Name == S.Name)
      return {S.Name, S.Examples, S.Target};
  return {};
}

Instance generated(const GenSpec &G) {
  benchgen::GenParams P;
  P.MaxLen = G.Len;
  P.NumPos = G.Pos;
  P.NumNeg = G.Neg;
  P.Seed = G.Seed;
  benchgen::GeneratedBenchmark B;
  std::string Error;
  if (!benchgen::generate(G.Type, P, B, &Error))
    return {};
  return {B.Name, B.Examples, ""};
}

/// The superset edit of a refinement script: one new negative example,
/// longer than every example so far (so it brings a new infix, hence
/// new universe columns): the first positive padded with '0's.
Instance editOf(const Instance &I) {
  size_t Longest = I.Examples.maxExampleLength();
  std::string W = I.Examples.Pos.front();
  do
    W += '0';
  while (W.size() <= Longest);
  Instance E{I.Name + "+e", I.Examples, ""};
  E.Examples.Neg.push_back(W);
  return E;
}

SynthOptions baseOptions() {
  SynthOptions O;
  O.Cost = workloadCost();
  O.Shards = 1;
  return O;
}

SynthOptions wideOptions() {
  SynthOptions O = baseOptions();
  O.MemoryLimitBytes = 16 * MiB;
  O.CompressStore = true;
  return O;
}

std::vector<Instance> refineInstances() {
  std::vector<Instance> Out;
  for (const char *N : RefineTable2)
    Out.push_back(suiteInstance(N));
  for (const GenSpec &G : RefineGens)
    Out.push_back(generated(G));
  return Out;
}

std::vector<Instance> cappedInstances() {
  std::vector<Instance> Out;
  for (const char *N : CappedTable2)
    Out.push_back(suiteInstance(N));
  for (const GenSpec &G : CappedGens)
    Out.push_back(generated(G));
  return Out;
}

/// Fisher-Yates over an explicitly specified engine, so a seed gives the
/// same permutation on every standard library.
template <typename T> void shuffle(std::vector<T> &V, std::mt19937_64 &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R() % I]);
}

Spec permuted(const Spec &S, std::mt19937_64 &R) {
  Spec Out = S;
  shuffle(Out.Pos, R);
  shuffle(Out.Neg, R);
  return Out;
}

/// Appends one request for \p I to \p W; returns its index.
int addRequest(Workload &W, const Instance &I, Kind K, const RefTable &Ref,
               int RefIdx, std::mt19937_64 &R) {
  Request Q;
  Q.Name = I.Name;
  Q.K = K;
  Q.Examples = permuted(I.Examples, R);
  Q.Opts = W.Opts;
  Q.Ref = RefIdx;
  Q.Expect.Pos = I.Examples.Pos;
  Q.Expect.Neg = I.Examples.Neg;
  Q.Expect.CostFn = toCosts(W.Opts.Cost);
  Q.Expect.Target = I.Target;
  auto It = Ref.find(I.Name);
  uint64_t Min = It == Ref.end() ? 0 : It->second.MinCost;
  if (K == Kind::Capped) {
    Q.Opts.MaxCost = Min - 1;
    Q.Expect.Cap = Min - 1;
  } else {
    Q.Expect.MinCost = Min;
  }
  if (K == Kind::Cold && It != Ref.end())
    Q.Candidates = It->second.Candidates;
  W.Round.push_back(std::move(Q));
  int Idx = int(W.Round.size() - 1);
  if (K == Kind::Cold || K == Kind::Capped)
    W.ColdIndex.push_back(Idx);
  return Idx;
}

void addScript(Workload &W, const Instance &I, bool Capped,
               const RefTable &Ref, std::mt19937_64 &R) {
  if (Capped) {
    int C = addRequest(W, I, Kind::Capped, Ref, -1, R);
    int Wd = addRequest(W, I, Kind::Widened, Ref, C, R);
    addRequest(W, I, Kind::Repeat, Ref, Wd, R);
  } else {
    int C = addRequest(W, I, Kind::Cold, Ref, -1, R);
    addRequest(W, I, Kind::Repeat, Ref, C, R);
    Instance E = editOf(I);
    int Ed = addRequest(W, E, Kind::Edit, Ref, C, R);
    addRequest(W, E, Kind::Repeat, Ref, Ed, R);
  }
}

} // namespace

Workload buildProbe(const Workload &W, const RefTable &Ref) {
  Workload P = W;
  P.Round.clear();
  P.ColdIndex.clear();
  std::mt19937_64 R(1);
  addScript(P, suiteInstance("no5"), false, Ref, R);
  addScript(P, suiteInstance("no17"), true, Ref, R);
  return P;
}

std::vector<std::string> checkRound(const Workload &W,
                                    const std::vector<Outcome> &Got,
                                    uint64_t &Failed) {
  std::vector<std::string> Errors;
  for (size_t I = 0; I != W.Round.size(); ++I) {
    const Request &Q = W.Round[I];
    const Outcome &O = Got[I];
    if (!O.Ok) {
      ++Failed;
      continue;
    }
    std::string Why = checkAnswer(O.A, Q.Expect);
    if (Why.empty() && Q.Candidates != 0 && O.Candidates != Q.Candidates)
      Why = "candidates " + std::to_string(O.Candidates) +
            " differ from the reference " + std::to_string(Q.Candidates);
    if (Why.empty() && Q.Ref >= 0 && Got[Q.Ref].Ok) {
      const Outcome &Base = Got[Q.Ref];
      if (Q.K == Kind::Repeat)
        Why = checkRepeat(Base.A, O.A);
      else if (Q.K == Kind::Edit)
        Why = checkEdit(Base.A, O.A);
      else if (Q.K == Kind::Widened)
        Why = checkWidened(W.Round[Q.Ref].Expect.Cap, O.A);
    }
    if (!Why.empty())
      Errors.push_back(Q.Name + " (" + kindName(Q.K) + "): " + Why);
  }
  return Errors;
}

CostFn workloadCost() { return CostFn(20, 20, 20, 5, 30); }

Costs toCosts(const CostFn &C) {
  Costs Out;
  Out.Literal = C.Literal;
  Out.Question = C.Question;
  Out.Star = C.Star;
  Out.Concat = C.Concat;
  Out.Union = C.Union;
  return Out;
}

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Cold:
    return "cold";
  case Kind::Repeat:
    return "repeat";
  case Kind::Edit:
    return "edit";
  case Kind::Capped:
    return "capped";
  case Kind::Widened:
    return "widened";
  }
  return "?";
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "table2-cpu", "table2-parallel", "wide-tiered", "serve-mix"};
  return Names;
}

std::vector<RefInstance> referenceInstances() {
  std::vector<RefInstance> Out;
  for (const benchgen::SuiteInstance &S : benchgen::alphaRegexSuite())
    Out.push_back({{S.Name, S.Examples, S.Target}, "table2", baseOptions()});
  for (const GenSpec &G : WideGens)
    Out.push_back({generated(G), "wide", wideOptions()});
  for (const GenSpec &G : RefineGens)
    Out.push_back({generated(G), "serve", baseOptions()});
  for (const GenSpec &G : CappedGens)
    Out.push_back({generated(G), "serve", baseOptions()});
  for (const Instance &I : refineInstances())
    Out.push_back({editOf(I), "serve-edit", baseOptions()});
  return Out;
}

bool readReference(const std::string &Path, RefTable &Out,
                   std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    *Error = "cannot read " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Name, Min, Cands;
    RefRow Row;
    if (!std::getline(Fields, Name, '\t') ||
        !std::getline(Fields, Row.Set, '\t') ||
        !std::getline(Fields, Min, '\t') ||
        !std::getline(Fields, Cands, '\t') ||
        !std::getline(Fields, Row.Regex)) {
      *Error = "malformed reference line: " + Line;
      return false;
    }
    Row.MinCost = std::stoull(Min);
    Row.Candidates = std::stoull(Cands);
    Out[Name] = Row;
  }
  return true;
}

bool buildWorkload(const std::string &Name, uint64_t Seed,
                   const RefTable &Ref, Workload &W, std::string *Error) {
  std::mt19937_64 R(Seed);
  W = Workload();
  W.Name = Name;
  W.Opts = baseOptions();
  W.Backend = "cpu";
  std::vector<Instance> Pool;
  if (Name == "table2-cpu") {
    for (const benchgen::SuiteInstance &S : benchgen::alphaRegexSuite())
      Pool.push_back({S.Name, S.Examples, S.Target});
  } else if (Name == "table2-parallel") {
    W.Backend = "cpu-parallel";
    W.Jobs = 2;
    W.Opts.MemoryLimitBytes = 1024 * MiB;
    W.ServerArgs = {"--jobs", "2", "--memory-mb", "1024"};
    for (const char *N : ParallelNames)
      Pool.push_back(suiteInstance(N));
  } else if (Name == "wide-tiered") {
    W.Opts = wideOptions();
    W.ServerArgs = {"--memory-limit", "16"};
    for (const GenSpec &G : WideGens)
      Pool.push_back(generated(G));
  } else if (Name != "serve-mix") {
    *Error = "unknown workload '" + Name + "'";
    return false;
  }
  W.ServerArgs.insert(W.ServerArgs.begin(),
                      {"--backend", W.Backend, "--serve-workers", "1"});

  // The request order is fixed: the service keeps solved sessions as
  // delta donors under a byte budget, so the order decides which of
  // them are resident together and moves the server's peak RSS.
  if (Name != "serve-mix") {
    for (const Instance &I : Pool)
      addRequest(W, I, Kind::Cold, Ref, -1, R);
  } else {
    // Scripts run one after another, two refinement scripts to every
    // capped one. A refinement script: cold, permuted repeat, superset
    // edit, permuted repeat of the edit. A capped script: capped first
    // submission, widened resubmit, permuted repeat.
    std::vector<Instance> Refine = refineInstances();
    std::vector<Instance> Capped = cappedInstances();
    for (size_t I = 0; I != Refine.size(); ++I) {
      addScript(W, Refine[I], false, Ref, R);
      if (I % 2 == 1)
        addScript(W, Capped[I / 2], true, Ref, R);
    }
  }
  for (const Request &Q : W.Round)
    if (Q.Examples.Pos.empty() || !Ref.count(Q.Name)) {
      *Error = "instance '" + Q.Name + "' is missing from the reference table";
      return false;
    }
  return true;
}

} // namespace perfbench
