//===- perfbench/src/main.cpp - The end-to-end benchmark driver ----------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage (perfbench/run.py builds this and passes the paths):
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --cli PATH/paresy_cli --reference reference.tsv --out DIR
///   perfbench --make-reference       # prints a fresh reference.tsv
///   perfbench --self-test --reference reference.tsv
///
/// A run repeats whole rounds of the workload's fixed request list until
/// --seconds have passed, then prints one JSON line: end-to-end metrics
/// with --trace 0, per-layer metrics with --trace 1.
///
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Served.h"
#include "Trace.h"
#include "Traced.h"
#include "Workloads.h"

#include "engine/BackendRegistry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

using namespace perfbench;

namespace {

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

struct Metric {
  double Value;
  const char *Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::map<std::string, Metric> &M) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  bool First = true;
  for (const auto &[Name, V] : M) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), V.Value, V.Unit);
    First = false;
  }
  std::printf("}}\n");
}

/// Reads the count printed before \p Key in the server's stats text
/// (0 when the line is absent: the server omits all-zero delta lines).
uint64_t statCount(const std::string &Text, const char *Key) {
  size_t At = Text.find(Key);
  if (At == std::string::npos)
    return 0;
  size_t Start = Text.rfind(' ', At - 2);
  Start = Start == std::string::npos ? 0 : Start + 1;
  return std::strtoull(Text.c_str() + Start, nullptr, 10);
}

/// The service paths a round must take, read back from the server:
/// every repeat a result-cache hit, every edit a delta graft, every
/// widened resubmit a resume. Returns an error line or "".
std::string checkServerPaths(const Workload &W, const std::string &Stats,
                             uint64_t &Columns) {
  uint64_t Repeats = 0, Edits = 0, Widened = 0;
  for (const Request &Q : W.Round) {
    Repeats += Q.K == Kind::Repeat;
    Edits += Q.K == Kind::Edit;
    Widened += Q.K == Kind::Widened;
  }
  uint64_t Hits = statCount(Stats, " hits,");
  uint64_t Grafts = statCount(Stats, " graft(s)");
  uint64_t Resumed = statCount(Stats, " resumed,");
  uint64_t Declined = statCount(Stats, " declined,");
  Columns = statCount(Stats, " column(s)");
  if (Hits != Repeats || Grafts != Edits || Resumed != Widened ||
      Declined != 0)
    return "server took other paths than the stream's: " +
           std::to_string(Hits) + " hits, " + std::to_string(Grafts) +
           " grafts, " + std::to_string(Declined) + " declined, " +
           std::to_string(Resumed) + " resumed";
  return {};
}

int makeReference() {
  std::printf("# Reference figures: minimal cost and candidate count per "
              "instance, on backend cpu\n"
              "# under the options of its set. A copy: regenerate with\n"
              "#   python3 perfbench/run.py --make-reference > "
              "perfbench/reference.tsv\n"
              "# instance\tset\tmin_cost\tcandidates\tregex\n");
  for (const RefInstance &R : referenceInstances()) {
    paresy::SynthResult Res = paresy::engine::synthesizeWith(
        "cpu", R.I.Examples, paresy::Alphabet::of("01"), R.Opts);
    if (!Res.found()) {
      std::fprintf(stderr, "%s: %s\n", R.I.Name.c_str(),
                   paresy::statusName(Res.Status));
      return 1;
    }
    std::printf("%s\t%s\t%llu\t%llu\t%s\n", R.I.Name.c_str(), R.Set.c_str(),
                (unsigned long long)Res.Cost,
                (unsigned long long)Res.Stats.CandidatesGenerated,
                Res.Regex.c_str());
    std::fflush(stdout);
  }
  return 0;
}

/// Feeds planted wrong answers to every check; each must be rejected,
/// and the reference answer must pass.
int selfTest(const RefTable &Ref) {
  std::string Error;
  Workload W;
  if (!buildWorkload("table2-cpu", 1, Ref, W, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  auto It = std::find_if(W.Round.begin(), W.Round.end(),
                         [](const Request &Q) { return Q.Name == "no2"; });
  const Request &Q = *It;
  const RefRow &Row = Ref.at("no2");
  Answer Good{true, Row.Regex, Row.MinCost};

  std::string DropOne;
  for (size_t I = 1; I != Q.Expect.Pos.size(); ++I)
    DropOne += (I > 1 ? "+" : "") + Q.Expect.Pos[I];
  std::string Overfit;
  for (const std::string &P : Q.Expect.Pos)
    Overfit += (Overfit.empty() ? "" : "+") + (P.empty() ? "#" : P);
  ParsedRegex DropParsed = parseAnswer(DropOne, Q.Expect.CostFn);
  ParsedRegex OverParsed = parseAnswer(Overfit, Q.Expect.CostFn);
  Expectation Capped = Q.Expect;
  Capped.Cap = Row.MinCost - 1;

  // Each planted case must be rejected for its own reason (the verdict
  // contains Reason); an empty Reason means the case must pass.
  struct Case {
    const char *Name;
    std::string Verdict;
    const char *Reason;
  };
  Outcome GoodOut{true, Good, Row.Candidates};
  Outcome OffCands{true, Good, Row.Candidates + 1};
  Workload One = W;
  One.Round = {Q};
  One.Round[0].Ref = -1;
  uint64_t Failed = 0;
  auto roundVerdict = [&](const Outcome &O) {
    std::vector<std::string> E = checkRound(One, {O}, Failed);
    return E.empty() ? std::string() : E.front();
  };
  Case Cases[] = {
      {"reference answer", checkAnswer(Good, Q.Expect), ""},
      {"reference answer and candidates", roundVerdict(GoodOut), ""},
      {"regex that drops one positive",
       checkAnswer({true, DropOne, DropParsed.Cost}, Q.Expect),
       "rejects positive"},
      {"reported cost off by one",
       checkAnswer({true, Good.Regex, Good.Cost + 1}, Q.Expect),
       "reported cost"},
      {"correct regex that is not minimal",
       checkAnswer({true, Overfit, OverParsed.Cost}, Q.Expect),
       "not the reference minimum"},
      {"capped request reporting Found above its cap",
       checkAnswer(Good, Capped), "but reported Found"},
      {"candidate count off by one", roundVerdict(OffCands),
       "differ from the reference"},
      {"repeat with another answer",
       checkRepeat(Good, {true, Overfit, OverParsed.Cost}),
       "first answer was"},
      {"edit cheaper than its base",
       checkEdit(Good, {true, "1", Q.Expect.CostFn.Literal}), "below its base"},
      {"widened answer within the cap", checkWidened(Good.Cost, Good),
       "within the earlier NotFound cap"},
  };
  int Bad = 0;
  for (const Case &C : Cases) {
    bool Passed = C.Verdict.empty();
    bool Right = *C.Reason ? C.Verdict.find(C.Reason) != std::string::npos
                           : Passed;
    Bad += !Right;
    std::printf("%s  %-46s %s\n", Right ? "ok  " : "FAIL", C.Name,
                Passed ? "(accepted)" : C.Verdict.c_str());
  }
  std::printf("%s\n", Bad ? "self-test FAILED" : "self-test passed");
  return Bad ? 1 : 0;
}

struct Args {
  std::string Workload, Cli, Reference, Out = ".";
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false, MakeReference = false, SelfTest = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--make-reference") {
      A.MakeReference = true;
      continue;
    }
    if (K == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--cli")
      A.Cli = V;
    else if (K == "--reference")
      A.Reference = V;
    else if (K == "--out")
      A.Out = V;
    else
      return false;
  }
  return true;
}

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// Whole rounds until the run length is reached, but never a round that
/// would likely end past the wall-clock ceiling of a run.
bool anotherRound(Clock::time_point Start, double Seconds, double LastRound) {
  double Elapsed = since(Start);
  return Elapsed < Seconds && Elapsed + 1.5 * LastRound < 150;
}

int runServed(const Args &A, const Workload &W) {
  Clock::time_point Start = Clock::now();
  std::vector<RoundResult> Rounds;
  std::vector<std::string> Errors;
  uint64_t Failed = 0, Columns0 = 0;
  double Last = 0;
  do {
    Clock::time_point RoundStart = Clock::now();
    RoundResult R;
    std::string Error;
    if (!runServedRound(A.Cli, W, R, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::vector<Outcome> Got;
    for (const Reply &P : R.Replies)
      Got.push_back(P.Got);
    std::vector<std::string> E = checkRound(W, Got, Failed);
    Errors.insert(Errors.end(), E.begin(), E.end());
    uint64_t Columns = 0;
    std::string Paths = checkServerPaths(W, R.ServerStats, Columns);
    if (!Paths.empty())
      Errors.push_back(Paths);
    if (Rounds.empty())
      Columns0 = Columns;
    else if (Columns != Columns0)
      Errors.push_back("delta columns appended changed between rounds");
    // Answers repeat exactly from round to round.
    for (size_t I = 0; !Rounds.empty() && I != R.Replies.size(); ++I) {
      const Outcome &X = Rounds.front().Replies[I].Got;
      const Outcome &Y = R.Replies[I].Got;
      if (X.A.Regex != Y.A.Regex || X.A.Cost != Y.A.Cost ||
          X.Candidates != Y.Candidates)
        Errors.push_back(W.Round[I].Name + ": answer changed between rounds");
    }
    Rounds.push_back(std::move(R));
    Last = since(RoundStart);
  } while (anotherRound(Start, A.Seconds, Last));

  // Whole-run figures: time and CPU averaged over the rounds, latencies
  // pooled over every request of every round (see README: on a shared
  // machine the run-long average is the steadiest estimate).
  std::vector<double> Rss;
  double SolveSum = 0, CpuSum = 0, ColdCands = 0, ColdSecs = 0, LogLat = 0;
  uint64_t Attempted = 0;
  for (const RoundResult &R : Rounds) {
    SolveSum += R.SolveS;
    CpuSum += R.CpuS;
    Rss.push_back(R.PeakRssMb);
    for (size_t I = 0; I != R.Replies.size(); ++I) {
      const Reply &P = R.Replies[I];
      ++Attempted;
      LogLat += std::log(P.LatencyMs);
      Kind K = W.Round[I].K;
      if (K == Kind::Cold || K == Kind::Capped) {
        ColdCands += double(P.Got.Candidates);
        ColdSecs += P.LatencyMs * 1e-3;
      }
    }
  }
  for (const std::string &E : Errors)
    std::fprintf(stderr, "check failed: %s\n", E.c_str());
  std::fprintf(stderr, "%s: %zu round(s), columns appended per round %llu,"
                       " solve_s per round:",
               W.Name.c_str(), Rounds.size(), (unsigned long long)Columns0);
  for (const RoundResult &R : Rounds)
    std::fprintf(stderr, " %.3f", R.SolveS);
  std::fprintf(stderr, "\n");
  double N = double(Rounds.size());
  std::map<std::string, Metric> M;
  M["setup_s"] = {Rounds.front().SetupS, "s"};
  M["solve_s"] = {SolveSum / N, "s"};
  M["latency_gmean_ms"] = {std::exp(LogLat / double(Attempted)), "ms"};
  M["res_per_s"] = {ColdCands / ColdSecs, "REs/s"};
  M["peak_rss_mb"] = {median(Rss), "MiB"};
  M["cpu_s"] = {CpuSum / N, "s"};
  printResult(Errors.empty(), Attempted, Failed, M);
  return 0;
}

/// Units of the per-layer metrics (Traced.cpp fills the values).
const char *layerUnit(const std::string &Name) {
  static const std::map<std::string, const char *> Units = {
      {"lang.stage_s", "s"},
      {"lang.universe_words", "words"},
      {"lang.guide_pairs", "pairs"},
      {"lang.codec_encode_mb_per_s", "MB/s"},
      {"lang.codec_decode_mb_per_s", "MB/s"},
      {"engine.levels", "levels"},
      {"engine.step_s", "s"},
      {"engine.level_s_max", "s"},
      {"engine.candidates", "REs"},
      {"engine.pairs_visited", "pairs"},
      {"engine.unique_ratio", "ratio"},
      {"core.rows", "rows"},
      {"core.peak_bytes", "B"},
      {"core.bytes_per_row", "B/row"},
      {"core.compression_ratio", "x"},
      {"regex.verify_ms", "ms"},
      {"service.hit_ms", "ms"},
      {"service.miss_ms", "ms"},
      {"service.graft_ms", "ms"},
      {"service.resume_ms", "ms"},
      {"service.hits", "count"},
      {"service.delta_hits", "count"},
      {"service.delta_columns_appended", "count"},
      {"service.sessions_resumed", "count"},
      {"serve.overhead_ms", "ms"},
      {"serve.encode_us", "us"},
      {"serve.decode_us", "us"},
      {"serve.result_frame_bytes", "B"},
      {"serve.progress_frames", "frames"},
      {"trace.total_s", "s"},
  };
  auto It = Units.find(Name);
  return It == Units.end() ? "count" : It->second;
}

int runTraced(const Args &A, const Workload &W, const RefTable &Ref) {
  Tracer T;
  Workload Probe = buildProbe(W, Ref);
  Clock::time_point Start = Clock::now();
  std::vector<TracedRound> Rounds;
  double Last = 0;
  do {
    Clock::time_point RoundStart = Clock::now();
    Rounds.push_back(runTracedRound(W, Probe, T));
    Last = since(RoundStart);
  } while (anotherRound(Start, A.Seconds, Last));

  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  std::map<std::string, std::vector<double>> Samples;
  for (const TracedRound &R : Rounds) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    for (const std::string &E : R.Errors) {
      std::fprintf(stderr, "check failed: %s\n", E.c_str());
      Correct = false;
    }
    for (const auto &[Name, V] : R.Metrics)
      Samples[Name].push_back(V);
  }
  std::string Base = A.Out + "/" + W.Name + "-s" + std::to_string(A.Seed);
  if (!T.write(Base + ".trace.json", Base + ".layers.txt")) {
    std::fprintf(stderr, "error: cannot write the trace under %s\n",
                 A.Out.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: %zu traced round(s), %zu spans, trace %s\n",
               W.Name.c_str(), Rounds.size(), T.spans().size(),
               (Base + ".trace.json").c_str());
  // Medians over rounds; counts are equal in every round.
  std::map<std::string, Metric> M;
  for (const auto &[Name, V] : Samples)
    M[Name] = {median(V), layerUnit(Name)};
  printResult(Correct, Attempted, Failed, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: see the header of perfbench/src/main.cpp\n");
    return 2;
  }
  if (A.MakeReference)
    return makeReference();
  RefTable Ref;
  std::string Error;
  if (!readReference(A.Reference, Ref, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  if (A.SelfTest)
    return selfTest(Ref);
  Workload W;
  if (!buildWorkload(A.Workload, A.Seed, Ref, W, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  if (A.Trace)
    return runTraced(A, W, Ref);
  if (A.Cli.empty()) {
    std::fprintf(stderr, "error: --cli names the paresy_cli to launch\n");
    return 2;
  }
  return runServed(A, W);
}
