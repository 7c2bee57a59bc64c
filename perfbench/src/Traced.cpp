//===- perfbench/src/Traced.cpp - In-process traced replay ---------------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Traced.h"

#include "engine/BackendRegistry.h"
#include "engine/Backend.h"
#include "engine/Session.h"
#include "engine/Staging.h"
#include "lang/RowCodec.h"
#include "lang/Universe.h"
#include "regex/Matcher.h"
#include "regex/Regex.h"
#include "serve/Wire.h"
#include "service/SynthService.h"

#include <algorithm>
#include <chrono>
#include <set>

using namespace paresy;

namespace perfbench {

namespace {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Sums and samples the engine pass collects over a round.
struct EngineTotals {
  double StageS = 0, StepS = 0, LevelMaxS = 0;
  uint64_t Levels = 0, Candidates = 0, Unique = 0, Pairs = 0;
  uint64_t Words = 0, GuidePairs = 0, Instances = 0;
  uint64_t Rows = 0, PeakBytes = 0, PeakBytesSum = 0;
  uint64_t LogicalBytes = 0, CompressedBytes = 0;
  uint64_t CodecBytes = 0;
  double EncodeS = 0, DecodeS = 0;
  std::vector<double> VerifyMs;
};

/// The characteristic sequences, over \p U, of every sub-expression of
/// \p Answer: rows the language store held while finding it.
std::vector<std::vector<uint64_t>> answerRows(const std::string &Answer,
                                              const Universe &U) {
  RegexManager M;
  ParseResult P = parseRegex(M, Answer);
  std::vector<std::vector<uint64_t>> Rows;
  if (!P)
    return Rows;
  std::set<const Regex *> Seen;
  std::vector<const Regex *> Work = {P.Re};
  while (!Work.empty()) {
    const Regex *R = Work.back();
    Work.pop_back();
    if (!Seen.insert(R).second)
      continue;
    unsigned Arity = regexArity(R->kind());
    if (Arity >= 1)
      Work.push_back(R->lhs());
    if (Arity == 2)
      Work.push_back(R->rhs());
    NfaMatcher N(R);
    std::vector<uint64_t> Row(U.csWords(), 0);
    for (size_t I = 0; I != U.size(); ++I)
      if (N.matches(U.word(I)))
        Row[I / 64] |= uint64_t(1) << (I % 64);
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

/// Encodes and decodes \p Rows until about 1 MiB of row words went
/// through the codec each way; a decode that disagrees is an error.
bool codecPass(const std::vector<std::vector<uint64_t>> &Rows, Tracer &T,
               EngineTotals &E) {
  if (Rows.empty())
    return true;
  size_t Words = Rows.front().size();
  uint64_t RowBytes = Words * 8;
  uint64_t Reps = std::max<uint64_t>(1, (uint64_t(1) << 20) /
                                            (RowBytes * Rows.size()));
  std::string Bytes;
  {
    ScopedSpan S(T, "lang.codec_encode");
    for (uint64_t K = 0; K != Reps; ++K) {
      Bytes.clear();
      for (const std::vector<uint64_t> &R : Rows)
        encodeRow(R.data(), Words, Bytes);
    }
    E.EncodeS += S.seconds();
  }
  std::vector<uint64_t> Out(Words);
  bool Ok = true;
  {
    ScopedSpan S(T, "lang.codec_decode");
    for (uint64_t K = 0; K != Reps; ++K) {
      size_t At = 0;
      for (const std::vector<uint64_t> &R : Rows) {
        size_t Used = decodeRow(Bytes.data() + At, Bytes.size() - At,
                                Out.data(), Words);
        At += Used;
        Ok &= Used != 0 && Out == R;
      }
    }
    E.DecodeS += S.seconds();
  }
  E.CodecBytes += Reps * RowBytes * Rows.size();
  return Ok;
}

/// The engine pass over one cold request: stage, step level by level,
/// read bytesUsed() after each level, verify and run the codec.
Outcome enginePass(const Workload &W, const Request &Q, int64_t Id,
                   Tracer &T, EngineTotals &E, std::string &Error) {
  Outcome O;
  ScopedSpan Whole(T, "request", Id);
  std::shared_ptr<const engine::StagedQuery> SQ;
  {
    ScopedSpan S(T, "engine.stage");
    SQ = engine::stage(Q.Examples, Alphabet::of("01"), Q.Opts);
    E.StageS += S.seconds();
  }
  if (SQ->immediate()) {
    Error = "staged query resolved without search";
    return O;
  }
  engine::BackendConfig Config;
  Config.Workers = W.Jobs;
  engine::SearchSession Session(SQ, engine::createBackend(W.Backend, Config));
  uint64_t Cumulative = 0, Reached = 0;
  Session.setProgressHook(
      [&](const engine::SessionProgress &P) { Reached = P.Candidates; });
  uint64_t Peak = 0;
  while (Session.state() == engine::SessionState::Running) {
    ScopedSpan S(T, "engine.step");
    engine::SessionState St = Session.step();
    double Secs = S.seconds();
    uint64_t Now = St == engine::SessionState::Running
                       ? Reached
                       : Session.result().Stats.CandidatesGenerated;
    E.Candidates += Now - Cumulative;
    Cumulative = Now;
    E.StepS += Secs;
    E.LevelMaxS = std::max(E.LevelMaxS, Secs);
    ++E.Levels;
    ScopedSpan B(T, "core.bytes_used");
    Peak = std::max(Peak, Session.bytesUsed());
  }
  const SynthResult &R = Session.result();
  const SynthStats &St = R.Stats;
  E.Unique += St.UniqueLanguages;
  E.Pairs += St.PairsVisited;
  E.Words += St.CsWords;
  E.GuidePairs += St.GuidePairs;
  E.Rows += St.CacheEntries;
  E.PeakBytes = std::max(E.PeakBytes, Peak);
  E.PeakBytesSum += Peak;
  if (St.StoreCompressed) {
    E.LogicalBytes += St.StoreLogicalBytes;
    E.CompressedBytes += St.StoreCompressedBytes;
  }
  ++E.Instances;
  O.Ok = true;
  O.A.Found = R.found();
  O.A.Regex = R.Regex;
  O.A.Cost = R.Cost;
  O.Candidates = Cumulative;
  if (R.found()) {
    RegexManager M;
    ParseResult P = parseRegex(M, R.Regex);
    ScopedSpan V(T, "regex.verify");
    bool Sat = P && satisfiesExamples(M, P.Re, Q.Examples.Pos,
                                      Q.Examples.Neg);
    E.VerifyMs.push_back(V.seconds() * 1e3);
    if (!Sat)
      Error = "satisfiesExamples rejected " + R.Regex;
    if (!codecPass(answerRows(R.Regex, *SQ->universe()), T, E))
      Error = "a decoded row differs from the encoded one";
  }
  return O;
}

/// Per-kind service latencies and frame figures of the service pass.
struct ServiceTotals {
  std::vector<double> HitMs, MissMs, GraftMs, ResumeMs, OverheadMs;
  std::vector<double> EncodeUs, DecodeUs;
  uint64_t ResultBytes = 0, ResultFrames = 0, Progress = 0;
  service::ServiceStats Stats;
  double WallS = 0;
};

/// Encodes and decodes one frame under spans; returns the payload size.
template <typename FrameT>
size_t roundTrip(const FrameT &F, serve::Frame &Out, Tracer &T,
                 ServiceTotals &S, std::string &Error) {
  std::string Payload;
  {
    ScopedSpan E(T, "serve.encode");
    Payload = serve::encodeFrame(F);
    S.EncodeUs.push_back(E.seconds() * 1e6);
  }
  ScopedSpan D(T, "serve.decode");
  bool Ok = serve::decodeFrame(Payload, Out);
  S.DecodeUs.push_back(D.seconds() * 1e6);
  if (!Ok)
    Error = "a frame failed to decode";
  return Payload.size();
}

/// The service pass: every request of \p W through the wire codec and
/// an in-process SynthService configured like the server.
std::vector<Outcome> servicePass(const Workload &W, int64_t IdBase,
                                 Tracer &T, ServiceTotals &S,
                                 std::string &Error) {
  service::ServiceOptions SO;
  SO.Backend = W.Backend;
  SO.Kernels.Workers = W.Jobs;
  service::SynthService Service(SO);
  Alphabet Sigma = Alphabet::of("01");
  std::vector<Outcome> Got;
  auto Start = std::chrono::steady_clock::now();
  for (size_t I = 0; I != W.Round.size(); ++I) {
    const Request &Q = W.Round[I];
    int64_t Id = IdBase + int64_t(I);
    ScopedSpan Whole(T, "request", Id);
    serve::SubmitFrame Sub;
    Sub.RequestId = uint64_t(Id);
    Sub.Examples = Q.Examples;
    Sub.AlphabetChars = "01";
    Sub.Opts = Q.Opts;
    serve::Frame In;
    roundTrip(Sub, In, T, S, Error);

    auto Sink = std::make_shared<service::ClientSink>();
    Sink->OnProgress = [&S](const engine::SessionProgress &) {
      ++S.Progress;
    };
    service::SubmitContext Ctx;
    Ctx.Tenant = "perfbench";
    Ctx.Sink = Sink;
    SynthResult R;
    double Ms;
    {
      ScopedSpan Sp(T, "service.submit");
      R = Service.submit(In.Submit.Examples, Sigma, In.Submit.Opts, Ctx)
              .get();
      Ms = Sp.seconds() * 1e3;
    }
    // Latencies by request kind, whichever path the service took; the
    // service counters say whether it took the intended one.
    switch (Q.K) {
    case Kind::Repeat:
      S.HitMs.push_back(Ms);
      break;
    case Kind::Edit:
      S.GraftMs.push_back(Ms);
      break;
    case Kind::Widened:
      S.ResumeMs.push_back(Ms);
      break;
    case Kind::Cold:
    case Kind::Capped:
      S.MissMs.push_back(Ms);
      S.OverheadMs.push_back(
          Ms - (R.Stats.PrecomputeSeconds + R.Stats.SearchSeconds) * 1e3);
      break;
    }

    serve::ResultFrame RF;
    RF.RequestId = uint64_t(Id);
    RF.Status = uint8_t(R.Status);
    RF.Regex = R.Regex;
    RF.Cost = R.Cost;
    RF.Message = R.Message;
    RF.Candidates = R.Stats.CandidatesGenerated;
    RF.Unique = R.Stats.UniqueLanguages;
    RF.PrecomputeSeconds = R.Stats.PrecomputeSeconds;
    RF.SearchSeconds = R.Stats.SearchSeconds;
    RF.LevelsRun = R.Stats.LevelsRun;
    RF.Parked = Sink->SessionParked.load() ? 1 : 0;
    serve::Frame Back;
    S.ResultBytes += roundTrip(RF, Back, T, S, Error);
    ++S.ResultFrames;

    Outcome O;
    O.Ok = true;
    O.A.Found = SynthStatus(Back.Result.Status) == SynthStatus::Found;
    O.A.Regex = Back.Result.Regex;
    O.A.Cost = Back.Result.Cost;
    O.Candidates = Back.Result.Candidates;
    Got.push_back(std::move(O));
  }
  S.WallS = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          Start)
                .count();
  S.Stats = Service.stats();
  return Got;
}

} // namespace

TracedRound runTracedRound(const Workload &W, const Workload &Probe,
                           Tracer &T) {
  TracedRound Out;
  std::string Error;

  // Engine pass over the cold specs, checked like served answers.
  EngineTotals E;
  Workload Cold = W;
  Cold.Round.clear();
  std::vector<Outcome> ColdGot;
  auto Start = std::chrono::steady_clock::now();
  for (int Idx : W.ColdIndex) {
    Request Q = W.Round[Idx];
    Q.Ref = -1;
    ColdGot.push_back(enginePass(W, Q, Idx, T, E, Error));
    Cold.Round.push_back(std::move(Q));
  }
  double EngineWallS = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  Out.Errors = checkRound(Cold, ColdGot, Out.Failed);
  Out.Attempted += Cold.Round.size();

  // Service pass: the workload's own stream on serve-mix, else the probe.
  bool OwnStream = W.Name == "serve-mix";
  const Workload &SW = OwnStream ? W : Probe;
  ServiceTotals S;
  std::vector<Outcome> Got = servicePass(SW, 1000000, T, S, Error);
  std::vector<std::string> More = checkRound(SW, Got, Out.Failed);
  Out.Errors.insert(Out.Errors.end(), More.begin(), More.end());
  Out.Attempted += SW.Round.size();
  if (!Error.empty())
    Out.Errors.push_back(Error);

  auto &M = Out.Metrics;
  M["lang.stage_s"] = E.StageS;
  M["lang.universe_words"] = double(E.Words) / double(E.Instances);
  M["lang.guide_pairs"] = double(E.GuidePairs);
  M["lang.codec_encode_mb_per_s"] = double(E.CodecBytes) / 1e6 / E.EncodeS;
  M["lang.codec_decode_mb_per_s"] = double(E.CodecBytes) / 1e6 / E.DecodeS;
  M["engine.levels"] = double(E.Levels);
  M["engine.step_s"] = E.StepS;
  M["engine.level_s_max"] = E.LevelMaxS;
  M["engine.candidates"] = double(E.Candidates);
  M["engine.pairs_visited"] = double(E.Pairs);
  M["engine.unique_ratio"] = double(E.Unique) / double(E.Candidates);
  M["core.rows"] = double(E.Rows);
  M["core.peak_bytes"] = double(E.PeakBytes);
  M["core.bytes_per_row"] = double(E.PeakBytesSum) / double(E.Rows);
  M["core.compression_ratio"] =
      E.CompressedBytes ? double(E.LogicalBytes) / double(E.CompressedBytes)
                        : 1.0;
  M["regex.verify_ms"] = median(E.VerifyMs);
  M["service.hit_ms"] = median(S.HitMs);
  M["service.miss_ms"] = median(S.MissMs);
  M["service.graft_ms"] = median(S.GraftMs);
  M["service.resume_ms"] = median(S.ResumeMs);
  M["service.hits"] = double(S.Stats.Hits);
  M["service.delta_hits"] = double(S.Stats.DeltaHits);
  M["service.delta_columns_appended"] = double(S.Stats.DeltaColumnsAppended);
  M["service.sessions_resumed"] = double(S.Stats.SessionsResumed);
  M["serve.overhead_ms"] = median(S.OverheadMs);
  M["serve.encode_us"] = median(S.EncodeUs);
  M["serve.decode_us"] = median(S.DecodeUs);
  M["serve.result_frame_bytes"] =
      double(S.ResultBytes) / double(S.ResultFrames);
  M["serve.progress_frames"] = double(S.Progress);
  M["trace.total_s"] = OwnStream ? S.WallS : EngineWallS;
  return Out;
}

} // namespace perfbench
