//===- perfbench/src/Trace.cpp - In-memory spans -------------------------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

int Tracer::open(std::string Name, int64_t Request) {
  Span S;
  S.Name = std::move(Name);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Request = Request;
  if (Request < 0 && S.Parent >= 0)
    S.Request = Spans[S.Parent].Request;
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  Open.push_back(int(Spans.size() - 1));
  return Open.back();
}

double Tracer::close(int Idx) {
  Spans[Idx].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Idx)
    Open.pop_back();
  return double(Spans[Idx].EndNs - Spans[Idx].StartNs) * 1e-9;
}

bool Tracer::write(const std::string &TracePath,
                   const std::string &SummaryPath) const {
  FILE *F = std::fopen(TracePath.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%lld}}\n",
                 I ? "," : "", S.Name.c_str(), double(S.StartNs) * 1e-3,
                 double(S.EndNs - S.StartNs) * 1e-3, I, S.Parent,
                 (long long)S.Request);
  }
  std::fputs("]}\n", F);
  bool Ok = std::fclose(F) == 0;

  // Self time: a span's duration minus what its direct children cover.
  std::vector<int64_t> Child(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Child[S.Parent] += S.EndNs - S.StartNs;
  struct Row {
    uint64_t Count = 0;
    int64_t TotalNs = 0, SelfNs = 0;
  };
  std::map<std::string, Row> Rows;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Row &R = Rows[Spans[I].Name];
    int64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    ++R.Count;
    R.TotalNs += Dur;
    R.SelfNs += Dur - Child[I];
  }
  F = std::fopen(SummaryPath.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "%-24s %8s %12s %12s\n", "span", "count", "total_s",
               "self_s");
  for (const auto &[Name, R] : Rows)
    std::fprintf(F, "%-24s %8llu %12.6f %12.6f\n", Name.c_str(),
                 (unsigned long long)R.Count, double(R.TotalNs) * 1e-9,
                 double(R.SelfNs) * 1e-9);
  return std::fclose(F) == 0 && Ok;
}

} // namespace perfbench
