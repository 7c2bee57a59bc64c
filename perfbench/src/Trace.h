//===- perfbench/src/Trace.h - In-memory spans ---------------------------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans for the traced mode: name, start, end, parent span and request
/// id, kept in memory and written out once at the end as Chrome-trace
/// JSON plus a per-name summary (count, total and self seconds). Spans
/// are opened by the benchmark around calls into the program's public
/// functions; the program itself is not instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Span {
    std::string Name;
    int64_t StartNs = 0, EndNs = 0;
    int Parent = -1;     ///< Index of the enclosing span, or -1.
    int64_t Request = -1; ///< Request id the span works for, or -1.
  };

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string Name, int64_t Request);
  /// Closes span \p Idx (the innermost open one); returns its seconds.
  double close(int Idx);

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes the Chrome-trace file and the per-name summary; false on an
  /// I/O failure.
  bool write(const std::string &TracePath,
             const std::string &SummaryPath) const;

private:
  int64_t nowNs() const;

  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Opens a span for its scope; seconds() closes it early.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string Name, int64_t Request = -1)
      : T(T), Idx(T.open(std::move(Name), Request)) {}
  ~ScopedSpan() {
    if (Idx >= 0)
      T.close(Idx);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  double seconds() {
    double S = T.close(Idx);
    Idx = -1;
    return S;
  }

private:
  Tracer &T;
  int Idx;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
