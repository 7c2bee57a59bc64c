//===- perfbench/src/Check.h - Independent answer checks ----------------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own verdict on every answer the program returns. It
/// shares no code with the program's regex layer: the answer text is
/// parsed by a parser written here, its cost is recomputed from that
/// parse, and its language is tested by std::regex (ECMAScript, full
/// match). A check returns an empty string when the answer passes and
/// a one-line reason otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The five constants of a cost homomorphism: literal (and the nullary
/// '@' / '#'), '?', '*', concatenation, union.
struct Costs {
  uint64_t Literal = 1, Question = 1, Star = 1, Concat = 1, Union = 1;
};

/// A parsed answer: its cost under a cost function and its ECMAScript
/// translation. Parse errors leave Ok false with Error set.
struct ParsedRegex {
  bool Ok = false;
  std::string Error;
  uint64_t Cost = 0;
  std::string Ecma;
};

/// Parses the program's printed regex syntax
///   union := concat ('+' concat)* ; concat := postfix+ ;
///   postfix := atom ('*' | '?')* ; atom := '(' union ')' | '@' | '#' | sym
/// and computes cost and ECMAScript text in the same pass.
ParsedRegex parseAnswer(const std::string &Text, const Costs &C);

/// One answer as the program reported it.
struct Answer {
  bool Found = false; ///< Status was Found.
  std::string Regex;
  uint64_t Cost = 0;
};

/// What the benchmark knows about the request the answer is for.
struct Expectation {
  std::vector<std::string> Pos, Neg;
  Costs CostFn;
  /// Reference minimal cost (0 = unknown, e.g. an edited spec).
  uint64_t MinCost = 0;
  /// Hand-written target regex, when the instance has one.
  std::string Target;
  /// A capped request (MaxCost below the minimal cost): must not
  /// return Found. 0 = uncapped.
  uint64_t Cap = 0;
};

/// Checks one answer: status, language (every positive accepted, every
/// negative rejected, via std::regex), recomputed cost equal to the
/// reported cost, cost equal to the reference minimum and at most the
/// target's cost. A capped request must answer NotFound.
std::string checkAnswer(const Answer &A, const Expectation &E);

/// Refinement-stream properties. A repeat (or a permutation) must
/// return the same regex and cost as \p First.
std::string checkRepeat(const Answer &First, const Answer &Repeat);
/// An edit's minimal cost is at least the cost of the spec it extends.
std::string checkEdit(const Answer &Base, const Answer &Edited);
/// A widened resubmit after a NotFound capped at \p Cap answers with a
/// cost above the cap.
std::string checkWidened(uint64_t Cap, const Answer &Widened);

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
