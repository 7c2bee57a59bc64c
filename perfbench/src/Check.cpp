//===- perfbench/src/Check.cpp - Independent answer checks --------------------===//
//
// Part of the Paresy reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Check.h"

#include <cctype>
#include <regex>

namespace perfbench {

namespace {

/// Recursive-descent parser over the printed syntax. Each production
/// returns its cost and ECMAScript text; a failure sets Error.
class Parser {
public:
  Parser(const std::string &Text, const Costs &C) : Text(Text), C(C) {}

  ParsedRegex run() {
    ParsedRegex Out;
    Node N = parseUnion();
    if (Error.empty() && Pos != Text.size())
      Error = "trailing input at offset " + std::to_string(Pos);
    if (!Error.empty()) {
      Out.Error = Error;
      return Out;
    }
    Out.Ok = true;
    Out.Cost = N.Cost;
    Out.Ecma = N.Ecma;
    return Out;
  }

private:
  struct Node {
    uint64_t Cost = 0;
    std::string Ecma;
  };

  static bool isMeta(char Ch) {
    return Ch == '(' || Ch == ')' || Ch == '+' || Ch == '*' || Ch == '?' ||
           Ch == '@' || Ch == '#';
  }
  bool atEnd() const { return Pos >= Text.size(); }
  bool startsAtom() const {
    return !atEnd() && Text[Pos] != ')' && Text[Pos] != '+' &&
           Text[Pos] != '*' && Text[Pos] != '?';
  }

  Node parseUnion() {
    Node N = parseConcat();
    while (Error.empty() && !atEnd() && Text[Pos] == '+') {
      ++Pos;
      Node R = parseConcat();
      N.Cost += R.Cost + C.Union;
      N.Ecma = "(?:" + N.Ecma + "|" + R.Ecma + ")";
    }
    return N;
  }

  Node parseConcat() {
    if (!startsAtom()) {
      fail("expected an expression");
      return {};
    }
    Node N = parsePostfix();
    while (Error.empty() && startsAtom()) {
      Node R = parsePostfix();
      N.Cost += R.Cost + C.Concat;
      N.Ecma += R.Ecma;
    }
    return N;
  }

  Node parsePostfix() {
    Node N = parseAtom();
    while (Error.empty() && !atEnd() &&
           (Text[Pos] == '*' || Text[Pos] == '?')) {
      bool Star = Text[Pos++] == '*';
      N.Cost += Star ? C.Star : C.Question;
      N.Ecma = "(?:" + N.Ecma + (Star ? ")*" : ")?");
    }
    return N;
  }

  Node parseAtom() {
    if (atEnd()) {
      fail("unexpected end of input");
      return {};
    }
    char Ch = Text[Pos++];
    if (Ch == '(') {
      Node N = parseUnion();
      if (Error.empty() && (atEnd() || Text[Pos] != ')'))
        fail("missing ')'");
      ++Pos;
      return N;
    }
    if (Ch == '@') // The empty language: a lookahead that never holds.
      return {C.Literal, "(?!)"};
    if (Ch == '#')
      return {C.Literal, "(?:)"};
    if (isMeta(Ch)) {
      --Pos;
      fail(std::string("unexpected '") + Ch + "'");
      return {};
    }
    std::string Lit = std::isalnum(static_cast<unsigned char>(Ch))
                          ? std::string(1, Ch)
                          : std::string("\\") + Ch;
    return {C.Literal, Lit};
  }

  void fail(std::string Why) {
    if (Error.empty())
      Error = Why + " at offset " + std::to_string(Pos);
  }

  const std::string &Text;
  const Costs &C;
  size_t Pos = 0;
  std::string Error;
};

std::string quote(const std::string &S) { return "'" + S + "'"; }

} // namespace

ParsedRegex parseAnswer(const std::string &Text, const Costs &C) {
  return Parser(Text, C).run();
}

std::string checkAnswer(const Answer &A, const Expectation &E) {
  if (E.Cap != 0) {
    if (A.Found)
      return "capped at " + std::to_string(E.Cap) + " but reported Found " +
             quote(A.Regex) + " at cost " + std::to_string(A.Cost);
    return {};
  }
  if (!A.Found)
    return "expected Found";
  ParsedRegex P = parseAnswer(A.Regex, E.CostFn);
  if (!P.Ok)
    return "unparsable answer " + quote(A.Regex) + ": " + P.Error;
  std::regex Re;
  try {
    Re = std::regex(P.Ecma, std::regex::ECMAScript);
  } catch (const std::regex_error &Err) {
    return "std::regex rejected the translation of " + quote(A.Regex);
  }
  for (const std::string &W : E.Pos)
    if (!std::regex_match(W, Re))
      return quote(A.Regex) + " rejects positive " + quote(W);
  for (const std::string &W : E.Neg)
    if (std::regex_match(W, Re))
      return quote(A.Regex) + " accepts negative " + quote(W);
  if (P.Cost != A.Cost)
    return "reported cost " + std::to_string(A.Cost) + " but " +
           quote(A.Regex) + " costs " + std::to_string(P.Cost);
  if (E.MinCost != 0 && P.Cost != E.MinCost)
    return "cost " + std::to_string(P.Cost) + " is not the reference minimum " +
           std::to_string(E.MinCost);
  if (!E.Target.empty()) {
    ParsedRegex T = parseAnswer(E.Target, E.CostFn);
    if (!T.Ok)
      return "unparsable target " + quote(E.Target);
    if (P.Cost > T.Cost)
      return "cost " + std::to_string(P.Cost) + " exceeds the target " +
             quote(E.Target) + " at " + std::to_string(T.Cost);
  }
  return {};
}

std::string checkRepeat(const Answer &First, const Answer &Repeat) {
  if (First.Found != Repeat.Found || First.Regex != Repeat.Regex ||
      First.Cost != Repeat.Cost)
    return "repeat answered " + quote(Repeat.Regex) + " at " +
           std::to_string(Repeat.Cost) + ", first answer was " +
           quote(First.Regex) + " at " + std::to_string(First.Cost);
  return {};
}

std::string checkEdit(const Answer &Base, const Answer &Edited) {
  if (!Base.Found || !Edited.Found)
    return "edit or its base not Found";
  if (Edited.Cost < Base.Cost)
    return "edited spec costs " + std::to_string(Edited.Cost) +
           ", below its base at " + std::to_string(Base.Cost);
  return {};
}

std::string checkWidened(uint64_t Cap, const Answer &Widened) {
  if (!Widened.Found)
    return "widened resubmit not Found";
  if (Widened.Cost <= Cap)
    return "widened answer costs " + std::to_string(Widened.Cost) +
           ", within the earlier NotFound cap " + std::to_string(Cap);
  return {};
}

} // namespace perfbench
