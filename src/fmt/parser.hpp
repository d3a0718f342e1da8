// Text format for fault maintenance trees: a static fault tree (toplevel,
// gates and `be` leaves) plus degradation and maintenance statements.
// Statements come in any order, each ends with ';', and '#' comments run to
// the end of the line:
//
//   toplevel <name>;
//   <name> and|or <child>...;
//   <name> vot <k> <child>...;
//   <name> spare [dormancy=<d>] <primary> <spare>...;
//   <name> be <dist>;                    # classic leaf (1 phase, undetectable)
//   <name> ebe phases=<N> mean=<M>|rate=<r> threshold=<K>
//          [repair_cost=<c>] [repair_time=<t>] [repair=<action-name>];
//   rdep <name> factor=<g> trigger=<node> [trigger_phase=<j>] targets <leaf>...;
//   fdep <name> trigger=<node> targets <leaf>...;
//   inspection <name> period=<p> [offset=<o>] [cost=<c>] [detect=<q>]
//          targets <leaf>...|all;
//   replacement <name> period=<p> [offset=<o>] [cost=<c>] targets <leaf>...|all;
//   corrective [cost=<c>] [delay=<d>] [downtime_rate=<r>] [off];
//
// where <dist> is one of
//   exp(rate) | erlang(k, rate) | erlang_mean(k, mean) | weibull(shape, scale)
//   | lognormal(mu, sigma) | uniform(lo, hi) | det(value)
// A leaf's lifetime must be finite: `never` and `det(inf)` are rejected.
//
// Names may be bare identifiers or double-quoted strings. A quoted string is
// a name, never a keyword: `"inspection" ebe ...;` declares a leaf, and
// `targets "all"` names the leaf `all`. to_text() quotes a name that spells a
// statement keyword or `all`. Every node is declared exactly once; forward
// references are allowed; cycles are rejected.
//
// For `inspection ... targets all`, "all" expands to every inspectable leaf;
// for `replacement ... targets all`, to every leaf.
//
// The text is lexed by ft/lexer.hpp, which also lexes policy scripts: the
// policy punctuation `{ } + - * / < <= > >= == != ..` lexes, and the parser
// reports it as a located P101. Recovery resumes after the next ';'.
//
// An ebe takes its per-phase rate either as `rate=<r>` (used directly) or as
// `mean=<M>` (the Erlang mean time to failure; rate = phases/mean). When
// both are present, `rate` wins: it is what to_text() emits, because the
// rate is the stored quantity and printing it verbatim makes
// parse→print→reparse an exact fixpoint (canonical_hash()-stable), which
// the mean→rate division is not.
#pragma once

#include <optional>
#include <string>

#include "fmt/fmtree.hpp"
#include "util/diagnostics.hpp"

namespace fmtree::fmt {

/// Parses a complete FMT. Throws ParseError / ModelError; when the input has
/// several problems the exception is a ParseErrors / ModelErrors aggregate
/// carrying one Diagnostic per problem.
FaultMaintenanceTree parse_fmt(const std::string& text);

/// Outcome of an error-recovery parse: `model` is engaged iff no
/// error-severity diagnostic was recorded.
struct FmtParseResult {
  std::optional<FaultMaintenanceTree> model;
  Diagnostics diagnostics;
};

/// Error-recovery parse: never throws on malformed input. Statements
/// synchronize at ';' boundaries and reference/cycle/usage validation runs
/// over the whole declaration set, so one pass reports every problem.
FmtParseResult parse_fmt_collect(const std::string& text);

/// Serializes back to the text format. Numbers are printed in shortest
/// exact form and iid-exponential phase models as `rate=`, so for models
/// expressible in the grammar (iid-exponential EBEs and `be` leaves)
/// parse(to_text(m)) reproduces `m` bit-for-bit — the result-cache keying
/// tests rely on this fixpoint.
std::string to_text(const FaultMaintenanceTree& model);

}  // namespace fmtree::fmt
