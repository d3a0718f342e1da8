#include "fmt/parser.hpp"

#include <cctype>
#include <cmath>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "ft/lexer.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace fmtree::fmt {

namespace {

using ft::Token;
using ft::TokenCursor;
using ft::TokenType;

/// Parses one distribution expression, e.g. "erlang(3, 0.5)".
Distribution parse_distribution(TokenCursor& cur) {
  const std::size_t line = cur.line();
  const std::string kind = cur.expect_identifier("distribution name").text;
  if (kind == "never") return Distribution::never();

  cur.expect(TokenType::LParen, "'(' after distribution name");
  std::vector<double> args;
  if (cur.peek().type != TokenType::RParen) {
    args.push_back(cur.expect_number("distribution parameter"));
    while (cur.accept(TokenType::Comma))
      args.push_back(cur.expect_number("distribution parameter"));
  }
  cur.expect(TokenType::RParen, "')' after distribution parameters");

  auto arity = [&](std::size_t n) {
    if (args.size() != n)
      throw ParseError(line, "distribution '" + kind + "' takes " + std::to_string(n) +
                                 " parameter(s), got " + std::to_string(args.size()));
  };
  // Shape parameters are cast to int; reject anything the cast cannot
  // represent (casting a non-finite or out-of-range double is UB).
  auto int_shape = [&](double k, const char* which) {
    if (!std::isfinite(k) || k != std::floor(k) || k < 1 || k > 1e9)
      throw ParseError(line,
                       std::string(which) + " shape must be an integer in [1, 1e9]");
    return static_cast<int>(k);
  };
  try {
    if (kind == "exp") {
      arity(1);
      return Distribution::exponential(args[0]);
    }
    if (kind == "erlang") {
      arity(2);
      return Distribution::erlang(int_shape(args[0], "erlang"), args[1]);
    }
    if (kind == "erlang_mean") {
      arity(2);
      return Distribution::erlang_mean(int_shape(args[0], "erlang_mean"), args[1]);
    }
    if (kind == "weibull") {
      arity(2);
      return Distribution::weibull(args[0], args[1]);
    }
    if (kind == "lognormal") {
      arity(2);
      return Distribution::lognormal(args[0], args[1]);
    }
    if (kind == "uniform") {
      arity(2);
      return Distribution::uniform(args[0], args[1]);
    }
    if (kind == "det") {
      arity(1);
      return Distribution::deterministic(args[0]);
    }
  } catch (const DomainError& e) {
    throw ParseError(line, e.what());
  }
  throw ParseError(line, "unknown distribution '" + kind + "'");
}

struct GateDecl {
  GateType type;
  int k = 0;
  bool is_spare = false;
  double dormancy = 0.0;
  std::vector<std::string> children;
  std::size_t line = 0;
  std::size_t column = 0;
};

struct LeafDecl {
  DegradationModel degradation = DegradationModel::basic(Distribution::exponential(1));
  RepairSpec repair;
  std::size_t line = 0;
};

struct ModuleDecl {
  bool is_inspection = false;
  std::string name;
  double period = -1;
  double offset = -1;
  double cost = 0;
  double detect = 1.0;
  bool targets_all = false;
  std::vector<std::string> targets;
  std::size_t line = 0;
};

struct FdepDecl {
  std::string name;
  std::string trigger;
  std::vector<std::string> targets;
  std::size_t line = 0;
};

struct RdepDecl {
  std::string name;
  double factor = -1;
  std::string trigger;
  int trigger_phase = 0;
  std::vector<std::string> targets;
  std::size_t line = 0;
};

struct Declarations {
  std::unordered_map<std::string, GateDecl> gates;
  std::unordered_map<std::string, LeafDecl> leaves;
  std::vector<ModuleDecl> modules;
  std::vector<RdepDecl> rdeps;
  std::vector<FdepDecl> fdeps;
  CorrectivePolicy corrective{.enabled = false};
  bool corrective_seen = false;
  std::string top;
  SourceLocation top_loc;  // of the 'toplevel' statement
};

LeafDecl parse_ebe_body(TokenCursor& cur, std::size_t line) {
  double phases = -1, mean = -1, rate = -1, threshold = -1;
  double repair_cost = 0, repair_time = 0;
  std::string repair_action = "repair";
  while (cur.peek().type == TokenType::Identifier) {
    const std::string key = cur.next().text;
    cur.expect(TokenType::Equals, "'=' after '" + key + "'");
    if (key == "repair") {
      repair_action = cur.expect_identifier("repair action name").text;
      continue;
    }
    const double value = cur.expect_number("value for '" + key + "'");
    if (key == "phases") phases = value;
    else if (key == "mean") mean = value;
    else if (key == "rate") rate = value;
    else if (key == "threshold") threshold = value;
    else if (key == "repair_cost") repair_cost = value;
    else if (key == "repair_time") repair_time = value;
    else throw ParseError(line, "unknown ebe attribute '" + key + "'");
  }
  // isfinite before the casts below: casting inf/NaN (or values beyond int
  // range) to int is undefined behaviour.
  if (!std::isfinite(phases) || phases < 1 || phases != std::floor(phases) ||
      phases > 1e9)
    throw ParseError(line, "ebe needs integer phases >= 1");
  if (rate < 0 && (!(mean > 0) || !std::isfinite(mean)))
    throw ParseError(line, "ebe needs mean > 0 or rate > 0");
  if (rate >= 0 && (!(rate > 0) || !std::isfinite(rate)))
    throw ParseError(line, "ebe needs rate > 0");
  if (threshold < 0) threshold = phases + 1;  // default: undetectable
  if (!std::isfinite(threshold) || threshold != std::floor(threshold) ||
      threshold > 2e9)
    throw ParseError(line, "ebe threshold must be an integer");
  if (repair_time < 0) throw ParseError(line, "repair_time must be >= 0");
  // rate wins over mean (see parser.hpp): the per-phase rate is the stored
  // quantity, so taking it verbatim keeps reparsing exact.
  DegradationModel degradation =
      rate > 0 ? DegradationModel(std::vector<Distribution>(
                                      static_cast<std::size_t>(phases),
                                      Distribution::exponential(rate)),
                                  static_cast<int>(threshold))
               : DegradationModel::erlang(static_cast<int>(phases), mean,
                                          static_cast<int>(threshold));
  LeafDecl leaf{std::move(degradation),
                RepairSpec{repair_action, repair_cost, repair_time}, line};
  return leaf;
}

ModuleDecl parse_module_body(TokenCursor& cur, bool is_inspection, std::size_t line) {
  ModuleDecl m;
  m.is_inspection = is_inspection;
  m.line = line;
  m.name = cur.expect_identifier("module name").text;
  while (cur.peek().type == TokenType::Identifier) {
    const std::string key = cur.next().text;
    if (key == "targets") {
      if (cur.accept_word("all")) {
        m.targets_all = true;
      } else {
        while (cur.peek().type == TokenType::Identifier)
          m.targets.push_back(cur.next().text);
        if (m.targets.empty()) throw ParseError(line, "empty target list");
      }
      break;  // targets terminate the statement body
    }
    cur.expect(TokenType::Equals, "'=' after '" + key + "'");
    const double value = cur.expect_number("value for '" + key + "'");
    if (key == "period") m.period = value;
    else if (key == "offset") m.offset = value;
    else if (key == "cost") m.cost = value;
    else if (key == "detect" && is_inspection) m.detect = value;
    else throw ParseError(line, "unknown module attribute '" + key + "'");
  }
  if (!(m.period > 0)) throw ParseError(line, "module needs period > 0");
  if (!m.targets_all && m.targets.empty())
    throw ParseError(line, "module needs 'targets <leaf>...' or 'targets all'");
  return m;
}

RdepDecl parse_rdep_body(TokenCursor& cur, std::size_t line) {
  RdepDecl r;
  r.line = line;
  r.name = cur.expect_identifier("rdep name").text;
  while (cur.peek().type == TokenType::Identifier) {
    const std::string key = cur.next().text;
    if (key == "targets") {
      while (cur.peek().type == TokenType::Identifier)
        r.targets.push_back(cur.next().text);
      break;
    }
    cur.expect(TokenType::Equals, "'=' after '" + key + "'");
    if (key == "factor") {
      r.factor = cur.expect_number("rdep factor");
    } else if (key == "trigger") {
      r.trigger = cur.expect_identifier("trigger node").text;
    } else if (key == "trigger_phase") {
      const double tp = cur.expect_number("trigger phase");
      if (!std::isfinite(tp) || tp < 1 || tp != std::floor(tp) || tp > 1e9)
        throw ParseError(line, "trigger_phase must be a positive integer");
      r.trigger_phase = static_cast<int>(tp);
    } else {
      throw ParseError(line, "unknown rdep attribute '" + key + "'");
    }
  }
  if (!(r.factor >= 1)) throw ParseError(line, "rdep needs factor >= 1");
  if (r.trigger.empty()) throw ParseError(line, "rdep needs trigger=<node>");
  if (r.targets.empty()) throw ParseError(line, "rdep needs targets <leaf>...");
  return r;
}

FdepDecl parse_fdep_body(TokenCursor& cur, std::size_t line) {
  FdepDecl f;
  f.line = line;
  f.name = cur.expect_identifier("fdep name").text;
  while (cur.peek().type == TokenType::Identifier) {
    const std::string key = cur.next().text;
    if (key == "targets") {
      while (cur.peek().type == TokenType::Identifier)
        f.targets.push_back(cur.next().text);
      break;
    }
    cur.expect(TokenType::Equals, "'=' after '" + key + "'");
    if (key == "trigger") {
      f.trigger = cur.expect_identifier("trigger node").text;
    } else {
      throw ParseError(line, "unknown fdep attribute '" + key + "'");
    }
  }
  if (f.trigger.empty()) throw ParseError(line, "fdep needs trigger=<node>");
  if (f.targets.empty()) throw ParseError(line, "fdep needs targets <leaf>...");
  return f;
}

CorrectivePolicy parse_corrective_body(TokenCursor& cur, std::size_t line) {
  CorrectivePolicy p;
  p.enabled = true;
  while (cur.peek().type == TokenType::Identifier) {
    const std::string key = cur.next().text;
    if (key == "off") {
      p.enabled = false;
      continue;
    }
    cur.expect(TokenType::Equals, "'=' after '" + key + "'");
    const double value = cur.expect_number("value for '" + key + "'");
    if (key == "cost") p.cost = value;
    else if (key == "delay") p.delay = value;
    else if (key == "downtime_rate") p.downtime_cost_rate = value;
    else throw ParseError(line, "unknown corrective attribute '" + key + "'");
  }
  return p;
}

/// Parses one ';'-terminated statement into `decls`. Throws ParseError on
/// any syntax problem; the caller decides whether to abort or synchronize.
void parse_statement(TokenCursor& cur, Declarations& decls) {
  const std::size_t line = cur.line();
  const std::size_t column = cur.column();
  const Token head = cur.expect_identifier("statement");
  // A statement keyword matches only as a bare word: a quoted head is a name.
  const std::string keyword = head.quoted ? std::string() : head.text;
  if (keyword == "toplevel") {
    if (!decls.top.empty())
      throw ParseError(line, column, keyword, "duplicate toplevel declaration", "P102",
                       "a model has exactly one 'toplevel <name>;' statement");
    decls.top = cur.expect_identifier("top event name").text;
    decls.top_loc = {line, column};
  } else if (keyword == "inspection" || keyword == "replacement") {
    decls.modules.push_back(parse_module_body(cur, keyword == "inspection", line));
  } else if (keyword == "rdep") {
    decls.rdeps.push_back(parse_rdep_body(cur, line));
  } else if (keyword == "fdep") {
    decls.fdeps.push_back(parse_fdep_body(cur, line));
  } else if (keyword == "corrective") {
    if (decls.corrective_seen)
      throw ParseError(line, column, keyword, "duplicate corrective declaration", "P102");
    decls.corrective = parse_corrective_body(cur, line);
    decls.corrective_seen = true;
  } else {
    const std::string& name = head.text;
    if (decls.gates.contains(name) || decls.leaves.contains(name))
      throw ParseError(line, column, name, "duplicate definition of '" + name + "'",
                       "P102", "every node is declared exactly once");
    const std::string op = cur.expect_identifier("gate type, 'be' or 'ebe'").text;
    if (op == "be") {
      Distribution d = parse_distribution(cur);
      decls.leaves.emplace(
          name, LeafDecl{DegradationModel::basic(std::move(d)), RepairSpec{}, line});
    } else if (op == "ebe") {
      decls.leaves.emplace(name, parse_ebe_body(cur, line));
    } else if (op == "and" || op == "or" || op == "vot" || op == "spare") {
      GateDecl g;
      g.line = line;
      g.column = column;
      if (op == "and") g.type = GateType::And;
      else if (op == "or") g.type = GateType::Or;
      else if (op == "spare") {
        g.type = GateType::And;  // boolean view of a spare pool
        g.is_spare = true;
        if (cur.accept_word("dormancy")) {
          cur.expect(TokenType::Equals, "'=' after 'dormancy'");
          g.dormancy = cur.expect_number("dormancy factor");
          if (!(g.dormancy >= 0 && g.dormancy <= 1))
            throw ParseError(line, "dormancy must lie in [0, 1]");
        }
      } else {
        g.type = GateType::Voting;
        const double k = cur.expect_number("voting threshold k");
        if (!std::isfinite(k) || k != std::floor(k) || k < 1 || k > 1e9)
          throw ParseError(line, column, name,
                           "voting threshold must be a positive integer", "P201");
        g.k = static_cast<int>(k);
      }
      while (cur.peek().type == TokenType::Identifier)
        g.children.push_back(cur.next().text);
      if (g.children.empty())
        throw ParseError(line, column, name, "gate '" + name + "' has no children",
                         "P201", "list at least one child after the gate type");
      decls.gates.emplace(name, std::move(g));
    } else {
      throw ParseError(line, column, op, "unknown statement '" + op + "'", "P104");
    }
  }
  cur.expect(TokenType::Semicolon, "';'");
}

Declarations collect(TokenCursor& cur, Diagnostics& diags) {
  Declarations decls;
  while (!cur.at_end()) {
    const SourceLocation statement{cur.line(), cur.column()};
    try {
      parse_statement(cur, decls);
      continue;
    } catch (const ParseError& e) {
      diags.add(diagnostic_from(e));
    } catch (const Error& e) {
      // Statement helpers may surface domain errors from model construction;
      // keep the collect contract (diagnostics, never exceptions), located at
      // the statement that raised them.
      Diagnostic d = diagnostic_from(e, "P199");
      d.loc = statement;
      diags.add(std::move(d));
    }
    // Resume after the next ';'. synchronize() stops before a '}', which
    // closes a policy rule block; a model has no blocks, so skip it.
    cur.synchronize();
    while (cur.accept(TokenType::RBrace)) cur.synchronize();
  }
  if (decls.top.empty())
    diags.error("P103", {cur.line(), cur.column()}, "missing 'toplevel' declaration",
                "declare the top event with 'toplevel <name>;'");
  return decls;
}

/// Reference / cycle / usage validation over the declaration graph,
/// reporting every problem instead of the first. Runs only on syntactically
/// clean inputs, so the declaration set is trustworthy.
void validate_declarations(const Declarations& decls, Diagnostics& diags) {
  const auto declared = [&](const std::string& name) {
    return decls.gates.contains(name) || decls.leaves.contains(name);
  };
  std::unordered_set<std::string> reported;
  const auto report_undefined = [&](const std::string& name, SourceLocation at) {
    if (!reported.insert(name).second) return;
    diags.error("M101", at, "node '" + name + "' referenced but never defined",
                "declare it as a gate, 'be' or 'ebe' leaf", name);
  };
  if (!decls.top.empty() && !declared(decls.top))
    report_undefined(decls.top, decls.top_loc);
  for (const auto& [name, g] : decls.gates)
    for (const std::string& child : g.children)
      if (!declared(child)) report_undefined(child, {g.line, g.column});

  // Dependency / module statements resolve names too; historically these
  // fail as parse errors ("unknown node"), so they get a P-range code.
  const auto check_ref = [&](const std::string& name, std::size_t line) {
    if (declared(name) || !reported.insert(name).second) return;
    diags.error("P301", {line, 0}, "unknown node '" + name + "'",
                "dependency and module statements may only reference declared nodes",
                name);
  };
  for (const RdepDecl& r : decls.rdeps) {
    check_ref(r.trigger, r.line);
    for (const std::string& t : r.targets) check_ref(t, r.line);
  }
  for (const FdepDecl& f : decls.fdeps) {
    check_ref(f.trigger, f.line);
    for (const std::string& t : f.targets) check_ref(t, f.line);
  }
  for (const ModuleDecl& m : decls.modules)
    for (const std::string& t : m.targets) check_ref(t, m.line);

  // Cycle detection: iterative colored DFS over the gate graph.
  enum class Color { White, Grey, Black };
  std::unordered_map<std::string, Color> color;
  for (const auto& [name, g] : decls.gates) color.emplace(name, Color::White);
  for (const auto& [start, g0] : decls.gates) {
    if (color[start] != Color::White) continue;
    std::vector<std::pair<const std::string*, std::size_t>> stack;
    stack.emplace_back(&start, 0);
    color[start] = Color::Grey;
    while (!stack.empty()) {
      auto& [name, next_child] = stack.back();
      const GateDecl& g = decls.gates.at(*name);
      if (next_child >= g.children.size()) {
        color[*name] = Color::Black;
        stack.pop_back();
        continue;
      }
      const std::string& child = g.children[next_child++];
      const auto it = decls.gates.find(child);
      if (it == decls.gates.end()) continue;  // leaf or undefined
      Color& c = color[child];
      if (c == Color::Grey) {
        diags.error("M102", {it->second.line, it->second.column},
                    "cycle involving node '" + child + "'",
                    "fault trees are acyclic; remove the back reference", child);
        continue;
      }
      if (c == Color::White) {
        c = Color::Grey;
        stack.emplace_back(&it->first, 0);
      }
    }
  }
  if (diags.has_errors()) return;  // usage analysis would only cascade

  // Usage mirrors FaultMaintenanceTree::validate: a node must be reachable
  // from the top event or a dependency *trigger* (a condition may accelerate
  // other modes without feeding the structure function). Targets are not
  // usage roots — they must sit in the tree themselves.
  std::unordered_set<std::string> used;
  std::vector<const std::string*> stack{&decls.top};
  for (const RdepDecl& r : decls.rdeps) stack.push_back(&r.trigger);
  for (const FdepDecl& f : decls.fdeps) stack.push_back(&f.trigger);
  while (!stack.empty()) {
    const std::string& name = *stack.back();
    stack.pop_back();
    if (!used.insert(name).second) continue;
    if (const auto it = decls.gates.find(name); it != decls.gates.end())
      for (const std::string& child : it->second.children) stack.push_back(&child);
  }
  for (const auto& [name, g] : decls.gates)
    if (!used.contains(name))
      diags.error("M103", {g.line, g.column}, "gate '" + name + "' is used by nothing",
                  "wire it into the tree or delete it", name);
  for (const auto& [name, l] : decls.leaves)
    if (!used.contains(name))
      diags.error("M103", {l.line, 0}, "leaf '" + name + "' is used by nothing",
                  "wire it into the tree or delete it", name);
}

FaultMaintenanceTree build_model(const Declarations& decls) {
  FaultMaintenanceTree model;
  std::unordered_map<std::string, NodeId> built;
  std::unordered_set<std::string> building;

  std::function<NodeId(const std::string&)> build = [&](const std::string& name) {
    if (auto it = built.find(name); it != built.end()) return it->second;
    if (building.contains(name)) throw ModelError("cycle involving node '" + name + "'");
    if (auto leaf = decls.leaves.find(name); leaf != decls.leaves.end()) {
      const NodeId id =
          model.add_ebe(name, leaf->second.degradation, leaf->second.repair);
      built.emplace(name, id);
      return id;
    }
    auto gi = decls.gates.find(name);
    if (gi == decls.gates.end())
      throw ModelError("node '" + name + "' referenced but never defined");
    building.insert(name);
    std::vector<NodeId> children;
    children.reserve(gi->second.children.size());
    for (const std::string& child : gi->second.children) children.push_back(build(child));
    building.erase(name);
    const NodeId id =
        gi->second.is_spare
            ? model.add_spare(name, std::move(children), gi->second.dormancy)
            : model.add_gate(name, gi->second.type, std::move(children), gi->second.k);
    built.emplace(name, id);
    return id;
  };
  model.set_top(build(decls.top));

  // Dependency and module statements may reference nodes that do not feed
  // the top event (e.g. a standalone condition that only triggers an RDEP),
  // so resolution builds on demand.
  auto resolve = [&](const std::string& name, std::size_t line) {
    if (!built.contains(name) && !decls.leaves.contains(name) &&
        !decls.gates.contains(name))
      throw ParseError(line, "unknown node '" + name + "'");
    return build(name);
  };

  for (const RdepDecl& r : decls.rdeps) {
    std::vector<NodeId> deps;
    deps.reserve(r.targets.size());
    for (const std::string& t : r.targets) deps.push_back(resolve(t, r.line));
    model.add_rdep(r.name, resolve(r.trigger, r.line), std::move(deps), r.factor,
                   r.trigger_phase);
  }

  for (const FdepDecl& f : decls.fdeps) {
    std::vector<NodeId> deps;
    deps.reserve(f.targets.size());
    for (const std::string& t : f.targets) deps.push_back(resolve(t, f.line));
    model.add_fdep(f.name, resolve(f.trigger, f.line), std::move(deps));
  }

  for (const ModuleDecl& m : decls.modules) {
    std::vector<NodeId> targets;
    if (m.targets_all) {
      for (NodeId leaf : model.leaves()) {
        if (!m.is_inspection || model.ebe(leaf).degradation.inspectable())
          targets.push_back(leaf);
      }
      if (targets.empty())
        throw ParseError(m.line, "module '" + m.name + "': 'all' matches no leaves");
    } else {
      targets.reserve(m.targets.size());
      for (const std::string& t : m.targets) targets.push_back(resolve(t, m.line));
    }
    if (m.is_inspection) {
      if (!(m.detect > 0 && m.detect <= 1))
        throw ParseError(m.line, "inspection detect must lie in (0, 1]");
      model.add_inspection(InspectionModule{m.name, m.period, m.offset, m.cost,
                                            std::move(targets), m.detect});
    } else {
      model.add_replacement(
          ReplacementModule{m.name, m.period, m.offset, m.cost, std::move(targets)});
    }
  }

  if (decls.corrective_seen) model.set_corrective(decls.corrective);

  // Everything declared must be used somewhere: under the top event or by a
  // dependency/module statement (which built it on demand above).
  for (const auto& [name, decl] : decls.gates)
    if (!built.contains(name))
      throw ModelError("gate '" + name + "' is used by nothing");
  for (const auto& [name, decl] : decls.leaves)
    if (!built.contains(name))
      throw ModelError("leaf '" + name + "' is used by nothing");

  model.validate();
  return model;
}

}  // namespace

FmtParseResult parse_fmt_collect(const std::string& text) {
  FmtParseResult result;
  TokenCursor cur(ft::tokenize(text, result.diagnostics, ft::kModelText), ft::kModelText);
  const Declarations decls = collect(cur, result.diagnostics);
  if (result.diagnostics.has_errors()) return result;
  validate_declarations(decls, result.diagnostics);
  if (result.diagnostics.has_errors()) return result;
  try {
    result.model = build_model(decls);
  } catch (const ParseError& e) {
    // Build-time checks not covered by validate_declarations (detection
    // probability range, 'targets all' matching nothing, ...).
    result.diagnostics.add(diagnostic_from(e));
  } catch (const Error& e) {
    result.diagnostics.add(diagnostic_from(e, "M104"));
  }
  return result;
}

FaultMaintenanceTree parse_fmt(const std::string& text) {
  FmtParseResult result = parse_fmt_collect(text);
  result.diagnostics.throw_if_errors();
  return std::move(*result.model);
}

namespace {

/// A name as parse_fmt reads it back: bare if it lexes as one bare word
/// that no statement keyword (nor `targets all`) would match, else quoted.
std::string quoted(const std::string& name) {
  static const std::unordered_set<std::string> keywords{
      "toplevel", "inspection", "replacement", "rdep", "fdep", "corrective", "all"};
  bool bare = !name.empty() && !keywords.contains(name) &&
              (std::isalpha(static_cast<unsigned char>(name[0])) != 0 || name[0] == '_');
  for (char c : name)
    bare = bare && (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
                    c == '.' || c == '-');
  return bare ? name : '"' + name + '"';
}

/// Shortest exact decimal form (see util/format.hpp); the emitter prints
/// every double through this so reparsing reproduces the same bits.
std::string num(double v) { return format_double(v); }

std::string dist_to_text(const Distribution& d) {
  std::ostringstream os;
  std::visit(
      [&os](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          os << "exp(" << num(x.rate) << ")";
        } else if constexpr (std::is_same_v<T, Erlang>) {
          os << "erlang(" << x.shape << ", " << num(x.rate) << ")";
        } else if constexpr (std::is_same_v<T, Weibull>) {
          os << "weibull(" << num(x.shape) << ", " << num(x.scale) << ")";
        } else if constexpr (std::is_same_v<T, Lognormal>) {
          os << "lognormal(" << num(x.mu) << ", " << num(x.sigma) << ")";
        } else if constexpr (std::is_same_v<T, UniformDist>) {
          os << "uniform(" << num(x.lo) << ", " << num(x.hi) << ")";
        } else {
          static_assert(std::is_same_v<T, Deterministic>);
          os << "det(" << num(x.value) << ")";  // leaf lifetimes are finite
        }
      },
      d.as_variant());
  return os.str();
}

/// The per-phase rate when all phases are Exponential with one common rate
/// (the `ebe rate=` form); unset otherwise.
std::optional<double> common_phase_rate(const DegradationModel& deg) {
  std::optional<double> rate;
  for (const Distribution& d : deg.sojourns()) {
    const auto* e = std::get_if<Exponential>(&d.as_variant());
    if (e == nullptr) return std::nullopt;
    if (rate && *rate != e->rate) return std::nullopt;
    rate = e->rate;
  }
  return rate;
}

}  // namespace

std::string to_text(const FaultMaintenanceTree& model) {
  model.validate();
  const ft::FaultTree& structure = model.structure();
  std::ostringstream os;
  os << "toplevel " << quoted(structure.name(structure.top())) << ";\n";
  std::unordered_map<std::uint32_t, const SpareSpec*> spare_gates;
  for (const SpareSpec& spec : model.spares())
    spare_gates.emplace(spec.gate.value, &spec);
  for (NodeId id : structure.gates()) {
    const ft::Gate& g = structure.gate(id);
    os << quoted(g.name) << ' ';
    if (const auto it = spare_gates.find(id.value); it != spare_gates.end()) {
      os << "spare dormancy=" << num(it->second->dormancy);
    } else {
      switch (g.type) {
        case GateType::And: os << "and"; break;
        case GateType::Or: os << "or"; break;
        case GateType::Voting: os << "vot " << g.k; break;
      }
    }
    for (NodeId c : g.children) os << ' ' << quoted(structure.name(c));
    os << ";\n";
  }
  for (NodeId id : model.leaves()) {
    const ExtendedBasicEvent& e = model.ebe(id);
    const DegradationModel& deg = e.degradation;
    const bool default_repair =
        e.repair.action == "repair" && e.repair.cost == 0 && e.repair.duration == 0;
    // A plain basic event round-trips as `be <dist>`, keeping its lifetime
    // distribution exact (the ebe form could only approximate e.g. a
    // Weibull by an exponential with the same mean).
    if (deg.phases() == 1 && !deg.inspectable() && default_repair) {
      os << quoted(e.name) << " be " << dist_to_text(deg.sojourn(1)) << ";\n";
      continue;
    }
    os << quoted(e.name) << " ebe phases=" << deg.phases();
    if (const std::optional<double> rate = common_phase_rate(deg))
      os << " rate=" << num(*rate);
    else
      os << " mean=" << num(deg.mean_time_to_failure());
    os << " threshold=" << deg.threshold_phase();
    if (e.repair.cost != 0) os << " repair_cost=" << num(e.repair.cost);
    if (e.repair.duration != 0) os << " repair_time=" << num(e.repair.duration);
    if (e.repair.action != "repair") os << " repair=" << quoted(e.repair.action);
    os << ";\n";
  }
  for (const RateDependency& r : model.rdeps()) {
    os << "rdep " << quoted(r.name) << " factor=" << num(r.factor) << " trigger="
       << quoted(structure.name(r.trigger));
    if (r.trigger_phase != 0) os << " trigger_phase=" << r.trigger_phase;
    os << " targets";
    for (NodeId t : r.dependents) os << ' ' << quoted(structure.name(t));
    os << ";\n";
  }
  for (const FunctionalDependency& f : model.fdeps()) {
    os << "fdep " << quoted(f.name) << " trigger=" << quoted(structure.name(f.trigger))
       << " targets";
    for (NodeId t : f.dependents) os << ' ' << quoted(structure.name(t));
    os << ";\n";
  }
  for (const InspectionModule& m : model.inspections()) {
    os << "inspection " << quoted(m.name) << " period=" << num(m.period)
       << " offset=" << num(m.first_at) << " cost=" << num(m.cost);
    if (m.detection_probability < 1.0)
      os << " detect=" << num(m.detection_probability);
    os << " targets";
    for (NodeId t : m.targets) os << ' ' << quoted(structure.name(t));
    os << ";\n";
  }
  for (const ReplacementModule& m : model.replacements()) {
    os << "replacement " << quoted(m.name) << " period=" << num(m.period)
       << " offset=" << num(m.first_at) << " cost=" << num(m.cost) << " targets";
    for (NodeId t : m.targets) os << ' ' << quoted(structure.name(t));
    os << ";\n";
  }
  const CorrectivePolicy& c = model.corrective();
  if (c.enabled) {
    os << "corrective cost=" << num(c.cost) << " delay=" << num(c.delay)
       << " downtime_rate=" << num(c.downtime_cost_rate) << ";\n";
  }
  return os.str();
}

}  // namespace fmtree::fmt
