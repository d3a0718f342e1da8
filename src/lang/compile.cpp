#include <cmath>
#include <utility>

#include "ft/lexer.hpp"
#include "lang/policy.hpp"
#include "util/error.hpp"

namespace fmtree::lang {

namespace {

using ft::Token;
using ft::TokenCursor;
using ft::TokenType;

/// Recovery-style recursive-descent parser emitting straight into the flat
/// CompiledPolicy tables (postfix code, no AST). Each top-level statement
/// and each rule-body statement is parsed under its own ParseError boundary:
/// on failure one diagnostic is recorded and the cursor re-synchronizes at
/// the next ';' (or the enclosing '}'), so a single pass reports every
/// problem without cascading follow-up errors.
class Compiler {
public:
  Compiler(std::vector<Token> tokens, Diagnostics& diags)
      : cur_(std::move(tokens), ft::kPolicyText), diags_(diags) {}

  std::optional<CompiledPolicy> run() {
    while (!cur_.at_end()) {
      try {
        parse_top();
      } catch (const ParseError& e) {
        report(e);
        cur_.synchronize();
        if (cur_.peek().type == TokenType::RBrace) cur_.next();  // stray '}'
      }
    }
    for (std::size_t c = 0; c < out_.calendars.size(); ++c) {
      if (!rule_seen_[c])
        diags_.warning("L134", calendar_loc_[c],
                       "calendar '" + out_.calendars[c].name + "' has no rule",
                       "add 'rule " + out_.calendars[c].name +
                           " { if phase >= threshold then repair; }'");
    }
    if (diags_.has_errors()) return std::nullopt;
    out_.fingerprint = fingerprint(out_);
    return std::move(out_);
  }

  static Fingerprint fingerprint(const CompiledPolicy& p) {
    StreamHasher h;
    h.tag("fmtree.policy/v1");
    h.tag("crew").u32(p.crew);
    h.tag("budgets").u64(p.budgets.size());
    for (const Budget& b : p.budgets) {
      h.str(b.name).f64(b.initial).f64(b.refill_amount).f64(b.refill_period);
    }
    h.tag("consts").u64(p.consts.size());
    for (double c : p.consts) h.f64(c);
    h.tag("code").u64(p.code.size());
    for (const Instr& in : p.code)
      h.u32(static_cast<std::uint32_t>(in.op)).u32(in.arg);
    h.tag("statements").u64(p.statements.size());
    for (const Statement& s : p.statements) {
      h.u32(s.cond_begin).u32(s.cond_end);
      h.u32(s.then_begin).u32(s.then_end);
      h.u32(s.else_begin).u32(s.else_end);
    }
    h.tag("actions").u64(p.actions.size());
    for (const Action& a : p.actions) {
      h.u32(static_cast<std::uint32_t>(a.kind));
      h.u32(a.leaf_slot).u32(a.budget).u32(a.amount_begin).u32(a.amount_end);
    }
    h.tag("refs").u64(p.name_refs.size());
    for (const NameRef& r : p.name_refs) h.str(r.name);
    h.tag("calendars").u64(p.calendars.size());
    for (const Calendar& c : p.calendars) {
      h.str(c.name);
      h.f64(c.period).f64(c.first_at).f64(c.cost);
      h.f64(c.window_from).f64(c.window_to).f64(c.window_cycle);
      h.boolean(c.targets_all);
      h.u64(c.target_slots.size());
      for (std::uint32_t s : c.target_slots) h.u32(s);
      h.u32(c.stmts_begin).u32(c.stmts_end);
    }
    return h.digest();
  }

private:
  // ---- Error plumbing -------------------------------------------------------

  void report(const ParseError& e) {
    diags_.error(e.code(), {e.line(), e.column()}, e.message(), e.hint(), e.token());
  }

  [[noreturn]] void fail(const Token& at, std::string code,
                         const std::string& message, std::string hint = {}) {
    throw ParseError(at.line, at.column, token_text(at), message, std::move(code),
                     std::move(hint));
  }

  void expect_word(const std::string& word) {
    if (!cur_.accept_word(word))
      fail(cur_.peek(), "L120",
           "expected '" + word + "', found '" + token_text(cur_.peek()) + "'");
  }

  // ---- Top-level statements -------------------------------------------------

  void parse_top() {
    const Token at = cur_.peek();
    if (cur_.accept_word("policy")) {
      parse_policy_decl(at);
    } else if (cur_.accept_word("budget")) {
      parse_budget_decl();
    } else if (cur_.accept_word("crew")) {
      parse_crew_decl();
    } else if (cur_.accept_word("calendar")) {
      parse_calendar_decl();
    } else if (cur_.accept_word("rule")) {
      parse_rule_decl();
    } else if (cur_.accept(TokenType::Semicolon)) {
      // Stray ';' — harmless, skip.
    } else {
      fail(at, "L121",
           "expected a statement, found '" + token_text(at) + "'",
           "statements are 'policy', 'budget', 'crew', 'calendar' and 'rule'");
    }
  }

  void parse_policy_decl(const Token& at) {
    const Token name = cur_.expect_identifier("the policy name");
    cur_.expect(TokenType::Semicolon, "';'");
    if (policy_named_)
      fail(at, "L131", "duplicate 'policy' declaration",
           "a script names its policy at most once");
    policy_named_ = true;
    out_.name = name.text;
  }

  void parse_budget_decl() {
    const Token name = cur_.expect_identifier("the budget name");
    if (budget_index(name.text))
      fail(name, "L131", "duplicate budget '" + name.text + "'");
    cur_.expect(TokenType::Equals, "'='");
    Budget b;
    b.name = name.text;
    b.initial = cur_.expect_number("the initial amount");
    if (cur_.accept_word("refill")) {
      b.refill_amount = cur_.expect_number("the refill amount");
      expect_word("every");
      b.refill_period = cur_.expect_number("the refill period");
      if (!(b.refill_period > 0))
        fail(name, "L133", "refill period of budget '" + name.text +
                               "' must be positive");
      if (b.refill_amount < 0)
        fail(name, "L133",
             "refill amount of budget '" + name.text + "' must be >= 0");
    }
    cur_.expect(TokenType::Semicolon, "';'");
    if (b.initial < 0)
      fail(name, "L133", "initial amount of budget '" + name.text +
                             "' must be >= 0");
    out_.budgets.push_back(std::move(b));
  }

  void parse_crew_decl() {
    const Token at = cur_.peek();
    const double v = cur_.expect_number("the crew size");
    cur_.expect(TokenType::Semicolon, "';'");
    if (!(v >= 0) || v != std::floor(v) || v > 1e6)
      fail(at, "L133", "crew size must be a non-negative integer",
           "0 means unlimited repairs per visit");
    out_.crew = static_cast<std::uint32_t>(v);
  }

  void parse_calendar_decl() {
    const Token name = cur_.expect_identifier("the calendar name");
    if (calendar_index(name.text))
      fail(name, "L131", "duplicate calendar '" + name.text + "'");
    Calendar c;
    c.name = name.text;
    bool has_period = false, has_offset = false, has_cost = false;
    bool has_window = false, has_targets = false;
    const auto once = [&](bool& seen, const Token& at, const char* clause) {
      if (seen)
        fail(at, "L131", std::string("duplicate '") + clause +
                             "' clause in calendar '" + c.name + "'");
      seen = true;
    };
    while (cur_.peek().type != TokenType::Semicolon && !cur_.at_end()) {
      const Token at = cur_.peek();
      if (cur_.accept_word("every")) {
        once(has_period, at, "every");
        c.period = cur_.expect_number("the period");
      } else if (cur_.accept_word("offset")) {
        once(has_offset, at, "offset");
        c.first_at = cur_.expect_number("the first-visit offset");
      } else if (cur_.accept_word("cost")) {
        once(has_cost, at, "cost");
        c.cost = cur_.expect_number("the per-visit cost");
      } else if (cur_.accept_word("window")) {
        once(has_window, at, "window");
        c.window_from = cur_.expect_number("the window start");
        cur_.expect(TokenType::DotDot, "'..'");
        c.window_to = cur_.expect_number("the window end");
        expect_word("of");
        c.window_cycle = cur_.expect_number("the window cycle length");
      } else if (cur_.accept_word("targets")) {
        once(has_targets, at, "targets");
        if (cur_.accept_word("all")) {
          c.targets_all = true;
        } else {
          c.targets_all = false;
          c.target_slots.push_back(add_ref(cur_.expect_identifier("a component name")));
          while (cur_.accept(TokenType::Comma))
            c.target_slots.push_back(
                add_ref(cur_.expect_identifier("a component name")));
        }
      } else {
        fail(at, "L120",
             "expected a calendar clause, found '" + token_text(at) + "'",
             "clauses are 'every', 'offset', 'cost', 'window' and 'targets'");
      }
    }
    cur_.expect(TokenType::Semicolon, "';'");
    if (!has_period)
      fail(name, "L133", "calendar '" + c.name + "' needs 'every <period>'");
    if (!(c.period > 0))
      fail(name, "L133", "period of calendar '" + c.name + "' must be positive");
    if (has_offset && c.first_at < 0)
      fail(name, "L133", "offset of calendar '" + c.name + "' must be >= 0");
    if (c.cost < 0)
      fail(name, "L133", "cost of calendar '" + c.name + "' must be >= 0");
    if (has_window &&
        !(c.window_cycle > 0 && c.window_from >= 0 &&
          c.window_from < c.window_to && c.window_to <= c.window_cycle))
      fail(name, "L133",
           "window of calendar '" + c.name +
               "' needs 0 <= from < to <= cycle and a positive cycle");
    calendar_loc_.push_back({name.line, name.column});
    rule_seen_.push_back(false);
    out_.calendars.push_back(std::move(c));
  }

  void parse_rule_decl() {
    const Token name = cur_.expect_identifier("the calendar name");
    const std::optional<std::size_t> cal = calendar_index(name.text);
    if (!cal)
      report(ParseError(name.line, name.column, name.text,
                        "rule for unknown calendar '" + name.text + "'", "L130",
                        "declare the calendar before its rule"));
    else if (rule_seen_[*cal])
      report(ParseError(name.line, name.column, name.text,
                        "duplicate rule for calendar '" + name.text + "'", "L131",
                        "merge the statements into one rule block"));
    cur_.expect(TokenType::LBrace, "'{'");
    const auto begin = static_cast<std::uint32_t>(out_.statements.size());
    while (!cur_.accept(TokenType::RBrace)) {
      if (cur_.at_end()) fail(cur_.peek(), "L120", "expected '}'");
      try {
        parse_rule_statement();
      } catch (const ParseError& e) {
        report(e);
        cur_.synchronize();
      }
    }
    const auto end = static_cast<std::uint32_t>(out_.statements.size());
    if (cal && !rule_seen_[*cal]) {
      rule_seen_[*cal] = true;
      out_.calendars[*cal].stmts_begin = begin;
      out_.calendars[*cal].stmts_end = end;
    }
  }

  // ---- Rule statements and actions ------------------------------------------

  void parse_rule_statement() {
    Statement s;
    if (cur_.accept_word("if")) {
      s.cond_begin = code_pos();
      parse_expr();
      s.cond_end = code_pos();
      expect_word("then");
      s.then_begin = action_pos();
      parse_actions();
      s.then_end = action_pos();
      if (cur_.accept_word("else")) {
        s.else_begin = action_pos();
        parse_actions();
        s.else_end = action_pos();
      }
    } else {
      s.then_begin = action_pos();
      parse_actions();
      s.then_end = action_pos();
    }
    cur_.expect(TokenType::Semicolon, "';'");
    out_.statements.push_back(s);
  }

  void parse_actions() {
    parse_action();
    while (cur_.accept(TokenType::Comma)) parse_action();
  }

  void parse_action() {
    const Token at = cur_.peek();
    if (cur_.accept_word("repair")) {
      Action a;
      if (cur_.accept(TokenType::LParen)) {
        a.kind = Action::Kind::RepairLeaf;
        a.leaf_slot = add_ref(cur_.expect_identifier("a component name"));
        cur_.expect(TokenType::RParen, "')'");
      } else {
        a.kind = Action::Kind::RepairSelf;
      }
      out_.actions.push_back(a);
    } else if (cur_.accept_word("spend")) {
      Action a;
      a.kind = Action::Kind::Spend;
      cur_.expect(TokenType::LParen, "'('");
      const Token budget = cur_.expect_identifier("a budget name");
      const std::optional<std::size_t> b = budget_index(budget.text);
      if (!b)
        fail(budget, "L132", "unknown budget '" + budget.text + "'",
             "declare it with 'budget " + budget.text + " = <amount>;'");
      a.budget = static_cast<std::uint32_t>(*b);
      cur_.expect(TokenType::Comma, "','");
      a.amount_begin = code_pos();
      parse_expr();
      a.amount_end = code_pos();
      cur_.expect(TokenType::RParen, "')'");
      out_.actions.push_back(a);
    } else {
      fail(at, "L122",
           "expected an action, found '" + token_text(at) + "'",
           "actions are 'repair', 'repair(<component>)' and "
           "'spend(<budget>, <amount>)'");
    }
  }

  // ---- Expressions (postfix emission) ---------------------------------------

  void parse_expr() { parse_or(); }

  void parse_or() {
    parse_and();
    while (cur_.accept_word("or")) {
      parse_and();
      emit(Op::Or);
    }
  }

  void parse_and() {
    parse_not();
    while (cur_.accept_word("and")) {
      parse_not();
      emit(Op::And);
    }
  }

  void parse_not() {
    if (cur_.accept_word("not")) {
      parse_not();
      emit(Op::Not);
    } else {
      parse_cmp();
    }
  }

  void parse_cmp() {
    parse_add();
    Op op;
    switch (cur_.peek().type) {
      case TokenType::Less: op = Op::Less; break;
      case TokenType::LessEq: op = Op::LessEq; break;
      case TokenType::Greater: op = Op::Greater; break;
      case TokenType::GreaterEq: op = Op::GreaterEq; break;
      case TokenType::EqualsEquals: op = Op::Equal; break;
      case TokenType::NotEquals: op = Op::NotEqual; break;
      default: return;
    }
    cur_.next();
    parse_add();
    emit(op);
  }

  void parse_add() {
    parse_mul();
    while (true) {
      if (cur_.accept(TokenType::Plus)) {
        parse_mul();
        emit(Op::Add);
      } else if (cur_.accept(TokenType::Minus)) {
        parse_mul();
        emit(Op::Sub);
      } else {
        return;
      }
    }
  }

  void parse_mul() {
    parse_unary();
    while (true) {
      if (cur_.accept(TokenType::Star)) {
        parse_unary();
        emit(Op::Mul);
      } else if (cur_.accept(TokenType::Slash)) {
        parse_unary();
        emit(Op::Div);
      } else {
        return;
      }
    }
  }

  void parse_unary() {
    if (cur_.accept(TokenType::Minus)) {
      parse_unary();
      emit(Op::Neg);
    } else {
      parse_primary();
    }
  }

  void parse_primary() {
    const Token at = cur_.peek();
    if (at.type == TokenType::Number) {
      cur_.next();
      emit_const(at.number);
      return;
    }
    if (cur_.accept(TokenType::LParen)) {
      parse_expr();
      cur_.expect(TokenType::RParen, "')'");
      return;
    }
    if (at.type != TokenType::Identifier || at.quoted)
      fail(at, "L122",
           "expected an expression, found '" + token_text(at) + "'");
    cur_.next();
    const std::string& word = at.text;
    if (word == "true") {
      emit_const(1.0);
    } else if (word == "false") {
      emit_const(0.0);
    } else if (word == "time") {
      emit(Op::PushTime);
    } else if (word == "repairs") {
      emit(Op::PushRepairs);
    } else if (word == "phase") {
      emit(Op::PushPhase, leaf_arg());
    } else if (word == "threshold") {
      emit(Op::PushThreshold, leaf_arg());
    } else if (word == "phases") {
      emit(Op::PushPhases, leaf_arg());
    } else if (word == "failed") {
      emit(Op::PushFailed, leaf_arg());
    } else if (word == "repaired") {
      emit(Op::PushRepaired, leaf_arg());
    } else if (word == "budget") {
      cur_.expect(TokenType::LParen, "'('");
      const Token budget = cur_.expect_identifier("a budget name");
      const std::optional<std::size_t> b = budget_index(budget.text);
      if (!b)
        fail(budget, "L132", "unknown budget '" + budget.text + "'",
             "declare it with 'budget " + budget.text + " = <amount>;'");
      cur_.expect(TokenType::RParen, "')'");
      emit(Op::PushBudget, static_cast<std::uint32_t>(*b));
    } else if (word == "mod") {
      cur_.expect(TokenType::LParen, "'('");
      parse_expr();
      cur_.expect(TokenType::Comma, "','");
      parse_expr();
      cur_.expect(TokenType::RParen, "')'");
      emit(Op::Mod);
    } else {
      fail(at, "L122", "unknown name '" + word + "' in expression",
           "component state reads as phase(<name>), threshold(<name>), "
           "phases(<name>), failed(<name>), repaired(<name>)");
    }
  }

  /// Optional '(name)' after a component-state keyword: a named component,
  /// or the one under evaluation when absent.
  std::uint32_t leaf_arg() {
    if (!cur_.accept(TokenType::LParen)) return kSelfLeaf;
    const std::uint32_t slot = add_ref(cur_.expect_identifier("a component name"));
    cur_.expect(TokenType::RParen, "')'");
    return slot;
  }

  // ---- Table plumbing -------------------------------------------------------

  void emit(Op op, std::uint32_t arg = 0) { out_.code.push_back(Instr{op, arg}); }

  void emit_const(double v) {
    out_.consts.push_back(v);
    emit(Op::PushConst, static_cast<std::uint32_t>(out_.consts.size() - 1));
  }

  std::uint32_t code_pos() const {
    return static_cast<std::uint32_t>(out_.code.size());
  }
  std::uint32_t action_pos() const {
    return static_cast<std::uint32_t>(out_.actions.size());
  }

  std::uint32_t add_ref(const Token& name) {
    out_.name_refs.push_back(NameRef{name.text, {name.line, name.column}});
    return static_cast<std::uint32_t>(out_.name_refs.size() - 1);
  }

  std::optional<std::size_t> calendar_index(const std::string& name) const {
    for (std::size_t i = 0; i < out_.calendars.size(); ++i)
      if (out_.calendars[i].name == name) return i;
    return std::nullopt;
  }

  std::optional<std::size_t> budget_index(const std::string& name) const {
    for (std::size_t i = 0; i < out_.budgets.size(); ++i)
      if (out_.budgets[i].name == name) return i;
    return std::nullopt;
  }

  TokenCursor cur_;
  Diagnostics& diags_;
  CompiledPolicy out_;
  bool policy_named_ = false;
  std::vector<SourceLocation> calendar_loc_;  // parallel to out_.calendars
  std::vector<bool> rule_seen_;               // parallel to out_.calendars
};

}  // namespace

std::optional<CompiledPolicy> compile_policy(const std::string& source,
                                             Diagnostics& diags) {
  return Compiler(ft::tokenize(source, diags, ft::kPolicyText), diags).run();
}

CompiledPolicy compile_policy(const std::string& source) {
  Diagnostics diags;
  std::optional<CompiledPolicy> policy = compile_policy(source, diags);
  if (!policy) throw ParseErrors(diags.all());
  return std::move(*policy);
}

}  // namespace fmtree::lang
