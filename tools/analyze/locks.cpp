// lock-rank pass: the lock hierarchy must agree across its three sources
// of truth — the `lock_rank` constants (src/util/annotated_mutex.hpp), the
// DESIGN.md §11 rank table, and every Mutex/SharedMutex construction site.
//
// Checks, in order:
//   1. no two lock_rank constants share a numeric value (peers that never
//      nest share one *constant*, never a duplicated number);
//   2. every constant has a DESIGN.md table row with the same value, and
//      every table row names a live constant (stale docs are findings);
//   3. every construction carries a string-literal name and a lock_rank::
//      constant (a raw integer or a missing rank defeats both the runtime
//      checker's diagnostics and this cross-check);
//   4. every constructed lock name appears in the DESIGN.md table, and
//      every table lock name is constructed somewhere (catches renames);
//   5. rank order for nestings visible inside a single function: a guard
//      (MutexLock/WriterLock/ReaderLock) constructed while another guard
//      is active must lock a strictly greater rank. Guard mutexes are
//      resolved by variable name against construction sites in the same
//      file or its direct includes; ambiguous or unresolvable names are
//      skipped (the runtime checker still covers them).
#include "analyzer.hpp"
#include "functions.hpp"

#include <optional>
#include <sstream>

namespace stellaris::analyze {

namespace {

bool punct_is(const Token& t, const char* s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}
bool ident_is(const Token& t, const char* s) {
  return t.kind == Token::Kind::kIdent && t.text == s;
}

struct RankConstant {
  std::string name;
  long value = 0;
  std::string file;
  int line = 0;
};

/// `inline constexpr int kX = N;` inside `namespace lock_rank { ... }`.
std::vector<RankConstant> extract_constants(const Project& project) {
  std::vector<RankConstant> out;
  for (const auto& file : project.files) {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!ident_is(toks[i], "namespace") || !ident_is(toks[i + 1], "lock_rank"))
        continue;
      std::size_t open = i + 2;
      if (!punct_is(toks[open], "{")) continue;
      const std::size_t end = match_group(toks, open);
      for (std::size_t j = open; j + 2 < end; ++j) {
        if (toks[j].kind != Token::Kind::kIdent) continue;
        if (toks[j].text.rfind('k', 0) != 0) continue;
        if (!punct_is(toks[j + 1], "=")) continue;
        if (toks[j + 2].kind != Token::Kind::kNumber) continue;
        out.push_back({toks[j].text, std::stol(toks[j + 2].text), file.rel,
                       toks[j].line});
      }
      i = end;
    }
  }
  return out;
}

struct TableRow {
  long value = 0;
  std::string constant;
  std::string lock_name;
  int line = 0;
};

/// DESIGN.md rank-table rows: `|  100 | `kCache` | `cache/...` | ... |`.
std::vector<TableRow> extract_table(const std::string& design_md) {
  std::vector<TableRow> rows;
  std::istringstream in(design_md);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    std::size_t p = raw.find_first_not_of(" \t");
    if (p == std::string::npos || raw[p] != '|') continue;
    // Split on '|'.
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream cs(raw.substr(p + 1));
    while (std::getline(cs, cell, '|')) cells.push_back(cell);
    if (cells.size() < 3) continue;
    auto trim = [](std::string s) {
      const std::size_t a = s.find_first_not_of(" \t");
      if (a == std::string::npos) return std::string();
      const std::size_t b = s.find_last_not_of(" \t");
      return s.substr(a, b - a + 1);
    };
    auto backticked = [&](const std::string& s) -> std::string {
      const std::string t = trim(s);
      if (t.size() >= 2 && t.front() == '`' && t.back() == '`')
        return t.substr(1, t.size() - 2);
      return "";
    };
    const std::string first = trim(cells[0]);
    if (first.empty() ||
        first.find_first_not_of("0123456789") != std::string::npos)
      continue;
    TableRow row;
    row.value = std::stol(first);
    row.constant = backticked(cells[1]);
    row.lock_name = backticked(cells[2]);
    row.line = line;
    if (!row.constant.empty() && row.constant.rfind('k', 0) == 0)
      rows.push_back(row);
  }
  return rows;
}

struct Construction {
  std::string file;
  int line = 0;
  std::string var;        // declared variable name
  std::string lock_name;  // string-literal name ("" when absent)
  std::string constant;   // lock_rank constant ("" when absent)
};

/// `Mutex var{"name", lock_rank::kX}` / `Mutex var("name", lock_rank::kX)`
/// (also SharedMutex, also `static` / member forms — the tokens are the
/// same). Declarations like `Mutex& m` or the wrapper's own methods have
/// no `ident ident ( / {` shape and are skipped.
std::vector<Construction> extract_constructions(const Project& project) {
  std::vector<Construction> out;
  for (const auto& file : project.files) {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!(ident_is(toks[i], "Mutex") || ident_is(toks[i], "SharedMutex")))
        continue;
      if (toks[i + 1].kind != Token::Kind::kIdent) continue;
      if (!punct_is(toks[i + 2], "{") && !punct_is(toks[i + 2], "(")) continue;
      const std::size_t end = match_group(toks, i + 2);
      Construction c;
      c.file = file.rel;
      c.line = toks[i].line;
      c.var = toks[i + 1].text;
      for (std::size_t j = i + 3; j + 1 < end; ++j) {
        if (toks[j].kind == Token::Kind::kString && c.lock_name.empty())
          c.lock_name = toks[j].text;
        if (ident_is(toks[j], "lock_rank") && punct_is(toks[j + 1], "::") &&
            j + 2 < end && toks[j + 2].kind == Token::Kind::kIdent)
          c.constant = toks[j + 2].text;
      }
      out.push_back(c);
      i = end - 1;
    }
  }
  return out;
}

}  // namespace

void check_locks(const Project& project, const std::string& design_md,
                 std::vector<Finding>& out) {
  const auto constants = extract_constants(project);
  const auto rows = extract_table(design_md);
  const auto sites = extract_constructions(project);

  std::map<std::string, const RankConstant*> by_name;
  std::map<long, const RankConstant*> by_value;
  for (const auto& c : constants) {
    by_name[c.name] = &c;
    auto [it, inserted] = by_value.emplace(c.value, &c);
    if (!inserted) {
      const SourceFile* f = project.find(c.file);
      if (f && f->suppressed("lock-rank", c.line)) continue;
      out.push_back({"lock-rank", c.file, c.line, "dup:" + c.name,
                     "rank constant `" + c.name + "` duplicates the value " +
                         std::to_string(c.value) + " of `" + it->second->name +
                         "` — peers that never nest share one constant, "
                         "never a second constant with the same number"});
    }
  }

  std::map<std::string, const TableRow*> table_by_constant;
  std::set<std::string> table_lock_names;
  for (const auto& r : rows) {
    table_by_constant[r.constant] = &r;
    if (!r.lock_name.empty()) table_lock_names.insert(r.lock_name);
  }

  for (const auto& c : constants) {
    const SourceFile* f = project.find(c.file);
    const bool quiet = f && f->suppressed("lock-rank", c.line);
    auto it = table_by_constant.find(c.name);
    if (it == table_by_constant.end()) {
      if (!quiet)
        out.push_back({"lock-rank", c.file, c.line, "design-missing:" + c.name,
                       "rank constant `" + c.name +
                           "` has no row in the DESIGN.md §11 rank table — "
                           "new locks must document their place in the "
                           "hierarchy"});
    } else if (it->second->value != c.value) {
      if (!quiet)
        out.push_back({"lock-rank", c.file, c.line, "design-value:" + c.name,
                       "rank constant `" + c.name + "` = " +
                           std::to_string(c.value) +
                           " but the DESIGN.md §11 table says " +
                           std::to_string(it->second->value)});
    }
  }
  for (const auto& r : rows) {
    if (by_name.count(r.constant)) continue;
    out.push_back({"lock-rank", "DESIGN.md", r.line, "design-stale:" + r.constant,
                   "DESIGN.md §11 table row `" + r.constant +
                       "` names a lock_rank constant that no longer exists"});
  }

  // Construction sites.
  std::set<std::string> constructed_names;
  for (const auto& c : sites) {
    const SourceFile* f = project.find(c.file);
    const bool quiet = f && f->suppressed("lock-rank", c.line);
    if (!c.lock_name.empty()) constructed_names.insert(c.lock_name);
    if (quiet) continue;
    if (c.constant.empty()) {
      out.push_back({"lock-rank", c.file, c.line, "no-rank:" + c.var,
                     "lock `" + c.var +
                         "` is constructed without a lock_rank:: constant — "
                         "raw integers defeat the hierarchy cross-check"});
      continue;
    }
    if (!by_name.count(c.constant)) {
      out.push_back({"lock-rank", c.file, c.line, "unknown-rank:" + c.constant,
                     "lock `" + c.var + "` uses undeclared rank constant `" +
                         c.constant + "`"});
      continue;
    }
    if (c.lock_name.empty()) {
      out.push_back({"lock-rank", c.file, c.line, "no-name:" + c.var,
                     "lock `" + c.var +
                         "` is constructed without a string-literal name — "
                         "the runtime checker's abort message needs one"});
      continue;
    }
    if (!table_lock_names.count(c.lock_name))
      out.push_back({"lock-rank", c.file, c.line, "name:" + c.lock_name,
                     "lock name \"" + c.lock_name +
                         "\" does not appear in the DESIGN.md §11 rank "
                         "table — update the table (or fix the name)"});
  }
  for (const auto& r : rows) {
    if (r.lock_name.empty() || constructed_names.count(r.lock_name)) continue;
    out.push_back({"lock-rank", "DESIGN.md", r.line,
                   "design-unconstructed:" + r.lock_name,
                   "DESIGN.md §11 table names lock \"" + r.lock_name +
                       "\" but no construction site uses that name"});
  }

  // ---- 5. Single-function visible nesting order -------------------------
  // Resolve guard arguments by variable name, scoped to the constructions
  // in the guard's own file plus its direct quoted includes.
  std::map<std::string, std::map<std::string, std::set<long>>> file_vars;
  std::map<std::string, std::map<std::string, std::string>> file_var_names;
  auto add_vars = [&](const std::string& into, const Construction& c) {
    if (c.constant.empty() || !by_name.count(c.constant)) return;
    file_vars[into][c.var].insert(by_name.at(c.constant)->value);
    file_var_names[into][c.var] = c.lock_name;
  };
  for (const auto& c : sites) add_vars(c.file, c);
  for (const auto& file : project.files)
    for (const auto& [target, line] : file.includes) {
      (void)line;
      for (const auto& c : sites) {
        // Includes are rooted at src/ ("util/lease_pool.hpp"); the
        // construction's rel path carries the "src/" prefix.
        if (c.file == target || c.file == "src/" + target)
          add_vars(file.rel, c);
      }
    }

  for (const auto& file : project.files) {
    const auto vars_it = file_vars.find(file.rel);
    const auto& vars = vars_it == file_vars.end()
                           ? std::map<std::string, std::set<long>>{}
                           : vars_it->second;
    if (vars.empty()) continue;
    const auto& toks = file.tokens;
    for (const auto& def : extract_functions(file)) {
      struct ActiveGuard {
        int depth;
        long rank;
        std::string var;       // guard variable (for .unlock() tracking)
        std::string lock_var;  // mutex variable it holds
        int line;
      };
      std::vector<ActiveGuard> active;
      int depth = 0;
      for (std::size_t i = def.body_begin; i < def.body_end && i < toks.size();
           ++i) {
        const Token& t = toks[i];
        if (punct_is(t, "{")) {
          ++depth;
          continue;
        }
        if (punct_is(t, "}")) {
          --depth;
          while (!active.empty() && active.back().depth > depth)
            active.pop_back();
          continue;
        }
        // guard.unlock() — early release deactivates the guard.
        if (t.kind == Token::Kind::kIdent && i + 3 < def.body_end &&
            punct_is(toks[i + 1], ".") && ident_is(toks[i + 2], "unlock")) {
          for (auto& g : active)
            if (g.var == t.text) g.rank = -1;  // released
          continue;
        }
        if (t.kind != Token::Kind::kIdent) continue;
        if (t.text != "MutexLock" && t.text != "WriterLock" &&
            t.text != "ReaderLock")
          continue;
        if (i + 2 >= def.body_end || toks[i + 1].kind != Token::Kind::kIdent ||
            !punct_is(toks[i + 2], "("))
          continue;
        const std::size_t arg_end = match_group(toks, i + 2);
        // First argument identifier that resolves to exactly one rank.
        std::optional<long> rank;
        std::string lock_var;
        for (std::size_t j = i + 3; j + 1 < arg_end; ++j) {
          if (toks[j].kind != Token::Kind::kIdent) continue;
          auto v = vars.find(toks[j].text);
          if (v != vars.end() && v->second.size() == 1) {
            rank = *v->second.begin();
            lock_var = toks[j].text;
            break;
          }
        }
        if (rank.has_value()) {
          for (const auto& g : active) {
            if (g.rank < 0 || g.rank < *rank) continue;
            if (file.suppressed("lock-rank", t.line)) break;
            out.push_back(
                {"lock-rank", file.rel, t.line,
                 "order:" + g.lock_var + ">" + lock_var,
                 "guard over `" + lock_var + "` (rank " +
                     std::to_string(*rank) + ") acquired while `" +
                     g.lock_var + "` (rank " + std::to_string(g.rank) +
                     ", line " + std::to_string(g.line) +
                     ") is held — ranks must strictly increase "
                     "(DESIGN.md §11)"});
            break;
          }
          active.push_back(
              {depth, *rank, toks[i + 1].text, lock_var, t.line});
        }
        i = arg_end - 1;
      }
    }
  }
}

}  // namespace stellaris::analyze
