// ledger-schema pass: the run ledger is a shared contract between every
// emit site (`obs::LedgerEvent("ev", t).field(...)...finish()`) and the
// offline analyzer tools/report/ledger_analysis.cpp. The pass rebuilds
// both sides from source and diffs them:
//
//   * an event that is emitted but has no parser branch silently drops
//     report rows — finding at the emit site, unless the parser file
//     declares `ledger-schema:ignore <ev>` with a rationale;
//   * a parser branch for an event nothing emits is dead code — finding
//     at the branch;
//   * a parser key (`num_or(ev, "k", ...)`, `str_or`, `id_or`,
//     `ev.has("k")`, `ev.at("k")`) that no emit site of that event ever
//     sets reads a field that cannot exist — finding at the branch;
//   * a key the parser reads unconditionally (`ev.at("k")` with no
//     `ev.has("k")` guard in the branch) must be present at every emit
//     site of the event — finding at any site that omits it.
//
// The Chrome-trace view (tools/report/chrome_trace.cpp) reads the same
// lines with the same dispatch idiom. It renders only some events, so it
// gets the stale-branch and unknown-key checks but not the unparsed one.
//
// Field sets are unions per emit site (conditionally-added fields count as
// present), so the unconditional-key check is deliberately lenient; the
// has/at distinction carries the required/optional split.
#include "analyzer.hpp"
#include "functions.hpp"

namespace stellaris::analyze {

namespace {

bool punct_is(const Token& t, const char* s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}
bool ident_is(const Token& t, const char* s) {
  return t.kind == Token::Kind::kIdent && t.text == s;
}

/// Fields every event carries implicitly (written by the LedgerEvent
/// constructor itself): the type tag, the run id, the virtual timestamp.
const std::set<std::string>& implicit_fields() {
  static const std::set<std::string> s = {"ev", "run", "t"};
  return s;
}

struct EmitSite {
  const SourceFile* file = nullptr;
  int line = 0;
  std::string event;
  std::set<std::string> fields;
};

/// `LedgerEvent("ev", t).field(...)` (chained temporary) or
/// `LedgerEvent var("ev", t); var.field(...); ... var.finish()` (named).
/// Either way the fields follow the construction as `. field ( "k"` /
/// `. raw ( "k"` tokens; collection stops at the first `finish`.
std::vector<EmitSite> extract_emit_sites(const Project& project) {
  std::vector<EmitSite> out;
  for (const auto& file : project.files) {
    // The builder's own definition is not an emit site.
    if (file.rel.find("obs/ledger.") != std::string::npos) continue;
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!ident_is(toks[i], "LedgerEvent")) continue;
      std::size_t open = 0;
      if (punct_is(toks[i + 1], "(") &&
          toks[i + 2].kind == Token::Kind::kString) {
        open = i + 1;  // chained temporary
      } else if (toks[i + 1].kind == Token::Kind::kIdent && i + 3 < toks.size() &&
                 punct_is(toks[i + 2], "(") &&
                 toks[i + 3].kind == Token::Kind::kString) {
        open = i + 2;  // named variable
      } else {
        continue;  // declaration, member definition, reference, ...
      }
      EmitSite site;
      site.file = &file;
      site.line = toks[i].line;
      site.event = toks[open + 1].text;
      std::size_t j = match_group(toks, open);
      const std::size_t cap = std::min(toks.size(), j + 600);
      while (j + 3 < cap) {
        if (ident_is(toks[j], "finish")) break;
        if (punct_is(toks[j], ".") &&
            (ident_is(toks[j + 1], "field") || ident_is(toks[j + 1], "raw")) &&
            punct_is(toks[j + 2], "(") &&
            toks[j + 3].kind == Token::Kind::kString) {
          site.fields.insert(toks[j + 3].text);
          j = match_group(toks, j + 2);
          continue;
        }
        ++j;
      }
      out.push_back(std::move(site));
      i = open;
    }
  }
  return out;
}

struct ParserBranch {
  int line = 0;
  std::set<std::string> accessed;  // every key the branch reads
  std::set<std::string> required;  // at()-keys with no has() guard
};

/// Branches are `type == "ev"` comparisons in the parser's dispatch chain;
/// the branch body is the following balanced `{...}`.
std::map<std::string, ParserBranch> extract_branches(const SourceFile& parser) {
  std::map<std::string, ParserBranch> out;
  const auto& toks = parser.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!ident_is(toks[i], "type")) continue;
    if (!punct_is(toks[i + 1], "=") || !punct_is(toks[i + 2], "=")) continue;
    if (toks[i + 3].kind != Token::Kind::kString) continue;
    const std::string event = toks[i + 3].text;
    std::size_t j = i + 4;
    while (j < toks.size() && !punct_is(toks[j], "{") &&
           !punct_is(toks[j], ";"))
      ++j;
    if (j >= toks.size() || !punct_is(toks[j], "{")) continue;
    const std::size_t end = match_group(toks, j);
    ParserBranch branch;
    branch.line = toks[i + 3].line;
    std::set<std::string> has_keys, at_keys;
    for (std::size_t k = j; k + 4 < end; ++k) {
      // num_or(ev, "k", ...) / str_or(ev, "k", ...) / id_or(ev, "k", ...)
      if ((ident_is(toks[k], "num_or") || ident_is(toks[k], "str_or") ||
           ident_is(toks[k], "id_or")) &&
          punct_is(toks[k + 1], "(") &&
          toks[k + 2].kind == Token::Kind::kIdent &&
          punct_is(toks[k + 3], ",") &&
          toks[k + 4].kind == Token::Kind::kString) {
        branch.accessed.insert(toks[k + 4].text);
        continue;
      }
      // ev.has("k") / ev.at("k")
      if (punct_is(toks[k], ".") &&
          (ident_is(toks[k + 1], "has") || ident_is(toks[k + 1], "at")) &&
          punct_is(toks[k + 2], "(") &&
          toks[k + 3].kind == Token::Kind::kString) {
        branch.accessed.insert(toks[k + 3].text);
        (ident_is(toks[k + 1], "has") ? has_keys : at_keys)
            .insert(toks[k + 3].text);
      }
    }
    for (const auto& key : at_keys)
      if (!has_keys.count(key)) branch.required.insert(key);
    out.emplace(event, std::move(branch));
    i = j;
  }
  return out;
}

}  // namespace

void check_ledger(const Project& project, std::vector<Finding>& out) {
  const auto sites = extract_emit_sites(project);

  const auto ends_with = [](const std::string& s, const std::string& tail) {
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  };
  const SourceFile* parser = nullptr;
  const SourceFile* view = nullptr;
  for (const auto& file : project.files) {
    if (ends_with(file.rel, "ledger_analysis.cpp")) parser = &file;
    if (ends_with(file.rel, "chrome_trace.cpp")) view = &file;
  }
  if (!parser) {
    if (!sites.empty())
      out.push_back({"ledger-schema", sites.front().file->rel,
                     sites.front().line, "no-parser",
                     "ledger events are emitted but "
                     "tools/report/ledger_analysis.cpp is missing — the "
                     "emitter/parser contract cannot be checked"});
    return;
  }

  const auto branches = extract_branches(*parser);
  std::set<std::string> ignored;
  for (const auto& file : project.files)
    ignored.insert(file.ignored_events.begin(), file.ignored_events.end());

  std::map<std::string, std::set<std::string>> emitted_fields;  // ev -> union
  std::set<std::string> emitted_events;
  for (const auto& site : sites) {
    emitted_events.insert(site.event);
    emitted_fields[site.event].insert(site.fields.begin(), site.fields.end());
  }

  std::set<std::string> reported;
  auto push = [&](Finding f) {
    if (reported.insert(f.id()).second) out.push_back(std::move(f));
  };

  for (const auto& site : sites) {
    if (site.file->suppressed("ledger-schema", site.line)) continue;
    auto branch = branches.find(site.event);
    if (branch == branches.end()) {
      if (!ignored.count(site.event))
        push({"ledger-schema", site.file->rel, site.line,
              "unparsed:" + site.event,
              "event \"" + site.event + "\" is emitted but " + parser->rel +
                  " has no branch for it — report rows are silently "
                  "dropped (add a branch, or declare `ledger-schema:ignore " +
                  site.event + "` there with a rationale)"});
      continue;
    }
    for (const auto& key : branch->second.required)
      if (!site.fields.count(key) && !implicit_fields().count(key))
        push({"ledger-schema", site.file->rel, site.line,
              "missing:" + site.event + "." + key,
              "emit site for \"" + site.event + "\" omits field \"" + key +
                  "\" which the parser reads unconditionally (ev.at)"});
  }

  // Every branch of a reader must match an emitted event and read only
  // fields some emit site sets.
  const auto check_reads = [&](const SourceFile& reader,
                               const std::map<std::string, ParserBranch>&
                                   reader_branches) {
    for (const auto& [event, branch] : reader_branches) {
      if (reader.suppressed("ledger-schema", branch.line)) continue;
      if (!emitted_events.count(event)) {
        if (!ignored.count(event))
          push({"ledger-schema", reader.rel, branch.line, "stale:" + event,
                "parser branch for \"" + event +
                    "\" matches an event nothing emits — dead code or a "
                    "renamed event"});
        continue;
      }
      const auto& fields = emitted_fields[event];
      for (const auto& key : branch.accessed)
        if (!fields.count(key) && !implicit_fields().count(key))
          push({"ledger-schema", reader.rel, branch.line,
                "unknown-key:" + event + "." + key,
                "parser reads field \"" + key + "\" of event \"" + event +
                    "\" but no emit site ever sets it"});
    }
  };
  check_reads(*parser, branches);
  if (view) check_reads(*view, extract_branches(*view));
}

}  // namespace stellaris::analyze
