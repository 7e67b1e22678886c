// rules_lock.cpp — the three corpus-level lock-discipline rules.
//
//   lockorder    — global lock-acquisition graph over the LockModel:
//                  lexical nesting plus call edges (A locks m1 then calls B
//                  which locks m2).  Cycles are potential deadlocks;
//                  cross-class edges must be declared with
//                  LOBSTER_ACQUIRED_BEFORE/AFTER on the mutex member.
//   guardeduse   — accesses of LOBSTER_GUARDED_BY members whose lexical
//                  lock-set lacks the guarding mutex.
//   counterplane — counter/gauge registration literals obey the
//                  `layer.subsystem.metric` grammar, are registered once,
//                  and every counter named in the docs exists in code.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hpp"
#include "lint/lockmodel.hpp"

namespace lobster::lint {

namespace {

std::string first_segment(const std::string& chain) {
  std::size_t e = 0;
  while (e < chain.size() && is_identifier_char(chain[e])) ++e;
  return chain.substr(0, e);
}

/// Memoized transitive-include reachability.  Name-based fallback
/// resolution (a receiver whose type we can't see) only considers classes
/// whose defining file the accessing file actually includes — a local
/// variable in tools/ can't be an instance of a src/cvmfs/ class the TU
/// never heard of.
class Reach {
 public:
  explicit Reach(const Corpus& corpus) : corpus_(corpus) {}

  bool reachable(const SourceFile* from, const SourceFile* target) const {
    if (!from || !target) return false;
    return closure(from).count(target) != 0;
  }

 private:
  const std::set<const SourceFile*>& closure(const SourceFile* f) const {
    const auto it = memo_.find(f);
    if (it != memo_.end()) return it->second;
    std::set<const SourceFile*> seen{f};
    std::vector<const SourceFile*> work{f};
    while (!work.empty()) {
      const SourceFile* cur = work.back();
      work.pop_back();
      for (const std::string& inc : cur->includes) {
        const SourceFile* t = corpus_.resolve(inc);
        if (t && seen.insert(t).second) work.push_back(t);
      }
    }
    return memo_[f] = std::move(seen);
  }

  const Corpus& corpus_;
  mutable std::map<const SourceFile*, std::set<const SourceFile*>> memo_;
};

/// Qualify a lexical LockRef to a canonical "Cls::member" id; "" when the
/// receiver cannot be resolved to a modelled class.
std::string resolve_lock(const LockModel& model, const Reach& reach,
                         const SourceFile* from, const std::string& method_cls,
                         const LockRef& ref) {
  if (ref.receiver == "this") {
    const ClassModel* own = model.find_class(method_cls);
    if (own && own->mutexes.count(ref.name))
      return method_cls + "::" + ref.name;
  } else {
    const ClassModel* own = model.find_class(method_cls);
    if (own) {
      const auto it = own->member_class.find(first_segment(ref.receiver));
      if (it != own->member_class.end()) {
        const ClassModel* c2 = model.find_class(it->second);
        if (c2 && c2->mutexes.count(ref.name))
          return it->second + "::" + ref.name;
      }
    }
  }
  // Fallback: the mutex member name identifies exactly one modelled class
  // visible from the acquiring file (`state->m` where only ObjectState has
  // a mutex `m`).
  std::string found;
  for (const auto& [name, cls] : model.classes) {
    if (!cls.mutexes.count(ref.name)) continue;
    if (!reach.reachable(from, cls.file)) continue;
    if (!found.empty()) return "";  // ambiguous
    found = name + "::" + ref.name;
  }
  return found;
}

/// Method names too generic for name-based call resolution: a lock-holding
/// call to a std::vector's `size()` must not resolve to Channel::size().
/// Calls to these resolve only through a member's declared type.
bool generic_method_name(const std::string& n) {
  static const std::set<std::string> kGeneric = {
      "size",    "empty",   "clear",   "push_back", "pop_front", "pop_back",
      "push",    "pop",     "front",   "back",      "at",        "find",
      "begin",   "end",     "count",   "erase",     "insert",    "emplace",
      "emplace_back", "reserve", "resize", "load",  "store",     "exchange",
      "fetch_add", "fetch_sub", "lock", "unlock",   "try_lock",  "get",
      "reset",   "c_str",   "str",     "data",      "swap",      "top",
      "join",    "joinable", "detach", "wait",      "wait_for",  "notify_one",
      "notify_all", "compare_exchange_strong", "compare_exchange_weak",
      "value",   "has_value", "owns_lock", "name",  "add",       "append",
      "substr",  "contains",
  };
  return kGeneric.count(n) != 0;
}

struct MethodIndex {
  /// "Cls::name" -> method bodies (overloads and split definitions merge).
  std::map<std::string, std::vector<const MethodModel*>> by_key;
  /// name -> classes defining a body for it.
  std::map<std::string, std::set<std::string>> classes_of;
};

MethodIndex index_methods(const LockModel& model) {
  MethodIndex idx;
  for (const MethodModel& m : model.methods) {
    idx.by_key[m.cls + "::" + m.name].push_back(&m);
    idx.classes_of[m.name].insert(m.cls);
  }
  return idx;
}

/// Candidate callee keys for a call event.  Member-typed receivers resolve
/// exactly; otherwise distinctive method names resolve to every class that
/// defines them (the union is the conservative over-approximation for
/// deadlock detection).
std::vector<std::string> resolve_call(const LockModel& model,
                                      const MethodIndex& idx,
                                      const Reach& reach,
                                      const SourceFile* from,
                                      const std::string& method_cls,
                                      const Call& call) {
  if (call.receiver.empty()) {
    const std::string key = method_cls + "::" + call.name;
    if (idx.by_key.count(key)) return {key};
    return {};
  }
  const ClassModel* own = model.find_class(method_cls);
  if (own) {
    const auto it = own->member_class.find(first_segment(call.receiver));
    if (it != own->member_class.end()) {
      const std::string key = it->second + "::" + call.name;
      if (idx.by_key.count(key)) return {key};
      if (model.find_class(it->second)) return {};  // known type, no body
    }
  }
  if (generic_method_name(call.name)) return {};
  std::vector<std::string> out;
  const auto it = idx.classes_of.find(call.name);
  if (it == idx.classes_of.end()) return out;
  for (const std::string& cls : it->second) {
    const ClassModel* cm = model.find_class(cls);
    if (cm && !reach.reachable(from, cm->file)) continue;
    out.push_back(cls + "::" + call.name);
  }
  return out;
}

std::string cls_of_id(const std::string& id) {
  return id.substr(0, id.find("::"));
}

/// Where an edge was observed, for finding locations.
struct EdgeWitness {
  const SourceFile* file = nullptr;
  std::size_t line = 0;
  std::string method;  ///< "Cls::name" of the observing body
  std::string via;     ///< callee key for call edges, "" for lexical ones
};

// ---------------------------------------------------------------------------
// Rule: lockorder
// ---------------------------------------------------------------------------

class LockOrderRule final : public Rule {
 public:
  const char* name() const override { return "lockorder"; }
  const char* tag() const override { return "lockorder"; }
  void check(const SourceFile&, const Corpus&,
             std::vector<Finding>&) const override {}

  void check_corpus(const Corpus& corpus,
                    std::vector<Finding>& out) const override {
    const LockModel model = build_lock_model(corpus);
    const MethodIndex idx = index_methods(model);
    const Reach reach(corpus);

    // Per-method transitive acquire sets (fixpoint over the call graph).
    std::map<std::string, std::set<std::string>> acquires;
    std::map<std::string, std::set<std::string>> callees;
    for (const MethodModel& m : model.methods) {
      const std::string key = m.cls + "::" + m.name;
      for (const Acquisition& a : m.acquisitions) {
        const std::string q = resolve_lock(model, reach, m.file, m.cls, a.lock);
        if (!q.empty()) acquires[key].insert(q);
      }
      for (const Call& c : m.calls)
        for (const std::string& callee : resolve_call(model, idx, reach, m.file, m.cls, c))
          if (callee != key) callees[key].insert(callee);
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (auto& [key, calls] : callees) {
        auto& acc = acquires[key];
        const std::size_t before = acc.size();
        for (const std::string& callee : calls) {
          const auto it = acquires.find(callee);
          if (it != acquires.end())
            acc.insert(it->second.begin(), it->second.end());
        }
        if (acc.size() != before) changed = true;
      }
    }

    // Observed edges, each with its first witness.
    std::map<std::pair<std::string, std::string>, EdgeWitness> observed;
    auto note_edge = [&](const std::string& from, const std::string& to,
                         const MethodModel& m, std::size_t line,
                         const std::string& via) {
      const auto key = std::make_pair(from, to);
      if (observed.count(key)) return;
      observed[key] = EdgeWitness{m.file, line, m.cls + "::" + m.name, via};
    };
    for (const MethodModel& m : model.methods) {
      for (const Acquisition& a : m.acquisitions) {
        const std::string to = resolve_lock(model, reach, m.file, m.cls, a.lock);
        if (to.empty()) continue;
        for (const LockRef& h : a.held) {
          const std::string from = resolve_lock(model, reach, m.file, m.cls, h);
          if (from.empty()) continue;
          if (from == to) {
            // Same canonical mutex: only this->this lexical nesting is a
            // provable recursive self-deadlock; nesting across two
            // instances of one class is indistinguishable from safe code.
            if (h.receiver == "this" && a.lock.receiver == "this")
              note_edge(from, to, m, a.line, "");
            continue;
          }
          note_edge(from, to, m, a.line, "");
        }
      }
      for (const Call& c : m.calls) {
        if (c.held.empty()) continue;
        for (const std::string& callee : resolve_call(model, idx, reach, m.file, m.cls, c)) {
          const auto it = acquires.find(callee);
          if (it == acquires.end()) continue;
          for (const std::string& to : it->second) {
            for (const LockRef& h : c.held) {
              const std::string from = resolve_lock(model, reach, m.file, m.cls, h);
              if (from.empty() || from == to) continue;
              note_edge(from, to, m, c.line, callee);
            }
          }
        }
      }
    }

    // Declared hierarchy edges.
    std::set<std::pair<std::string, std::string>> declared;
    std::map<std::pair<std::string, std::string>, ClassModel::DeclaredEdge>
        declared_at;
    for (const auto& [cname, cls] : model.classes) {
      for (const auto& e : cls.declared_edges) {
        const std::string before = resolve_declared(model, cname, e.before);
        const std::string after = resolve_declared(model, cname, e.after);
        if (before.empty() || after.empty()) {
          const std::string& bad = before.empty() ? e.before : e.after;
          if (!suppressed(*e.file, e.line))
            out.push_back(
                {e.file->path, e.line, name(),
                 "LOBSTER_ACQUIRED_BEFORE/AFTER names `" + bad +
                     "`, which does not resolve to a known mutex member "
                     "(spell cross-class mutexes `Cls::member`)"});
          continue;
        }
        declared.insert({before, after});
        declared_at[{before, after}] = e;
      }
    }

    // Recursive self-acquisition (from == to lexical nesting).
    for (const auto& [edge, w] : observed) {
      if (edge.first != edge.second) continue;
      if (suppressed(*w.file, w.line)) continue;
      out.push_back({w.file->path, w.line, name(),
                     "`" + edge.first +
                         "` is acquired while already held in " + w.method +
                         " — recursive self-deadlock"});
    }

    // Cycle detection over observed + declared edges (a declared A->B with
    // an observed B->A is exactly the contradiction we want loud).
    std::map<std::string, std::set<std::string>> adj;
    for (const auto& [edge, w] : observed) {
      (void)w;
      if (edge.first != edge.second) adj[edge.first].insert(edge.second);
    }
    for (const auto& edge : declared) adj[edge.first].insert(edge.second);
    for (const std::vector<std::string>& cycle : find_cycles(adj)) {
      // Locate the finding at the first observed edge of the cycle;
      // contradictions between two declarations land on a declaration.
      const SourceFile* file = nullptr;
      std::size_t line = 0;
      std::string via;
      for (std::size_t i = 0; i < cycle.size() && !file; ++i) {
        const auto e = std::make_pair(cycle[i], cycle[(i + 1) % cycle.size()]);
        const auto it = observed.find(e);
        if (it != observed.end()) {
          file = it->second.file;
          line = it->second.line;
          via = it->second.method;
          continue;
        }
        const auto dit = declared_at.find(e);
        if (dit != declared_at.end()) {
          file = dit->second.file;
          line = dit->second.line;
          via = "the declared hierarchy";
        }
      }
      if (!file) continue;
      if (suppressed(*file, line)) continue;
      std::string chain;
      for (const std::string& n : cycle) chain += "`" + n + "` -> ";
      chain += "`" + cycle.front() + "`";
      out.push_back({file->path, line, name(),
                     "lock-order cycle " + chain + " (witnessed in " + via +
                         ") — two threads taking these paths in opposite "
                         "order deadlock"});
    }

    // Undeclared cross-class edges.
    for (const auto& [edge, w] : observed) {
      if (edge.first == edge.second) continue;
      if (cls_of_id(edge.first) == cls_of_id(edge.second)) continue;
      if (declared.count(edge)) continue;
      if (suppressed(*w.file, w.line)) continue;
      std::string msg = "cross-class lock acquisition `" + edge.first +
                        "` -> `" + edge.second + "`";
      if (!w.via.empty()) msg += " (via call to " + w.via + ")";
      msg +=
          " is not in the declared hierarchy: add LOBSTER_ACQUIRED_BEFORE on "
          "`" +
          edge.first + "` (or ACQUIRED_AFTER on `" + edge.second +
          "`) and record it in DESIGN.md";
      out.push_back({w.file->path, w.line, name(), msg});
    }
  }

 private:
  bool suppressed(const SourceFile& f, std::size_t line_1based) const {
    const Suppression s = find_suppression(f, line_1based - 1, tag());
    return s.present && s.valid;
  }

  static std::string resolve_declared(const LockModel& model,
                                      const std::string& own_cls,
                                      const std::string& text) {
    std::string t = trim(text);
    const std::size_t colons = t.rfind("::");
    if (colons == std::string::npos) {
      const ClassModel* own = model.find_class(own_cls);
      if (own && own->mutexes.count(t)) return own_cls + "::" + t;
      return "";
    }
    const std::string member = t.substr(colons + 2);
    std::string rest = t.substr(0, colons);
    const std::size_t prev = rest.rfind("::");
    const std::string cls =
        prev == std::string::npos ? rest : rest.substr(prev + 2);
    const ClassModel* cm = model.find_class(cls);
    if (cm && cm->mutexes.count(member)) return cls + "::" + member;
    return "";
  }

  /// One representative cycle per non-trivial strongly connected component
  /// (Tarjan, iterative), walked from the SCC's smallest node.
  static std::vector<std::vector<std::string>> find_cycles(
      const std::map<std::string, std::set<std::string>>& adj) {
    std::map<std::string, int> index, low, comp;
    std::vector<std::string> stack;
    std::set<std::string> on_stack;
    int next_index = 0, next_comp = 0;
    struct Frame {
      std::string node;
      std::set<std::string>::const_iterator it, end;
    };
    static const std::set<std::string> kEmpty;
    for (const auto& [root, succ_unused] : adj) {
      (void)succ_unused;
      if (index.count(root)) continue;
      std::vector<Frame> frames;
      const auto push_node = [&](const std::string& n) {
        index[n] = low[n] = next_index++;
        stack.push_back(n);
        on_stack.insert(n);
        const auto ait = adj.find(n);
        const std::set<std::string>& succ =
            ait == adj.end() ? kEmpty : ait->second;
        frames.push_back(Frame{n, succ.begin(), succ.end()});
      };
      push_node(root);
      while (!frames.empty()) {
        Frame& f = frames.back();
        if (f.it != f.end) {
          const std::string next = *f.it++;
          if (!index.count(next)) {
            push_node(next);
          } else if (on_stack.count(next)) {
            low[f.node] = std::min(low[f.node], index[next]);
          }
        } else {
          const std::string done = f.node;
          frames.pop_back();
          if (!frames.empty())
            low[frames.back().node] =
                std::min(low[frames.back().node], low[done]);
          if (low[done] == index[done]) {
            while (true) {
              const std::string n = stack.back();
              stack.pop_back();
              on_stack.erase(n);
              comp[n] = next_comp;
              if (n == done) break;
            }
            ++next_comp;
          }
        }
      }
    }
    std::map<int, std::vector<std::string>> members;
    for (const auto& [n, c] : comp) members[c].push_back(n);
    std::vector<std::vector<std::string>> cycles;
    for (auto& [c, nodes] : members) {
      (void)c;
      if (nodes.size() < 2) continue;  // self-loops are reported separately
      std::sort(nodes.begin(), nodes.end());
      // Walk a cycle from the smallest node, staying inside the component.
      const std::set<std::string> in_comp(nodes.begin(), nodes.end());
      std::vector<std::string> path{nodes.front()};
      std::set<std::string> seen{nodes.front()};
      while (true) {
        const auto ait = adj.find(path.back());
        if (ait == adj.end()) break;
        std::string next;
        for (const std::string& s : ait->second) {
          if (!in_comp.count(s)) continue;
          if (s == nodes.front()) {
            next = s;
            break;
          }
          if (!seen.count(s) && next.empty()) next = s;
        }
        if (next.empty() || next == nodes.front()) break;
        path.push_back(next);
        seen.insert(next);
      }
      cycles.push_back(path);
    }
    return cycles;
  }
};

// ---------------------------------------------------------------------------
// Rule: guardeduse
// ---------------------------------------------------------------------------

class GuardedUseRule final : public Rule {
 public:
  const char* name() const override { return "guardeduse"; }
  const char* tag() const override { return "guardeduse"; }
  void check(const SourceFile&, const Corpus&,
             std::vector<Finding>&) const override {}

  void check_corpus(const Corpus& corpus,
                    std::vector<Finding>& out) const override {
    const LockModel model = build_lock_model(corpus);
    const Reach reach(corpus);
    for (const MethodModel& m : model.methods) {
      if (m.ctor_dtor) continue;  // no concurrent access before/after life
      const ClassModel* own = model.find_class(m.cls);
      std::set<std::pair<std::size_t, std::string>> reported;
      for (const Access& a : m.accesses) {
        std::string guard;
        if (a.receiver == "this") {
          if (!own) continue;
          const auto it = own->guarded_by.find(a.name);
          if (it == own->guarded_by.end()) continue;
          guard = it->second;
        } else {
          const ClassModel* c2 = nullptr;
          if (own) {
            const auto mit = own->member_class.find(first_segment(a.receiver));
            if (mit != own->member_class.end())
              c2 = model.find_class(mit->second);
          }
          if (!c2) {
            // Unique-owner fallback: exactly one modelled class visible
            // from this file guards a member of this name.
            for (const auto& [cname, cls] : model.classes) {
              (void)cname;
              if (!cls.guarded_by.count(a.name)) continue;
              if (!reach.reachable(m.file, cls.file)) continue;
              if (c2) {
                c2 = nullptr;
                break;
              }
              c2 = &cls;
            }
          }
          if (!c2) continue;
          const auto it = c2->guarded_by.find(a.name);
          if (it == c2->guarded_by.end()) continue;
          guard = it->second;
        }
        const LockRef needed{a.receiver, guard};
        bool held = false;
        for (const LockRef& h : a.held)
          if (h == needed) held = true;
        if (held) continue;
        if (!reported.insert({a.line, a.name}).second) continue;
        const Suppression s = find_suppression(*m.file, a.line - 1, tag());
        if (s.present && s.valid) continue;
        std::string held_txt;
        for (const LockRef& h : a.held) {
          if (!held_txt.empty()) held_txt += ", ";
          held_txt += (h.receiver == "this" ? "" : h.receiver + "->") + h.name;
        }
        out.push_back(
            {m.file->path, a.line, name(),
             "`" +
                 (a.receiver == "this" ? a.name : a.receiver + "->" + a.name) +
                 "` is LOBSTER_GUARDED_BY(" + guard + ") but " + m.cls +
                 "::" + m.name + " touches it with lexical lock-set {" +
                 held_txt +
                 "} — take the mutex (atomic loads and cv-wait predicates "
                 "included) or declare the contract with LOBSTER_REQUIRES"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: counterplane
// ---------------------------------------------------------------------------

class CounterPlaneRule final : public Rule {
 public:
  const char* name() const override { return "counterplane"; }
  const char* tag() const override { return "counterplane"; }
  void check(const SourceFile&, const Corpus&,
             std::vector<Finding>&) const override {}

  void check_corpus(const Corpus& corpus,
                    std::vector<Finding>& out) const override {
    std::vector<Site> sites;
    for (const SourceFile& f : corpus.files) collect_sites(f, sites);

    std::set<std::string> known;
    for (const Site& s : sites) known.insert(s.name);

    // Grammar: exactly layer.subsystem.metric, lower_snake segments.
    for (const Site& s : sites) {
      if (well_formed(s.name)) continue;
      if (suppressed(*s.file, s.line)) continue;
      out.push_back({s.file->path, s.line, name(),
                     "counter `" + s.name +
                         "` violates the `layer.subsystem.metric` grammar "
                         "(exactly three lower_snake segments)"});
    }

    // Exactly one registration site per counter; kinds must not conflict.
    std::map<std::string, std::vector<const Site*>> regs;
    for (const Site& s : sites)
      if (s.registration) regs[s.name].push_back(&s);
    for (auto& [cname, list] : regs) {
      std::sort(list.begin(), list.end(), [](const Site* a, const Site* b) {
        if (a->file->path != b->file->path)
          return a->file->path < b->file->path;
        return a->line < b->line;
      });
      for (std::size_t i = 1; i < list.size(); ++i) {
        const Site& s = *list[i];
        if (suppressed(*s.file, s.line)) continue;
        out.push_back({s.file->path, s.line, name(),
                       "counter `" + cname +
                           "` is registered more than once (first at " +
                           normalize_path(list[0]->file->path) + ":" +
                           std::to_string(list[0]->line) +
                           ") — one registration site per counter"});
      }
      for (std::size_t i = 1; i < list.size(); ++i) {
        if (list[i]->gauge == list[0]->gauge) continue;
        const Site& s = *list[i];
        if (suppressed(*s.file, s.line)) continue;
        out.push_back({s.file->path, s.line, name(),
                       "`" + cname +
                           "` is registered both as a counter and as a "
                           "gauge — pick one kind"});
        break;
      }
    }

    // Doc cross-check: backticked counter names must exist in code.
    for (const DocFile& doc : corpus.docs) {
      for (std::size_t i = 0; i < doc.raw.size(); ++i) {
        for (const std::string& tok : backticked_tokens(doc.raw[i])) {
          for (const std::string& cname : expand_braces(tok)) {
            if (!well_formed(cname)) continue;
            if (cname == "layer.subsystem.metric") continue;  // the grammar
            if (known.count(cname)) continue;
            out.push_back({doc.path, i + 1, name(),
                           "doc references counter `" + cname +
                               "`, which is registered nowhere in the "
                               "scanned tree"});
          }
        }
      }
    }
  }

 private:
  struct Site {
    const SourceFile* file = nullptr;
    std::size_t line = 0;  ///< 1-based
    std::string name;
    bool gauge = false;
    /// `counter("x")` registers; `counter("x", v)` samples an existing one.
    bool registration = false;
  };

  bool suppressed(const SourceFile& f, std::size_t line_1based) const {
    const Suppression s = find_suppression(f, line_1based - 1, tag());
    return s.present && s.valid;
  }

  /// `registry.counter("cvmfs.squid.requests")` registrations and
  /// `tracer().counter("lobsim.engine.running_tasks", n)` samples; the code
  /// line gates on the blanked-string shape, the literal text comes from
  /// the raw line at the same columns.
  static void collect_sites(const SourceFile& f, std::vector<Site>& sites) {
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& line = f.code[i];
      for (const char* tok : {"counter", "gauge"}) {
        const std::string token(tok);
        std::size_t pos = 0;
        while ((pos = line.find(token, pos)) != std::string::npos) {
          const std::size_t start = pos;
          const std::size_t end = pos + token.size();
          pos = end;
          if (start > 0 && is_identifier_char(line[start - 1])) continue;
          if (end < line.size() && is_identifier_char(line[end])) continue;
          std::size_t j = end;
          while (j < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[j])))
            ++j;
          if (j >= line.size() || line[j] != '(') continue;
          ++j;
          while (j < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[j])))
            ++j;
          if (j >= line.size() || line[j] != '"') continue;
          const std::size_t close = line.find('"', j + 1);
          if (close == std::string::npos) continue;
          Site s;
          s.file = &f;
          s.line = i + 1;
          s.name = f.raw[i].substr(j + 1, close - j - 1);
          s.gauge = token == "gauge";
          std::size_t k = close + 1;
          while (k < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[k])))
            ++k;
          s.registration = k < line.size() && line[k] == ')';
          sites.push_back(s);
        }
      }
    }
  }

  static bool well_formed(const std::string& name) {
    std::vector<std::string> segs;
    std::string cur;
    for (char c : name) {
      if (c == '.') {
        segs.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    segs.push_back(cur);
    if (segs.size() != 3) return false;
    for (const std::string& s : segs) {
      if (s.empty() || !std::islower(static_cast<unsigned char>(s[0])))
        return false;
      for (char c : s)
        if (!std::islower(static_cast<unsigned char>(c)) &&
            !std::isdigit(static_cast<unsigned char>(c)) && c != '_')
          return false;
    }
    return true;
  }

  /// Backticked tokens made of counter-name characters (dots mandatory);
  /// `lobsim.steal.{attempts,tasks}` comes back verbatim for expand_braces.
  static std::vector<std::string> backticked_tokens(const std::string& line) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while ((pos = line.find('`', pos)) != std::string::npos) {
      const std::size_t close = line.find('`', pos + 1);
      if (close == std::string::npos) break;
      const std::string tok = line.substr(pos + 1, close - pos - 1);
      pos = close + 1;
      if (tok.find('.') == std::string::npos) continue;
      bool ok = !tok.empty();
      for (char c : tok)
        if (!std::islower(static_cast<unsigned char>(c)) &&
            !std::isdigit(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '{' && c != '}' && c != ',')
          ok = false;
      if (ok) out.push_back(tok);
    }
    return out;
  }

  /// `lobsim.steal.{attempts,tasks}` -> lobsim.steal.attempts,
  /// lobsim.steal.tasks.
  static std::vector<std::string> expand_braces(const std::string& tok) {
    const std::size_t open = tok.find('{');
    if (open == std::string::npos) return {tok};
    const std::size_t close = tok.find('}', open);
    if (close == std::string::npos) return {tok};
    const std::string prefix = tok.substr(0, open);
    const std::string suffix = tok.substr(close + 1);
    std::vector<std::string> out;
    std::string alt;
    for (std::size_t i = open + 1; i <= close; ++i) {
      if (i == close || tok[i] == ',') {
        out.push_back(prefix + alt + suffix);
        alt.clear();
      } else {
        alt.push_back(tok[i]);
      }
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<Rule> make_lockorder_rule() {
  return std::make_unique<LockOrderRule>();
}
std::unique_ptr<Rule> make_guardeduse_rule() {
  return std::make_unique<GuardedUseRule>();
}
std::unique_ptr<Rule> make_counterplane_rule() {
  return std::make_unique<CounterPlaneRule>();
}

}  // namespace lobster::lint
