// lockmodel.hpp — the corpus-wide lock model behind the lockorder and
// guardeduse rules.
//
// Pass A walks every file's brace structure and records, per class: mutex
// members, LOBSTER_GUARDED_BY members, member->class types (for receiver
// resolution), LOBSTER_ACQUIRED_BEFORE/AFTER hierarchy declarations and
// LOBSTER_REQUIRES method contracts.  Pass B re-scans every method body
// (in-class definitions and out-of-class `Cls::name(...)` definitions
// alike) with a lexical lock-set tracker: RAII acquisitions
// (scoped_lock/lock_guard/unique_lock/shared_lock) are pushed onto the
// enclosing lexical scope and popped when it closes, and every statement is
// scanned for calls and for reads/writes of guarded members, each tagged
// with the lock-set held at that point.  Lambda bodies (condition-variable
// wait predicates in particular) are nested scopes of the enclosing
// function, so predicate reads carry the caller's lock-set.
//
// Known, deliberate approximations (all conservative-permissive — they can
// hide a finding, never invent one):
//   * manual guard.unlock()/lock() cycles are ignored: the lock counts as
//     held for its whole lexical scope;
//   * std::try_to_lock / std::adopt_lock acquisitions count as held (the
//     surrounding code re-locks on failure in every tree use);
//   * a std::defer_lock declaration acquires nothing.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "lint/lint.hpp"

namespace lobster::lint {

/// A mutex reference as it appears lexically: the receiver chain ("this"
/// for bare members, with leading `this->` / `self->` stripped) plus the
/// member name.  `state->m` has receiver "state"; `mutex_` has "this".
struct LockRef {
  std::string receiver;
  std::string name;

  friend bool operator<(const LockRef& a, const LockRef& b) {
    return std::tie(a.receiver, a.name) < std::tie(b.receiver, b.name);
  }
  friend bool operator==(const LockRef& a, const LockRef& b) {
    return a.receiver == b.receiver && a.name == b.name;
  }
};

/// One RAII lock acquisition; `held` is the lock-set before this statement
/// (simultaneous multi-mutex scoped_lock arguments do not appear in each
/// other's held sets — std::scoped_lock is deadlock-free by design).
struct Acquisition {
  std::size_t line = 0;  ///< 1-based
  LockRef lock;
  std::vector<LockRef> held;
};

struct Call {
  std::size_t line = 0;
  std::string receiver;  ///< "" for bare calls
  std::string name;
  std::vector<LockRef> held;
};

/// A read or write of a member in the guarded-member universe.
struct Access {
  std::size_t line = 0;
  std::string receiver;  ///< "this" for bare members
  std::string name;
  std::vector<LockRef> held;
};

struct MethodModel {
  std::string cls;   ///< owning class (simple name)
  std::string name;  ///< method name; == cls for constructors
  const SourceFile* file = nullptr;
  std::size_t line = 0;  ///< 1-based line of the body's opening brace
  bool ctor_dtor = false;
  std::vector<LockRef> entry_locks;  ///< from LOBSTER_REQUIRES
  std::vector<Acquisition> acquisitions;
  std::vector<Call> calls;
  std::vector<Access> accesses;
};

struct ClassModel {
  std::string name;
  const SourceFile* file = nullptr;
  std::size_t line = 0;
  std::set<std::string> mutexes;  ///< std::mutex/shared_mutex/... members
  /// member -> guarding mutex (LOBSTER_GUARDED_BY argument, normalized).
  std::map<std::string, std::string> guarded_by;
  /// member -> simple class name of its declared type (e.g. Channel); only
  /// consulted when the name resolves to a modelled class.
  std::map<std::string, std::string> member_class;
  /// method name -> entry locks from LOBSTER_REQUIRES on the declaration.
  std::map<std::string, std::vector<LockRef>> method_requires;

  /// LOBSTER_ACQUIRED_BEFORE/AFTER declarations, as written: `before` and
  /// `after` are the macro/member spellings (possibly `ns::Cls::member`
  /// qualified); the lockorder rule resolves them to canonical ids.
  struct DeclaredEdge {
    std::string before;
    std::string after;
    const SourceFile* file = nullptr;
    std::size_t line = 0;
  };
  std::vector<DeclaredEdge> declared_edges;
};

struct LockModel {
  std::map<std::string, ClassModel> classes;
  std::vector<MethodModel> methods;
  /// Union of every class's guarded member names (the access filter).
  std::set<std::string> guarded_names;

  const ClassModel* find_class(const std::string& name) const {
    const auto it = classes.find(name);
    return it == classes.end() ? nullptr : &it->second;
  }
};

LockModel build_lock_model(const Corpus& corpus);

/// Parse "state->m" / "this->mutex_" / "mutex_" into a LockRef; false when
/// the text is not a member reference (qualified names, literals, tags).
bool parse_lock_ref(const std::string& text, LockRef& out);

}  // namespace lobster::lint
