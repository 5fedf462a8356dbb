#include "common/annotated_sync.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace uhscm {
namespace lockorder {
namespace {

struct Edge {
  // Sites of the first occurrence of this acquired-before pair: where
  // `from` was held and where `to` was then acquired.
  AcquireSite from_site;
  AcquireSite to_site;
};

// Process-wide checker state. Allocated once and never destroyed so
// mutexes held inside static destructors stay checkable.
struct Global {
  std::mutex mu;  // plain std::mutex: the checker must not recurse
  std::unordered_map<std::string, LockClass*> classes;
  uint32_t next_id = 0;
  // Acquired-before graph over lock-class ids: adjacency for the cycle
  // walk, edge map for the violation report's sites.
  std::unordered_map<uint32_t, std::vector<uint32_t>> succ;
  std::unordered_map<uint64_t, Edge> edges;
};

Global& global() {
  static Global* g = new Global();
  return *g;
}

std::atomic<int> g_violations{0};
std::atomic<bool> g_abort{true};

struct Held {
  const LockClass* cls;
  const void* instance;
  AcquireSite site;
};

struct ThreadState {
  std::vector<Held> held;
  // Acquired-before pairs this thread has already pushed through the
  // global graph; keeps the hot path off `Global::mu` after the first
  // occurrence of each nesting.
  std::unordered_set<uint64_t> validated;
};

ThreadState& tls() {
  thread_local ThreadState state;
  return state;
}

uint64_t EdgeKey(uint32_t from, uint32_t to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

void ReportViolation(const std::string& text) {
  std::fprintf(stderr, "%s", text.c_str());
  std::fflush(stderr);
  g_violations.fetch_add(1, std::memory_order_relaxed);
  if (g_abort.load(std::memory_order_relaxed)) std::abort();
}

std::string SiteStr(const AcquireSite& site) {
  std::string out = site.file_name();
  out += ":";
  out += std::to_string(site.line());
  return out;
}

// Finds a path from -> ... -> to in the acquired-before graph (iterative
// DFS with parent tracking). Caller holds Global::mu.
bool FindPath(const Global& g, uint32_t from, uint32_t to,
              std::vector<uint32_t>* path) {
  std::unordered_map<uint32_t, uint32_t> parent;
  std::vector<uint32_t> stack{from};
  parent[from] = from;
  while (!stack.empty()) {
    const uint32_t node = stack.back();
    stack.pop_back();
    if (node == to) {
      for (uint32_t n = to; n != from; n = parent[n]) path->push_back(n);
      path->push_back(from);
      std::reverse(path->begin(), path->end());
      return true;
    }
    auto it = g.succ.find(node);
    if (it == g.succ.end()) continue;
    for (uint32_t next : it->second) {
      if (parent.emplace(next, node).second) stack.push_back(next);
    }
  }
  return false;
}

}  // namespace

struct LockClass {
  std::string name;
  int rank = 0;
  unsigned flags = 0;
  uint32_t id = 0;
};

const LockClass* RegisterLockClass(const char* name, int rank,
                                   unsigned flags) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  auto it = g.classes.find(name);
  if (it != g.classes.end()) {
    const LockClass* cls = it->second;
    if (cls->rank != rank || cls->flags != flags) {
      // A rank-table typo, not a runtime condition: always fatal.
      std::fprintf(stderr,
                   "uhscm lock-order: lock class \"%s\" re-registered with "
                   "rank %d flags %#x (already rank %d flags %#x)\n",
                   name, rank, flags, cls->rank, cls->flags);
      std::fflush(stderr);
      std::abort();
    }
    return cls;
  }
  auto* cls = new LockClass{name, rank, flags, g.next_id++};
  g.classes.emplace(cls->name, cls);
  return cls;
}

void OnAcquire(const LockClass* cls, const void* instance,
               const AcquireSite& site) {
  ThreadState& state = tls();
  if (!state.held.empty()) {
    for (const Held& h : state.held) {
      if (h.cls == cls) {
        if ((cls->flags & kOrderedInstances) == 0) {
          ReportViolation(
              "uhscm lock-order violation: recursive/same-class acquisition "
              "of \"" + cls->name + "\" at " + SiteStr(site) +
              " while held since " + SiteStr(h.site) +
              " (class not registered with kOrderedInstances)\n");
        }
        continue;  // same class: no rank check, no self-edge
      }
      // Eager rank check: a lower- or equal-ranked lock may not be held
      // when acquiring this one.
      if (cls->rank > 0 && h.cls->rank > 0 && cls->rank >= h.cls->rank) {
        ReportViolation(
            "uhscm lock-order violation: rank inversion acquiring \"" +
            cls->name + "\" (rank " + std::to_string(cls->rank) + ") at " +
            SiteStr(site) + " while holding \"" + h.cls->name + "\" (rank " +
            std::to_string(h.cls->rank) + ", acquired at " + SiteStr(h.site) +
            ")\n");
      }
      // Acquired-before edge h -> cls; first occurrence runs the cycle
      // walk, later ones hit the thread-local cache.
      const uint64_t key = EdgeKey(h.cls->id, cls->id);
      if (state.validated.insert(key).second) {
        Global& g = global();
        std::lock_guard<std::mutex> lock(g.mu);
        if (g.edges.find(key) == g.edges.end()) {
          std::vector<uint32_t> path;
          if (FindPath(g, cls->id, h.cls->id, &path)) {
            std::string text =
                "uhscm lock-order violation: acquiring \"" + cls->name +
                "\" at " + SiteStr(site) + " while holding \"" + h.cls->name +
                "\" (acquired at " + SiteStr(h.site) +
                ") closes an acquired-before cycle:\n";
            for (size_t i = 0; i + 1 < path.size(); ++i) {
              const auto eit = g.edges.find(EdgeKey(path[i], path[i + 1]));
              if (eit == g.edges.end()) continue;
              const LockClass* from = nullptr;
              const LockClass* to = nullptr;
              for (const auto& [unused_name, c] : g.classes) {
                if (c->id == path[i]) from = c;
                if (c->id == path[i + 1]) to = c;
              }
              text += "  \"" + (from ? from->name : "?") + "\" (held at " +
                      SiteStr(eit->second.from_site) + ") -> \"" +
                      (to ? to->name : "?") + "\" (acquired at " +
                      SiteStr(eit->second.to_site) + ")\n";
            }
            ReportViolation(text);
          }
          g.edges.emplace(key, Edge{h.site, site});
          g.succ[h.cls->id].push_back(cls->id);
        }
      }
    }
  }
  state.held.push_back(Held{cls, instance, site});
}

void OnRelease(const LockClass* cls, const void* instance) {
  (void)cls;
  std::vector<Held>& held = tls().held;
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->instance == instance) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

int ViolationCount() { return g_violations.load(std::memory_order_relaxed); }

void SetAbortOnViolation(bool abort_on_violation) {
  g_abort.store(abort_on_violation, std::memory_order_relaxed);
}

}  // namespace lockorder
}  // namespace uhscm
