// Copyright 2026 The Tyche Reproduction Authors.
// Human-readable capability and lineage dumps for test failure messages.
// Test-side only: the monitor never formats capabilities, so this text
// stays out of its trusted code.

#ifndef TESTS_TESTING_CAP_DUMP_H_
#define TESTS_TESTING_CAP_DUMP_H_

#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "src/capability/engine.h"

namespace tyche {

// One line: id, owner, kind, range and perms (memory) or unit, and state.
inline std::string CapToString(const Capability& cap) {
  std::ostringstream out;
  out << "cap#" << cap.id << " owner=" << cap.owner << " " << ResourceKindName(cap.kind);
  if (cap.kind == ResourceKind::kMemory) {
    out << " [0x" << std::hex << cap.range.base << ",0x" << cap.range.end() << std::dec
        << ") " << cap.perms.ToString();
  } else {
    out << " unit=" << cap.unit;
  }
  switch (cap.state) {
    case CapState::kActive:
      out << " active";
      break;
    case CapState::kRevoked:
      out << " revoked";
      break;
    case CapState::kDonated:
      out << " donated";
      break;
  }
  return out.str();
}

// Every lineage tree, one CapToString line per node, children indented two
// spaces under their parent.
inline std::string DumpTree(const CapabilityEngine& engine) {
  std::map<CapId, Capability> caps;
  engine.ForEach([&caps](const Capability& cap) { caps.emplace(cap.id, cap); });
  std::ostringstream out;
  std::function<void(CapId, int)> recurse = [&](CapId id, int depth) {
    const auto it = caps.find(id);
    if (it == caps.end()) {
      return;
    }
    out << std::string(2 * static_cast<size_t>(depth), ' ') << CapToString(it->second) << "\n";
    for (const CapId child : it->second.children) {
      recurse(child, depth + 1);
    }
  };
  for (const auto& [id, cap] : caps) {
    if (cap.parent == kInvalidCap) {
      recurse(id, 0);
    }
  }
  return out.str();
}

}  // namespace tyche

#endif  // TESTS_TESTING_CAP_DUMP_H_
