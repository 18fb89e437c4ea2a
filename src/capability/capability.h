// Copyright 2026 The Tyche Reproduction Authors.
// One node of the capability lineage tree.

#ifndef SRC_CAPABILITY_CAPABILITY_H_
#define SRC_CAPABILITY_CAPABILITY_H_

#include <string>
#include <vector>

#include "src/capability/types.h"

namespace tyche {

// Why a node exists in the lineage tree.
enum class CapOrigin : uint8_t {
  kMint,       // created at boot by the monitor
  kShare,      // duplicated from parent (parent stays active)
  kGrant,      // moved from parent (parent deactivated)
  kRemainder,  // leftover piece returned to the grantor after a partial grant
  kRestore,    // ownership returned to the grantor after revoking a grant
};

// The current life-cycle state. A revoked node is reclaimed before Revoke
// returns (the audit journal keeps the history), so a live engine only holds
// active and donated nodes; kRevoked keeps its encoding so snapshot bytes
// stay stable and the index check can flag a node that escaped reclamation.
enum class CapState : uint8_t {
  kActive,
  kRevoked,   // explicitly revoked; never stored by a live engine
  kDonated,   // was the source of a Grant; superseded by its children
};

struct Capability {
  CapId id = kInvalidCap;
  CapDomainId owner = 0;
  ResourceKind kind = ResourceKind::kMemory;

  // Resource payload. For kMemory, `range` is the physical range; for the
  // other kinds, `unit` identifies the core / device (BDF) / domain.
  AddrRange range;
  uint64_t unit = 0;

  Perms perms;                  // memory access permissions (kMemory only)
  CapRights rights;             // operational rights
  RevocationPolicy revocation;  // cleanup to run when this cap is revoked

  CapState state = CapState::kActive;
  CapOrigin origin = CapOrigin::kMint;

  CapId parent = kInvalidCap;
  std::vector<CapId> children;

  bool active() const { return state == CapState::kActive; }

  std::string ToString() const;
};

}  // namespace tyche

#endif  // SRC_CAPABILITY_CAPABILITY_H_
