// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/monitor.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/authenticated.h"
#include "src/monitor/pmp_backend.h"
#include "src/monitor/vtx_backend.h"
#include "src/support/locking.h"
#include "src/support/log.h"

namespace tyche {

namespace {

// A domain's active capabilities in the canonical order its measurement and
// its attestation report list them: by kind, range, then unit.
std::vector<const Capability*> CanonicalCaps(const CapabilityEngine& engine, DomainId domain) {
  std::vector<const Capability*> caps = engine.DomainCaps(domain);
  std::sort(caps.begin(), caps.end(), [](const Capability* a, const Capability* b) {
    return std::tuple(a->kind, a->range.base, a->range.size, a->unit) <
           std::tuple(b->kind, b->range.base, b->range.size, b->unit);
  });
  return caps;
}

// The id of the capability a share or grant created.
Result<CapId> Granted(const Result<DelegationOutcome>& outcome) {
  if (!outcome.ok()) {
    return outcome.status();
  }
  return outcome->granted;
}

}  // namespace

const char* ApiOpName(ApiOp op) {
  switch (op) {
    case ApiOp::kCreateDomain:
      return "create_domain";
    case ApiOp::kSetEntryPoint:
      return "set_entry_point";
    case ApiOp::kShareMemory:
      return "share_memory";
    case ApiOp::kGrantMemory:
      return "grant_memory";
    case ApiOp::kShareUnit:
      return "share_unit";
    case ApiOp::kGrantUnit:
      return "grant_unit";
    case ApiOp::kRevoke:
      return "revoke";
    case ApiOp::kExtendMeasurement:
      return "extend_measurement";
    case ApiOp::kSeal:
      return "seal";
    case ApiOp::kAttestDomain:
      return "attest_domain";
    case ApiOp::kEnumerate:
      return "enumerate";
    case ApiOp::kTransition:
      return "transition";
    case ApiOp::kReturn:
      return "return";
    case ApiOp::kRegisterFastTransition:
      return "register_fast_transition";
    case ApiOp::kFastTransition:
      return "fast_transition";
    case ApiOp::kDestroyDomain:
      return "destroy_domain";
    case ApiOp::kRouteInterrupt:
      return "route_interrupt";
    case ApiOp::kTakeInterrupt:
      return "take_interrupt";
    case ApiOp::kSetTransitionPolicy:
      return "set_transition_policy";
    case ApiOp::kSealData:
      return "seal_data";
    case ApiOp::kUnsealData:
      return "unseal_data";
    case ApiOp::kOpCount:
      break;
  }
  return "?";
}

Monitor::Monitor(Machine* machine, AddrRange monitor_range, FrameAllocator metadata_pool,
                 SchnorrKeyPair key)
    : machine_(machine),
      monitor_range_(monitor_range),
      metadata_pool_(metadata_pool),
      key_(key) {
  if (machine_->arch() == IsaArch::kX86_64) {
    backend_ = std::make_unique<VtxBackend>(machine_, &engine_, &metadata_pool_);
  } else {
    backend_ = std::make_unique<PmpBackend>(machine_, &engine_, monitor_range_);
  }
  watchdog_.set_backend(backend_.get());
  call_stacks_.resize(machine_->num_cores());
  active_spans_.resize(machine_->num_cores(), 0);

  // The journal's ticks come from the simulated cycle account; checkpoints
  // are signed under the monitor's attestation key, binding the history to
  // the same identity as domain attestations.
  audit_.journal().set_tick_source([this] { return machine_->cycles().cycles(); });
  audit_.journal().set_signer(
      [this](const Digest& digest) { return SchnorrSign(key_, digest); });

  // Sealing root: bound to the monitor's (measurement-derived) identity key,
  // so blobs only open under the same monitor image.
  uint8_t key_bytes[8];
  std::memcpy(key_bytes, &key_.priv.x, sizeof(key_bytes));
  const std::string_view label = "tyche-sealing-root-v1";
  sealing_root_ = HmacSha256(
      std::span<const uint8_t>(key_bytes, sizeof(key_bytes)),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(label.data()),
                               label.size()));
}

MonitorStats Monitor::stats() const {
  // Quiesce dispatchers: backend stats and the domain table are plain
  // fields that must not be mid-mutation.
  ConditionalUniqueLock api(api_mu_, concurrent_dispatch(), nullptr);
  MonitorStats stats;
  for (size_t op = 0; op < static_cast<size_t>(ApiOp::kOpCount); ++op) {
    stats.api_calls[op] = counters_[kStatApiCalls + op].Value();
  }
  stats.transitions = counters_[kStatTransitions].Value();
  stats.fast_transitions = counters_[kStatFastTransitions].Value();
  stats.revocations_cascaded = counters_[kStatRevocationsCascaded].Value();
  stats.recoveries = counters_[kStatRecoveries].Value();
  stats.shares = counters_[kStatShares].Value();
  stats.grants = counters_[kStatGrants].Value();
  stats.revokes = counters_[kStatRevokes].Value();
  for (size_t kind = 0; kind < MonitorStats::kEffectKinds; ++kind) {
    stats.effects_by_kind[kind] = counters_[kStatEffects + kind].Value();
  }

  stats.backend_name = backend_->name();
  stats.backend = backend_->stats();
  stats.backend_failsafe_active = backend_->failsafe_active();
  const Journal& journal = audit_.journal();
  stats.journal_records = journal.size();
  stats.journal_checkpoints = journal.checkpoint_count();
  stats.journal_commits = journal.group_commit_stats();
  stats.journal_commit_waits = journal.commit_wait_stats();
  stats.trace_recorded = telemetry_.ring().recorded();
  stats.trace_dropped = telemetry_.ring().dropped();
  stats.lock_contention_exclusive = telemetry_.exclusive_contention_count();
  stats.lock_contention_shared = telemetry_.shared_contention_count();
  stats.lock_wait_ns_exclusive = telemetry_.exclusive_wait_ns_total();
  stats.lock_wait_ns_shared = telemetry_.shared_wait_ns_total();
  stats.lock_wait_ns_shard = telemetry_.shard_wait_ns_total();
  stats.domains_alive = num_domains_alive();
  stats.caps_active = engine_.active_caps();
  stats.caps_donated = engine_.total_caps() - engine_.active_caps();
  stats.flight_captures = flight_.captures();
  stats.profiler_samples = profiler_.TotalSamples();
  stats.watchdog_chain_healthy = watchdog_.chain_healthy();
  stats.watchdog_index_healthy = watchdog_.index_healthy();
  stats.watchdog_backend_healthy = watchdog_.backend_healthy();
  stats.watchdog_checks = watchdog_.checks();
  stats.watchdog_violations = watchdog_.violations();
  return stats;
}

uint64_t Monitor::TrapCost() const {
  const CostModel& cost = CostModel::Default();
  return machine_->arch() == IsaArch::kX86_64 ? cost.vmcall_round_trip
                                              : cost.smc_round_trip;
}

Status Monitor::ChargeCall(ApiOp op) {
  machine_->cycles().Charge(TrapCost());
  Count(kStatApiCalls + static_cast<size_t>(op));
  return OkStatus();
}

Status Monitor::EnableConcurrentDispatch() {
  if (snapshots_bound_) {
    // The snapshot provider runs under the journal lock and reads monitor
    // state; a concurrent dispatcher holding monitor locks while appending
    // would invert that order. Pick one: snapshots or concurrency.
    return Error(ErrorCode::kFailedPrecondition,
                 "concurrent dispatch is incompatible with bound snapshots");
  }
  if (migration_in_progress()) {
    // MigrateDomain() reads and mutates monitor state without the dispatch
    // locks (it runs serial-only by contract); flipping to concurrent mode
    // under it would race the staged commit.
    return Error(ErrorCode::kFailedPrecondition,
                 "concurrent dispatch cannot start during a live migration");
  }
  concurrent_.store(true, std::memory_order_relaxed);
  return OkStatus();
}

void Monitor::DisableConcurrentDispatch() {
  concurrent_.store(false, std::memory_order_relaxed);
}

uint64_t Monitor::BeginSpan(CoreId core) {
  const uint64_t span = next_span_.fetch_add(1, std::memory_order_relaxed);
  if (core < active_spans_.size()) {
    active_spans_[core] = span;
  }
  return span;
}

void Monitor::EndSpan(CoreId core) {
  if (core < active_spans_.size()) {
    active_spans_[core] = 0;
  }
}

uint64_t Monitor::SpanForCore(CoreId core) {
  if (core < active_spans_.size() && active_spans_[core] != 0) {
    return active_spans_[core];
  }
  return next_span_.fetch_add(1, std::memory_order_relaxed);
}

Result<DomainId> Monitor::Caller(CoreId core) const {
  if (core >= machine_->num_cores()) {
    return Error(ErrorCode::kOutOfRange, "bad core id");
  }
  const DomainId domain = machine_->cpu(core).current_domain();
  if (domain == kInvalidDomain || !domains_.contains(domain)) {
    return Error(ErrorCode::kFailedPrecondition, "no domain running on core");
  }
  if (domain_frozen(domain)) {
    return Error(ErrorCode::kMigrating, "caller is frozen by a live migration");
  }
  return domain;
}

Result<DomainId> Monitor::ResolveHandle(DomainId caller, CapId handle,
                                        bool require_manage) const {
  TYCHE_ASSIGN_OR_RETURN(const Capability* cap, engine_.Get(handle));
  if (!cap->active()) {
    return Error(ErrorCode::kCapabilityRevoked, "domain handle revoked");
  }
  if (cap->owner != caller) {
    return Error(ErrorCode::kCapabilityNotOwned, "domain handle not owned by caller");
  }
  if (cap->kind != ResourceKind::kDomain) {
    return Error(ErrorCode::kInvalidArgument, "capability is not a domain handle");
  }
  if (require_manage && !cap->rights.CanManage()) {
    return Error(ErrorCode::kCapabilityRightsViolation, "handle lacks manage right");
  }
  const DomainId target = static_cast<DomainId>(cap->unit);
  const auto it = domains_.find(target);
  if (it == domains_.end() || !it->second.alive()) {
    return Error(ErrorCode::kDomainDead, "target domain not alive");
  }
  if (domain_frozen(target)) {
    return Error(ErrorCode::kMigrating, "target is frozen by a live migration");
  }
  return target;
}

Result<TrustDomain*> Monitor::GetDomainMutable(DomainId id) {
  const auto it = domains_.find(id);
  if (it == domains_.end()) {
    return Error(ErrorCode::kNotFound, "no such domain");
  }
  return &it->second;
}

Result<const TrustDomain*> Monitor::GetDomain(DomainId id) const {
  const auto it = domains_.find(id);
  if (it == domains_.end()) {
    return Error(ErrorCode::kNotFound, "no such domain");
  }
  return &it->second;
}

DomainId Monitor::CurrentDomain(CoreId core) const {
  return machine_->cpu(core).current_domain();
}

uint64_t Monitor::num_domains_alive() const {
  uint64_t count = 0;
  for (const auto& [id, domain] : domains_) {
    if (domain.alive()) {
      ++count;
    }
  }
  return count;
}

Result<DomainId> Monitor::InstallInitialDomain(const std::string& name) {
  if (next_domain_ != 0) {
    return Error(ErrorCode::kFailedPrecondition, "initial domain already installed");
  }
  const DomainId id = next_domain_++;
  TrustDomain& domain = domains_[id];
  domain.id = id;
  domain.creator = kInvalidDomain;
  domain.name = name;
  domain.asid = next_asid_++;
  domain.entry_point = 0;
  domain.entry_point_set = true;

  const uint64_t span = next_span_.fetch_add(1, std::memory_order_relaxed);
  engine_.RegisterDomain(id, CapabilityEngine::kNoCreator);
  audit_.RegisterDomain(span, id, kJournalNoDomain);
  TYCHE_RETURN_IF_ERROR(backend_->CreateDomainContext(id, domain.asid));

  // Endow the initial domain with everything outside the monitor. The boot
  // effects are a pure function of the mint records (each minted range
  // mapped RWX, each minted device attached), so no record carries them.
  const AddrRange rest{monitor_range_.end(),
                       machine_->memory().size() - monitor_range_.end()};
  CapEffects effects;
  TYCHE_ASSIGN_OR_RETURN(
      const CapId mem_cap,
      engine_.MintMemory(id, rest, Perms(Perms::kRWX), CapRights(CapRights::kAll)));
  audit_.MintMemory(span, id, mem_cap, rest, Perms(Perms::kRWX), CapRights(CapRights::kAll));
  effects.Add(CapEffect{CapEffect::Kind::kMapMemory, id, ResourceKind::kMemory, rest, 0,
                        Perms(Perms::kRWX)});
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    TYCHE_ASSIGN_OR_RETURN(
        const CapId core_cap,
        engine_.MintUnit(id, ResourceKind::kCpuCore, core, CapRights(CapRights::kAll)));
    audit_.MintUnit(span, id, core_cap, ResourceKind::kCpuCore, core,
                    CapRights(CapRights::kAll));
  }
  for (const auto& device : machine_->devices()) {
    TYCHE_ASSIGN_OR_RETURN(const CapId dev_cap,
                           engine_.MintUnit(id, ResourceKind::kPciDevice,
                                            device->bdf().value, CapRights(CapRights::kAll)));
    audit_.MintUnit(span, id, dev_cap, ResourceKind::kPciDevice, device->bdf().value,
                    CapRights(CapRights::kAll));
    effects.Add(CapEffect{CapEffect::Kind::kAttachUnit, id, ResourceKind::kPciDevice,
                          AddrRange{}, device->bdf().value, Perms{}});
  }
  TYCHE_RETURN_IF_ERROR(ApplyEffects(effects));

  // Put the initial domain on every core.
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    machine_->cpu(core).set_current_domain(id);
    machine_->cpu(core).set_mode(PrivilegeMode::kSupervisor);
    TYCHE_RETURN_IF_ERROR(backend_->BindCore(id, core));
  }
  return id;
}

Status Monitor::ApplyEffects(const CapEffects& effects) {
  // Best-effort over the WHOLE list: revocation cleanups are guaranteed
  // (§3.2), so one failing projection (e.g. a PMP layout that stopped
  // fitting -- which fail-safes to deny-all) must not prevent the remaining
  // unmaps, zeroing, and restores. The first error is still reported so
  // policy operations can compensate.
  Status first_error = OkStatus();
  auto note = [&first_error](const Status& status) {
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
  };
  for (const CapEffect& effect : effects.effects) {
    const auto kind_index = static_cast<size_t>(effect.kind);
    if (kind_index < MonitorStats::kEffectKinds) {
      Count(kStatEffects + kind_index);
    }
    switch (effect.kind) {
      case CapEffect::Kind::kMapMemory:
      case CapEffect::Kind::kUnmapMemory:
        note(backend_->SyncMemory(effect.domain, effect.range));
        break;
      case CapEffect::Kind::kZeroMemory:
        note(machine_->ZeroRange(effect.range.base, effect.range.size));
        break;
      case CapEffect::Kind::kFlushCache:
        machine_->FlushCacheRange(effect.range.base, effect.range.size);
        break;
      case CapEffect::Kind::kAttachUnit:
      case CapEffect::Kind::kDetachUnit:
        if (effect.resource == ResourceKind::kPciDevice) {
          note(ReconcileDevice(effect.unit));
        }
        // Core and domain-handle movements need no hardware action: cores
        // are checked at transition time, handles are pure bookkeeping.
        break;
    }
  }
  return first_error;
}

Status Monitor::ReconcileDevice(uint64_t bdf) {
  // A device DMAs on behalf of exactly one trust domain: it is attached iff
  // a single domain holds its capability; shared devices are quiesced.
  DomainId sole_holder = kInvalidDomain;
  uint32_t holders = 0;
  for (const auto& [id, domain] : domains_) {
    if (domain.alive() && engine_.HasUnit(id, ResourceKind::kPciDevice, bdf)) {
      ++holders;
      sole_holder = id;
    }
  }
  // Detach from everyone first. kNotFound just means "was not attached"
  // (the common case); any other failure is a device that refused to
  // quiesce and must be surfaced to the enclosing operation.
  Status first_error = OkStatus();
  for (const auto& [id, domain] : domains_) {
    if (!domain.alive()) {
      continue;
    }
    const Status detached = backend_->DetachDevice(id, static_cast<uint16_t>(bdf));
    if (!detached.ok() && detached.code() != ErrorCode::kNotFound && first_error.ok()) {
      first_error = detached;
    }
  }
  // Interrupt routes follow exclusive ownership: a route pointing anywhere
  // but the sole holder is torn down.
  const auto route = machine_->interrupts().RouteOf(PciBdf(static_cast<uint16_t>(bdf)));
  if (route.has_value() && (holders != 1 || *route != sole_holder)) {
    machine_->interrupts().Unroute(PciBdf(static_cast<uint16_t>(bdf)));
  }
  if (holders == 1) {
    const Status attached = backend_->AttachDevice(sole_holder, static_cast<uint16_t>(bdf));
    if (!attached.ok() && first_error.ok()) {
      first_error = attached;
    }
  }
  return first_error;
}

Status Monitor::RouteInterrupt(CoreId core, CapId device_cap) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kRouteInterrupt));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const Capability* cap, engine_.Get(device_cap));
  if (!cap->active() || cap->owner != caller) {
    return Error(ErrorCode::kCapabilityNotOwned, "route: caller does not hold the device");
  }
  if (cap->kind != ResourceKind::kPciDevice) {
    return Error(ErrorCode::kInvalidArgument, "route: not a device capability");
  }
  // Routing requires exclusive ownership: interrupts carry information, so
  // a shared device must not leak its completion pattern to one holder.
  if (engine_.UnitRefCount(ResourceKind::kPciDevice, cap->unit) != 1) {
    return Error(ErrorCode::kPolicyViolation, "route: device is not exclusively owned");
  }
  machine_->interrupts().Route(PciBdf(static_cast<uint16_t>(cap->unit)), caller);
  return OkStatus();
}

Result<Interrupt> Monitor::TakeInterrupt(CoreId core) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kTakeInterrupt));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  const auto interrupt = machine_->interrupts().Take(caller);
  if (!interrupt.has_value()) {
    return Error(ErrorCode::kNotFound, "no pending interrupt");
  }
  return *interrupt;
}

Status Monitor::SetTransitionPolicy(CoreId core, CapId domain_handle, bool scrub_on_exit) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kSetTransitionPolicy));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  ConditionalUniqueLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.exclusive_contention(),
                              telemetry_.shard_wait_ns());
  TYCHE_ASSIGN_OR_RETURN(TrustDomain * domain, GetDomainMutable(target));
  if (domain->sealed()) {
    return Error(ErrorCode::kDomainSealed, "transition policy is fixed at seal time");
  }
  domain->scrub_on_exit = scrub_on_exit;
  return OkStatus();
}

Result<CreateDomainResult> Monitor::CreateDomain(CoreId core, const std::string& name) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kCreateDomain));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));

  const DomainId id = next_domain_++;
  TrustDomain& domain = domains_[id];
  domain.id = id;
  domain.creator = caller;
  domain.name = name;
  domain.asid = next_asid_++;

  const uint64_t span = SpanForCore(core);
  engine_.RegisterDomain(id, caller);
  audit_.RegisterDomain(span, id, caller);
  const Status context = backend_->CreateDomainContext(id, domain.asid);
  if (!context.ok()) {
    // Unwind: a domain the backend cannot enforce must not stay registered.
    // The purge is journaled like any other mutation so shadow replay stays
    // in lockstep; the id is simply never reused (next_domain_ moved on).
    const auto purge = engine_.PurgeDomain(id);
    if (purge.ok()) {
      audit_.PurgeDomain(span, id, *purge);
    }
    domains_.erase(id);
    audit_.Abort(span, static_cast<uint16_t>(ApiOp::kCreateDomain), caller, context.code());
    return context;
  }

  TYCHE_ASSIGN_OR_RETURN(
      const CapId handle,
      engine_.MintUnit(caller, ResourceKind::kDomain, id, CapRights(CapRights::kAll)));
  audit_.MintUnit(span, caller, handle, ResourceKind::kDomain, id, CapRights(CapRights::kAll));
  return CreateDomainResult{id, handle};
}

Status Monitor::SetEntryPoint(CoreId core, CapId domain_handle, uint64_t entry) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kSetEntryPoint));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  ConditionalUniqueLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.exclusive_contention(),
                              telemetry_.shard_wait_ns());
  TYCHE_ASSIGN_OR_RETURN(TrustDomain * domain, GetDomainMutable(target));
  if (domain->sealed()) {
    return Error(ErrorCode::kDomainSealed, "cannot move a sealed domain's entry point");
  }
  domain->entry_point = entry;
  domain->entry_point_set = true;
  return OkStatus();
}

Status Monitor::ExtendMeasurement(CoreId core, CapId domain_handle, AddrRange range) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kExtendMeasurement));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  ConditionalUniqueLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.exclusive_contention(),
                              telemetry_.shard_wait_ns());
  TYCHE_ASSIGN_OR_RETURN(TrustDomain * domain, GetDomainMutable(target));
  if (domain->sealed()) {
    return Error(ErrorCode::kDomainSealed, "measurement already finalized");
  }
  // The measured range must belong to the target (readable by it): the
  // measurement covers the domain's own initial content. The target's map,
  // clipped to its pages from the first one up to range.end(), must cover
  // them readably and without a gap.
  const uint64_t first_page = AlignDown(range.base, kPageSize);
  uint64_t covered = first_page;
  if (range.end() > first_page) {
    for (const auto& region :
         engine_.DomainMemoryMap(target, AddrRange{first_page, range.end() - first_page})) {
      if (region.range.base == covered && region.perms.Allows(AccessType::kRead)) {
        covered = region.range.end();
      }
    }
  }
  if (covered < range.end()) {
    return Error(ErrorCode::kPolicyViolation, "measured range not owned by target");
  }
  TYCHE_ASSIGN_OR_RETURN(const Digest digest,
                         machine_->MeasureRange(range.base, range.size));
  domain->measurement_ctx.UpdateValue(range.base);
  domain->measurement_ctx.UpdateValue(range.size);
  domain->measurement_ctx.Update(
      std::span<const uint8_t>(digest.bytes.data(), digest.bytes.size()));
  return OkStatus();
}

Status Monitor::Seal(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kSeal));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  ConditionalUniqueLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.exclusive_contention(),
                              telemetry_.shard_wait_ns());
  TYCHE_ASSIGN_OR_RETURN(TrustDomain * domain, GetDomainMutable(target));
  if (domain->sealed()) {
    return Error(ErrorCode::kDomainSealed, "already sealed");
  }
  if (!domain->entry_point_set) {
    return Error(ErrorCode::kFailedPrecondition, "seal requires an entry point");
  }
  // The entry point must be executable by the domain.
  if (!engine_.EffectivePerms(target, domain->entry_point).Allows(AccessType::kExecute)) {
    return Error(ErrorCode::kPolicyViolation, "entry point not executable by domain");
  }

  // Finalize measurement with the configuration hash: entry point plus the
  // canonical resource list (kind, range, perms). This is what makes the
  // attested identity cover the isolation configuration, not just code.
  domain->measurement_ctx.Update(std::string_view("tyche-config-v1"));
  domain->measurement_ctx.UpdateValue(domain->entry_point);
  for (const Capability* cap : CanonicalCaps(engine_, target)) {
    domain->measurement_ctx.UpdateValue(static_cast<uint8_t>(cap->kind));
    domain->measurement_ctx.UpdateValue(cap->range.base);
    domain->measurement_ctx.UpdateValue(cap->range.size);
    domain->measurement_ctx.UpdateValue(cap->unit);
    domain->measurement_ctx.UpdateValue(cap->perms.mask);
  }
  domain->measurement = domain->measurement_ctx.Finalize();
  domain->state = DomainState::kSealed;
  engine_.SealDomain(target);
  audit_.SealDomain(SpanForCore(core), target, domain->measurement, domain->entry_point);
  return OkStatus();
}

Status Monitor::CheckNotScheduled(DomainId domain) const {
  for (CoreId c = 0; c < machine_->num_cores(); ++c) {
    if (machine_->cpu(c).current_domain() == domain) {
      return Error(ErrorCode::kFailedPrecondition, "domain is running");
    }
    const auto& stack = call_stacks_[c];
    if (std::find(stack.begin(), stack.end(), domain) != stack.end()) {
      return Error(ErrorCode::kFailedPrecondition, "domain is on a transition stack");
    }
  }
  return OkStatus();
}

Result<RevokeOutcome> Monitor::PurgeJournaled(uint64_t span, DomainId target) {
  std::vector<std::pair<CapId, RevokeOutcome>> partial;
  auto purged = engine_.PurgeDomain(target, &partial);
  if (!purged.ok()) {
    // The purge aborted mid-cascade: the domain is still registered, but the
    // per-root revocations that DID commit are real. Journal each as an
    // ordinary revoke (the target owns its own roots, so replay
    // authorization holds) and project its effects so hardware tracks the
    // tree. A retry purges whatever remains; its kPurgeDomain record then
    // replays against the same remainder.
    for (const auto& [root, committed] : partial) {
      audit_.Revoke(span, target, root, committed, engine_);
      Count(kStatRevocationsCascaded, committed.revoked_count);
      const Status projected = ApplyEffects(committed.effects);
      if (!projected.ok()) {
        TYCHE_LOG(kWarn) << "teardown: partial-purge effects degraded to fail-safe: "
                         << projected.ToString();
      }
    }
    return purged;
  }
  audit_.PurgeDomain(span, target, *purged);
  Count(kStatRevocationsCascaded, purged->revoked_count);
  return purged;
}

Status Monitor::CommitTeardown(uint64_t span, ApiOp op, DomainId requester, DomainId target,
                               const Result<RevokeOutcome>& purged) {
  // Teardown is never rolled back, because a dead domain with live hardware
  // state would be the worst torn state of all. Push through every cleanup
  // step (failed projections have already fail-safed to deny), mark the
  // domain dead, and report the first failure as a terminal-but-contained
  // error.
  Status first = purged.ok() ? ApplyEffects(purged->effects) : purged.status();
  const Status context = backend_->DestroyDomainContext(target);
  if (!context.ok() && first.ok()) {
    first = context;
  }
  machine_->interrupts().PurgeDomain(target);
  domains_.at(target).state = DomainState::kDead;
  if (!first.ok()) {
    audit_.Abort(span, static_cast<uint16_t>(op), requester, first.code());
  }
  return first;
}

Status Monitor::DestroyDomain(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kDestroyDomain));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/true));
  TYCHE_RETURN_IF_ERROR(CheckNotScheduled(target));
  const uint64_t span = SpanForCore(core);
  const auto purged = PurgeJournaled(span, target);
  if (!purged.ok()) {
    // The domain stays alive, so the destroy can be retried.
    audit_.Abort(span, static_cast<uint16_t>(ApiOp::kDestroyDomain), caller,
                 purged.status().code());
    return purged.status();
  }
  // The engine purge is the commit point.
  return CommitTeardown(span, ApiOp::kDestroyDomain, caller, target, purged);
}

Result<DelegationOutcome> Monitor::Delegate(CoreId core, CapId dst_domain_handle,
                                            const Delegation& request) {
  const ApiOp op = request.sub ? (request.grant ? ApiOp::kGrantMemory : ApiOp::kShareMemory)
                               : (request.grant ? ApiOp::kGrantUnit : ApiOp::kShareUnit);
  TYCHE_RETURN_IF_ERROR(ChargeCall(op));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId dst,
                         ResolveHandle(caller, dst_domain_handle, /*require_manage=*/false));
  const uint64_t span = SpanForCore(core);
  TYCHE_ASSIGN_OR_RETURN(DelegationOutcome outcome, engine_.Delegate(caller, dst, request));
  audit_.Delegate(span, caller, dst, request, outcome);
  const Status applied = ApplyEffects(outcome.effects);
  if (applied.ok()) {
    Count(request.grant ? kStatGrants : kStatShares);
    return outcome;
  }
  // Compensate: the hardware could not accommodate the new access (e.g. PMP
  // exhaustion), so the recipient drops the child (an owner may always drop
  // what it holds). A revoked grant returns to the grantor (the parent
  // itself when the grant took it whole, else a restore child), so the
  // rollback is access-equivalent to the state before. The forward mutation
  // is already journaled, and so is the compensating revoke: shadow replay
  // performs the same compensation and the graphs converge.
  const auto comp = engine_.Revoke(dst, outcome.granted);
  if (!comp.ok()) {
    // Unreachable unless the engine lost the capability underneath us; the
    // abort record below still marks the span as failed.
    TYCHE_LOG(kError) << "rollback: revoke of cap " << outcome.granted
                      << " failed: " << comp.status().ToString();
  } else {
    audit_.Revoke(span, dst, outcome.granted, *comp, engine_);
    Count(kStatRevocationsCascaded, comp->revoked_count);
    const Status reverted = ApplyEffects(comp->effects);
    if (!reverted.ok()) {
      // The failing backend has already fail-safed to deny, so hardware
      // still enforces a subset of the (now restored) tree.
      TYCHE_LOG(kWarn) << "rollback: compensating effects degraded to fail-safe: "
                       << reverted.ToString();
    }
  }
  audit_.Abort(span, static_cast<uint16_t>(op), caller, applied.code());
  return applied;
}

Result<CapId> Monitor::ShareMemory(CoreId core, CapId src_cap, CapId dst_domain_handle,
                                   AddrRange sub, Perms perms, CapRights rights,
                                   RevocationPolicy policy) {
  return Granted(Delegate(core, dst_domain_handle, {false, src_cap, sub, perms, rights, policy}));
}

Result<GrantResult> Monitor::GrantMemory(CoreId core, CapId src_cap, CapId dst_domain_handle,
                                         AddrRange sub, Perms perms, CapRights rights,
                                         RevocationPolicy policy) {
  TYCHE_ASSIGN_OR_RETURN(
      DelegationOutcome outcome,
      Delegate(core, dst_domain_handle, {true, src_cap, sub, perms, rights, policy}));
  return GrantResult{outcome.granted, std::move(outcome.remainders)};
}

Result<CapId> Monitor::ShareUnit(CoreId core, CapId src_cap, CapId dst_domain_handle,
                                 CapRights rights, RevocationPolicy policy) {
  return Granted(Delegate(core, dst_domain_handle,
                          {false, src_cap, std::nullopt, Perms{}, rights, policy}));
}

Result<CapId> Monitor::GrantUnit(CoreId core, CapId src_cap, CapId dst_domain_handle,
                                 CapRights rights, RevocationPolicy policy) {
  return Granted(Delegate(core, dst_domain_handle,
                          {true, src_cap, std::nullopt, Perms{}, rights, policy}));
}

Status Monitor::Revoke(CoreId core, CapId cap) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kRevoke));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  const uint64_t span = SpanForCore(core);
  TYCHE_ASSIGN_OR_RETURN(const RevokeOutcome outcome, engine_.Revoke(caller, cap));
  audit_.Revoke(span, caller, cap, outcome, engine_);
  Count(kStatRevokes);
  Count(kStatRevocationsCascaded, outcome.revoked_count);
  const Status applied = ApplyEffects(outcome.effects);
  if (!applied.ok()) {
    // Revocation is never rolled back (§3.2: cleanups are guaranteed). The
    // failing projection already fail-safed to deny, so hardware enforces a
    // subset of the tree; the abort record plus the typed error tell the
    // caller the degraded state is theirs to repair (any later successful
    // sync restores full enforcement).
    audit_.Abort(span, static_cast<uint16_t>(ApiOp::kRevoke), caller, applied.code());
  }
  return applied;
}

Result<DomainAttestation> Monitor::BuildAttestation(DomainId target, uint64_t nonce) {
  ConditionalSharedLock shard(ShardFor(target), concurrent_dispatch(),
                              telemetry_.shared_contention(),
                              telemetry_.shard_wait_ns(),
                              DispatchPhase::kShardLockWait);
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(target));
  DomainAttestation report;
  report.domain = target;
  report.nonce = nonce;
  report.sealed = domain->sealed();
  report.measurement = domain->measurement;

  // Memory claims are reported at constant-refcount granularity (the
  // resolution of the paper's Figure 4): a capability spanning both private
  // and shared bytes is split, so a verifier's per-region policy can tell
  // the attested channel from the private heap around it. The view within
  // the cap's own range is exactly those pieces, already clipped.
  for (const Capability* cap : CanonicalCaps(engine_, target)) {
    if (cap->kind != ResourceKind::kMemory) {
      ResourceClaim claim;
      claim.kind = cap->kind;
      claim.unit = cap->unit;
      claim.ref_count = engine_.UnitRefCount(cap->kind, cap->unit);
      report.resources.push_back(claim);
      continue;
    }
    for (const RegionView& region : engine_.MemoryView(cap->range)) {
      ResourceClaim claim;
      claim.kind = ResourceKind::kMemory;
      claim.range = region.range;
      claim.perms = cap->perms;
      claim.ref_count = region.ref_count();
      report.resources.push_back(claim);
    }
  }
  report.report_digest = report.ComputeDigest();
  report.signature = SchnorrSign(key_, report.report_digest);
  machine_->cycles().Charge(CostModel::Default().sign);
  return report;
}

Result<DomainAttestation> Monitor::AttestDomain(CoreId core, CapId domain_handle,
                                                uint64_t nonce) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kAttestDomain));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/false));
  return BuildAttestation(target, nonce);
}

Result<DomainAttestation> Monitor::AttestSelf(CoreId core, uint64_t nonce) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kAttestDomain));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  return BuildAttestation(caller, nonce);
}

Result<std::vector<ResourceClaim>> Monitor::Enumerate(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kEnumerate));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/false));
  TYCHE_ASSIGN_OR_RETURN(const DomainAttestation report, BuildAttestation(target, 0));
  return report.resources;
}

Status Monitor::Transition(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kTransition));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/false));
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(target));
  if (!domain->entry_point_set) {
    return Error(ErrorCode::kTransitionDenied, "target has no entry point");
  }
  // §3.1: "Domains ... are only allowed to run on CPU cores ... that are
  // part of their resource configuration."
  if (!engine_.HasUnit(target, ResourceKind::kCpuCore, core)) {
    return Error(ErrorCode::kTransitionDenied, "target does not own this core");
  }
  ScrubOnExitIfRequested(caller, core);
  // Bind first: if the backend refuses the switch, the call stack and the
  // core's current domain must still describe the caller, not the target.
  TYCHE_RETURN_IF_ERROR(backend_->BindCore(target, core));
  call_stacks_[core].push_back(caller);
  machine_->cpu(core).set_current_domain(target);
  Count(kStatTransitions);
  return OkStatus();
}

void Monitor::ScrubOnExitIfRequested(DomainId leaving, CoreId core) {
  const auto it = domains_.find(leaving);
  if (it == domains_.end() || !it->second.scrub_on_exit) {
    return;
  }
  // Wipe the micro-architectural state the domain may have left behind:
  // TLB entries plus (modelled) caches and predictors.
  machine_->FlushTlb(core);
  machine_->cycles().Charge(CostModel::Default().microarch_scrub);
}

Status Monitor::ReturnFromDomain(CoreId core) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kReturn));
  TYCHE_RETURN_IF_ERROR(Caller(core).status());
  if (call_stacks_[core].empty()) {
    return Error(ErrorCode::kFailedPrecondition, "no domain to return to");
  }
  const DomainId leaving = machine_->cpu(core).current_domain();
  ScrubOnExitIfRequested(leaving, core);
  const DomainId previous = call_stacks_[core].back();
  // Bind first (see Transition): a refused switch leaves the stack intact.
  TYCHE_RETURN_IF_ERROR(backend_->BindCore(previous, core));
  call_stacks_[core].pop_back();
  machine_->cpu(core).set_current_domain(previous);
  Count(kStatTransitions);
  return OkStatus();
}

Status Monitor::RegisterFastTransition(CoreId core, CapId domain_handle) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kRegisterFastTransition));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  TYCHE_ASSIGN_OR_RETURN(const DomainId target,
                         ResolveHandle(caller, domain_handle, /*require_manage=*/false));
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(target));
  if (!domain->entry_point_set) {
    return Error(ErrorCode::kTransitionDenied, "target has no entry point");
  }
  if (!engine_.HasUnit(target, ResourceKind::kCpuCore, core)) {
    return Error(ErrorCode::kTransitionDenied, "target does not own this core");
  }
  // The fast path bypasses the monitor, so it cannot honour a scrub-on-exit
  // policy: domains that asked for the mitigation are excluded.
  if (domains_[caller].scrub_on_exit || domains_[target].scrub_on_exit) {
    return Error(ErrorCode::kPolicyViolation,
                 "scrub-on-exit domains cannot use the unmediated fast path");
  }
  // Arm the fast path both ways so the pair can call and return.
  TYCHE_RETURN_IF_ERROR(backend_->RegisterFastPath(target, core));
  return backend_->RegisterFastPath(caller, core);
}

Status Monitor::FastTransition(CoreId core, DomainId target) {
  if (core >= machine_->num_cores()) {
    return Error(ErrorCode::kOutOfRange, "bad core id");
  }
  // The fast path bypasses handle resolution, so the frozen check must live
  // here: entering a half-captured domain would let it observe (and dirty)
  // state the migration already serialized.
  if (domain_frozen(target)) {
    return Error(ErrorCode::kMigrating, "target is frozen by a live migration");
  }
  // No trap: the hardware validates against the pre-armed EPTP list. Only
  // the VMFUNC-equivalent cost is charged.
  machine_->cycles().Charge(CostModel::Default().vmfunc_switch);
  Count(kStatApiCalls + static_cast<size_t>(ApiOp::kFastTransition));
  const DomainId caller = machine_->cpu(core).current_domain();
  TYCHE_RETURN_IF_ERROR(backend_->FastBindCore(target, core));
  call_stacks_[core].push_back(caller);
  machine_->cpu(core).set_current_domain(target);
  Count(kStatFastTransitions);
  return OkStatus();
}

Status Monitor::FastReturn(CoreId core) {
  if (core >= machine_->num_cores()) {
    return Error(ErrorCode::kOutOfRange, "bad core id");
  }
  machine_->cycles().Charge(CostModel::Default().vmfunc_switch);
  if (call_stacks_[core].empty()) {
    return Error(ErrorCode::kFailedPrecondition, "no domain to return to");
  }
  const DomainId previous = call_stacks_[core].back();
  TYCHE_RETURN_IF_ERROR(backend_->FastBindCore(previous, core));
  call_stacks_[core].pop_back();
  machine_->cpu(core).set_current_domain(previous);
  Count(kStatFastTransitions);
  return OkStatus();
}

Digest Monitor::SealingKey(const TrustDomain& domain) const {
  return HmacSha256(std::span<const uint8_t>(sealing_root_.bytes.data(), 32),
                    std::span<const uint8_t>(domain.measurement.bytes.data(), 32));
}

Result<std::vector<uint8_t>> Monitor::SealData(CoreId core, std::span<const uint8_t> data) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kSealData));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  ConditionalSharedLock shard(ShardFor(caller), concurrent_dispatch(),
                              telemetry_.shared_contention(),
                              telemetry_.shard_wait_ns(),
                              DispatchPhase::kShardLockWait);
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(caller));
  if (!domain->sealed()) {
    return Error(ErrorCode::kDomainNotSealed,
                 "sealing requires a final measurement (seal the domain first)");
  }
  const Digest key = SealingKey(*domain);
  // NOTE: the per-boot nonce counter is enough here because the simulation
  // has no persistent storage; a production monitor must persist or
  // randomize nonces to avoid cross-boot reuse.
  const SealedBlob blob = AeadSeal(key, seal_nonce_++, data);
  machine_->cycles().Charge(CostModel::Default().hash_per_page *
                            (AlignUp(data.size(), kPageSize) / kPageSize + 1));
  return blob.Serialize();
}

Result<std::vector<uint8_t>> Monitor::UnsealData(CoreId core,
                                                 std::span<const uint8_t> blob_bytes) {
  TYCHE_RETURN_IF_ERROR(ChargeCall(ApiOp::kUnsealData));
  TYCHE_ASSIGN_OR_RETURN(const DomainId caller, Caller(core));
  ConditionalSharedLock shard(ShardFor(caller), concurrent_dispatch(),
                              telemetry_.shared_contention(),
                              telemetry_.shard_wait_ns(),
                              DispatchPhase::kShardLockWait);
  TYCHE_ASSIGN_OR_RETURN(const TrustDomain* domain, GetDomain(caller));
  if (!domain->sealed()) {
    return Error(ErrorCode::kDomainNotSealed, "unsealing requires a final measurement");
  }
  TYCHE_ASSIGN_OR_RETURN(const SealedBlob blob, SealedBlob::Deserialize(blob_bytes));
  const Digest key = SealingKey(*domain);
  machine_->cycles().Charge(CostModel::Default().hash_per_page *
                            (AlignUp(blob.ciphertext.size(), kPageSize) / kPageSize + 1));
  return AeadOpen(key, blob);
}

Result<MonitorIdentity> Monitor::Identity(uint64_t nonce) const {
  MonitorIdentity identity;
  identity.tpm_key = machine_->tpm().attestation_key();
  identity.monitor_key = key_.pub;
  identity.firmware_measurement = firmware_measurement_;
  identity.monitor_measurement = monitor_measurement_;
  const uint32_t mask = (1u << Tpm::kPcrFirmware) | (1u << Tpm::kPcrMonitor);
  TYCHE_ASSIGN_OR_RETURN(identity.boot_quote, machine_->tpm().Quote(nonce, mask));
  return identity;
}

Result<bool> Monitor::AuditHardwareConsistency() {
  for (const auto& [id, domain] : domains_) {
    if (!domain.alive()) {
      continue;
    }
    TYCHE_ASSIGN_OR_RETURN(const bool consistent, backend_->ValidateAgainst(engine_, id));
    if (!consistent) {
      TYCHE_LOG(kError) << "hardware state of domain " << id
                        << " is not justified by the capability tree";
      return false;
    }
  }
  return true;
}

}  // namespace tyche
