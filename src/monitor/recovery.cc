// Copyright 2026 The Tyche Reproduction Authors.
// Recovery subsystem: snapshot encode/decode, Monitor::Recover /
// Monitor::ResyncAll / Monitor::CaptureSnapshot. Kept out of monitor.cc so
// the crash path and the hot path do not share a translation unit.

#include "src/monitor/recovery.h"

#include <algorithm>
#include <map>

#include "src/monitor/audit.h"
#include "src/monitor/monitor.h"
#include "src/monitor/pmp_backend.h"
#include "src/monitor/vtx_backend.h"
#include "src/support/log.h"

namespace tyche {

namespace {

// Section tags inside the TYSN container.
constexpr uint32_t kSectionEngine = 1;   // EngineImage: lineage tree + domains
constexpr uint32_t kSectionMonitor = 2;  // TrustDomain table + id allocators
constexpr uint32_t kSectionMeta = 3;     // metadata pool geometry

// Everything a snapshot carries. The rolling measurement contexts of
// unsealed domains are deliberately absent: they are NOT durable (a sealed
// domain's final measurement rides in its seal record instead).
struct MonitorImage {
  EngineImage engine;
  std::vector<TrustDomain> domains;
  DomainId next_domain = 0;
  uint16_t next_asid = 1;
  uint64_t seal_nonce = 1;
  AddrRange monitor_range;
  Digest firmware_measurement;
  Digest monitor_measurement;
  AddrRange metadata_pool;
};

std::vector<uint8_t> EncodeEngine(const EngineImage& image) {
  SectionWriter out;
  out.Append<uint64_t>(image.next_id);
  out.Append<uint32_t>(static_cast<uint32_t>(image.caps.size()));
  for (const Capability& cap : image.caps) {
    out.Append<uint64_t>(cap.id);
    out.Append<uint32_t>(cap.owner);
    out.Append<uint8_t>(static_cast<uint8_t>(cap.kind));
    out.Append<uint64_t>(cap.range.base);
    out.Append<uint64_t>(cap.range.size);
    out.Append<uint64_t>(cap.unit);
    out.Append<uint8_t>(cap.perms.mask);
    out.Append<uint8_t>(cap.rights.mask);
    out.Append<uint8_t>(cap.revocation.mask);
    out.Append<uint8_t>(static_cast<uint8_t>(cap.state));
    out.Append<uint8_t>(static_cast<uint8_t>(cap.origin));
    out.Append<uint64_t>(cap.parent);
    out.Append<uint32_t>(static_cast<uint32_t>(cap.children.size()));
    for (const CapId child : cap.children) {
      out.Append<uint64_t>(child);
    }
  }
  out.Append<uint32_t>(static_cast<uint32_t>(image.domains.size()));
  for (const EngineImage::DomainEntry& entry : image.domains) {
    out.Append<uint32_t>(entry.id);
    out.Append<uint32_t>(entry.creator);
    out.Append<uint8_t>(entry.sealed ? 1 : 0);
  }
  return out.Take();
}

Status DecodeEngine(std::span<const uint8_t> bytes, EngineImage* image) {
  SectionReader in(bytes);
  const auto malformed = [](const char* what) {
    return Error(ErrorCode::kInvalidArgument, std::string("snapshot engine: ") + what);
  };
  uint32_t cap_count = 0;
  if (!in.Read(&image->next_id) || !in.Read(&cap_count)) {
    return malformed("truncated header");
  }
  if (cap_count > bytes.size()) {
    return malformed("implausible cap count");
  }
  image->caps.reserve(cap_count);
  for (uint32_t i = 0; i < cap_count; ++i) {
    Capability cap;
    uint8_t kind = 0;
    uint8_t state = 0;
    uint8_t origin = 0;
    uint32_t child_count = 0;
    const bool ok = in.Read(&cap.id) && in.Read(&cap.owner) && in.Read(&kind) &&
                    in.Read(&cap.range.base) && in.Read(&cap.range.size) &&
                    in.Read(&cap.unit) && in.Read(&cap.perms.mask) &&
                    in.Read(&cap.rights.mask) && in.Read(&cap.revocation.mask) &&
                    in.Read(&state) && in.Read(&origin) && in.Read(&cap.parent) &&
                    in.Read(&child_count);
    if (!ok || child_count > bytes.size()) {
      return malformed("truncated capability");
    }
    if (kind > static_cast<uint8_t>(ResourceKind::kDomain) ||
        state > static_cast<uint8_t>(CapState::kDonated) ||
        origin > static_cast<uint8_t>(CapOrigin::kRestore)) {
      return malformed("enum out of range");
    }
    cap.kind = static_cast<ResourceKind>(kind);
    cap.state = static_cast<CapState>(state);
    cap.origin = static_cast<CapOrigin>(origin);
    cap.children.reserve(child_count);
    for (uint32_t c = 0; c < child_count; ++c) {
      CapId child = kInvalidCap;
      if (!in.Read(&child)) {
        return malformed("truncated child list");
      }
      cap.children.push_back(child);
    }
    image->caps.push_back(std::move(cap));
  }
  uint32_t domain_count = 0;
  if (!in.Read(&domain_count) || domain_count > bytes.size()) {
    return malformed("truncated domain table");
  }
  image->domains.reserve(domain_count);
  for (uint32_t i = 0; i < domain_count; ++i) {
    EngineImage::DomainEntry entry;
    uint8_t sealed = 0;
    if (!in.Read(&entry.id) || !in.Read(&entry.creator) || !in.Read(&sealed)) {
      return malformed("truncated domain entry");
    }
    entry.sealed = sealed != 0;
    image->domains.push_back(entry);
  }
  if (in.remaining() != 0) {
    return malformed("trailing bytes");
  }
  return OkStatus();
}

Status DecodeMonitorImage(std::span<const uint8_t> snapshot_bytes, MonitorImage* image) {
  TYCHE_ASSIGN_OR_RETURN(const SnapshotView view, SnapshotView::Parse(snapshot_bytes));
  TYCHE_ASSIGN_OR_RETURN(const std::span<const uint8_t> engine_bytes,
                         view.Section(kSectionEngine));
  TYCHE_RETURN_IF_ERROR(DecodeEngine(engine_bytes, &image->engine));

  TYCHE_ASSIGN_OR_RETURN(const std::span<const uint8_t> monitor_bytes,
                         view.Section(kSectionMonitor));
  const auto malformed = [](const char* what) {
    return Error(ErrorCode::kInvalidArgument, std::string("snapshot monitor: ") + what);
  };
  SectionReader in(monitor_bytes);
  uint32_t domain_count = 0;
  const bool header_ok =
      in.Read(&image->next_domain) && in.Read(&image->next_asid) &&
      in.Read(&image->seal_nonce) && in.Read(&image->monitor_range.base) &&
      in.Read(&image->monitor_range.size) && in.ReadDigest(&image->firmware_measurement) &&
      in.ReadDigest(&image->monitor_measurement) && in.Read(&domain_count);
  if (!header_ok || domain_count > monitor_bytes.size()) {
    return malformed("truncated header");
  }
  image->domains.reserve(domain_count);
  for (uint32_t i = 0; i < domain_count; ++i) {
    TrustDomain domain;
    uint8_t state = 0;
    uint8_t entry_point_set = 0;
    uint8_t scrub = 0;
    const bool ok = in.Read(&domain.id) && in.Read(&domain.creator) && in.Read(&state) &&
                    in.ReadString(&domain.name) && in.Read(&domain.entry_point) &&
                    in.Read(&entry_point_set) && in.ReadDigest(&domain.measurement) &&
                    in.Read(&domain.asid) && in.Read(&scrub);
    if (!ok || state > static_cast<uint8_t>(DomainState::kDead)) {
      return malformed("truncated or invalid trust domain");
    }
    domain.state = static_cast<DomainState>(state);
    domain.entry_point_set = entry_point_set != 0;
    domain.scrub_on_exit = scrub != 0;
    // measurement_ctx is left fresh on purpose: rolling measurements of
    // unsealed domains are not durable.
    image->domains.push_back(std::move(domain));
  }
  if (in.remaining() != 0) {
    return malformed("trailing bytes");
  }

  TYCHE_ASSIGN_OR_RETURN(const std::span<const uint8_t> meta_bytes,
                         view.Section(kSectionMeta));
  SectionReader meta(meta_bytes);
  if (!meta.Read(&image->metadata_pool.base) || !meta.Read(&image->metadata_pool.size) ||
      meta.remaining() != 0) {
    return Error(ErrorCode::kInvalidArgument, "snapshot meta: malformed");
  }
  return OkStatus();
}

}  // namespace

void SnapshotStore::Put(MonitorSnapshot snapshot) {
  // Overwrite an existing entry for the same seq (re-checkpoint after
  // recovery), otherwise keep ascending order.
  for (MonitorSnapshot& existing : snapshots_) {
    if (existing.seq == snapshot.seq) {
      existing = std::move(snapshot);
      return;
    }
  }
  snapshots_.push_back(std::move(snapshot));
  std::sort(snapshots_.begin(), snapshots_.end(),
            [](const MonitorSnapshot& a, const MonitorSnapshot& b) { return a.seq < b.seq; });
}

Result<MonitorSnapshot> SnapshotStore::LatestAtOrBefore(uint64_t seq) const {
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->seq <= seq) {
      return *it;
    }
  }
  return Error(ErrorCode::kNotFound, "no snapshot at or before seq " + std::to_string(seq));
}

Result<MonitorSnapshot> SnapshotStore::Latest() const {
  if (snapshots_.empty()) {
    return Error(ErrorCode::kNotFound, "no snapshots");
  }
  return snapshots_.back();
}

void SnapshotStore::PruneOlderThan(uint64_t seq) {
  snapshots_.erase(std::remove_if(snapshots_.begin(), snapshots_.end(),
                                  [seq](const MonitorSnapshot& s) { return s.seq < seq; }),
                   snapshots_.end());
}

Digest EngineDigest(const CapabilityEngine& engine) {
  const std::vector<uint8_t> bytes = EncodeEngine(engine.Capture());
  return Sha256::Hash(std::span<const uint8_t>(bytes.data(), bytes.size()));
}

std::vector<uint8_t> Monitor::CaptureSnapshot() const {
  SnapshotWriter writer;
  writer.AddSection(kSectionEngine, EncodeEngine(engine_.Capture()));

  SectionWriter monitor;
  monitor.Append<uint32_t>(next_domain_);
  monitor.Append<uint16_t>(next_asid_);
  monitor.Append<uint64_t>(seal_nonce_.load(std::memory_order_relaxed));
  monitor.Append<uint64_t>(monitor_range_.base);
  monitor.Append<uint64_t>(monitor_range_.size);
  monitor.AppendDigest(firmware_measurement_);
  monitor.AppendDigest(monitor_measurement_);
  monitor.Append<uint32_t>(static_cast<uint32_t>(domains_.size()));
  for (const auto& [id, domain] : domains_) {
    monitor.Append<uint32_t>(domain.id);
    monitor.Append<uint32_t>(domain.creator);
    monitor.Append<uint8_t>(static_cast<uint8_t>(domain.state));
    monitor.AppendString(domain.name);
    monitor.Append<uint64_t>(domain.entry_point);
    monitor.Append<uint8_t>(domain.entry_point_set ? 1 : 0);
    monitor.AppendDigest(domain.measurement);
    monitor.Append<uint16_t>(domain.asid);
    monitor.Append<uint8_t>(domain.scrub_on_exit ? 1 : 0);
  }
  writer.AddSection(kSectionMonitor, monitor.Take());

  SectionWriter meta;
  meta.Append<uint64_t>(metadata_pool_.pool().base);
  meta.Append<uint64_t>(metadata_pool_.pool().size);
  writer.AddSection(kSectionMeta, meta.Take());
  return writer.Finish();
}

Status Monitor::EnableSnapshots(SnapshotStore* store) {
  // The provider reads monitor state under the journal lock, which is why
  // EnableConcurrentDispatch refuses to engage once this flag is set. The
  // exclusion must hold in BOTH orders: binding a provider under a live
  // concurrent dispatcher would hand the journal lock a state reader that
  // races every in-flight mutation.
  if (concurrent_dispatch()) {
    return Error(ErrorCode::kFailedPrecondition,
                 "snapshots cannot bind while concurrent dispatch is live");
  }
  snapshots_bound_ = true;
  // Runs under the journal lock each time a checkpoint is signed; it must
  // not call back into the journal (and does not).
  audit_.journal().set_snapshot_provider([this, store](uint64_t seq) {
    MonitorSnapshot snapshot;
    snapshot.seq = seq;
    snapshot.bytes = CaptureSnapshot();
    snapshot.digest = SnapshotDigest(snapshot.bytes);
    const Digest digest = snapshot.digest;
    store->Put(std::move(snapshot));
    return digest;
  });
  return OkStatus();
}

Status Monitor::ResyncAll() {
  // The platform reset cleared volatile translation hardware. Mirror that
  // before rebuilding: any IOMMU context, I/O-PMP file, or per-core table
  // pointer left by the dead monitor references page tables that no longer
  // exist, and the fresh backend's bookkeeping would never find them.
  for (const auto& device : machine_->devices()) {
    (void)machine_->iommu().DetachDevice(device->bdf());
    machine_->io_pmp().Remove(device->bdf());
  }
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    machine_->SetCoreEpt(core, nullptr, /*flush_tlb=*/true);
    machine_->SetCoreGuestPageTable(core, nullptr);
    machine_->cpu(core).pmp().Reset();
  }
  // The old translation structures died with the crash: rebuild the backend
  // and the metadata pool it allocates from (same selection as the
  // constructor). Backend stats start a fresh epoch with the new backend.
  metadata_pool_ = FrameAllocator(metadata_pool_.pool());
  if (machine_->arch() == IsaArch::kX86_64) {
    backend_ = std::make_unique<VtxBackend>(machine_, &engine_, &metadata_pool_);
  } else {
    backend_ = std::make_unique<PmpBackend>(machine_, &engine_, monitor_range_);
  }
  watchdog_.set_backend(backend_.get());
  for (const auto& [id, domain] : domains_) {
    if (!domain.alive()) {
      continue;
    }
    TYCHE_RETURN_IF_ERROR(backend_->CreateDomainContext(id, domain.asid));
    for (const CapabilityEngine::MappedRegion& region : engine_.DomainMemoryMap(id)) {
      TYCHE_RETURN_IF_ERROR(backend_->SyncMemory(id, region.range));
    }
  }
  for (const auto& device : machine_->devices()) {
    TYCHE_RETURN_IF_ERROR(ReconcileDevice(device->bdf().value));
  }
  // Execution state is not durable: clear call stacks and restart every
  // core in the initial domain.
  for (auto& stack : call_stacks_) {
    stack.clear();
  }
  std::fill(active_spans_.begin(), active_spans_.end(), 0);
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    machine_->cpu(core).set_current_domain(0);
    machine_->cpu(core).set_mode(PrivilegeMode::kSupervisor);
    TYCHE_RETURN_IF_ERROR(backend_->BindCore(0, core));
  }
  return OkStatus();
}

Status Monitor::Recover(std::span<const uint8_t> snapshot_bytes,
                        const ParsedJournal& journal) {
  // 1. The journal must verify: anchored chain, every checkpoint signature.
  //    Tail coverage is relaxed — a crashed monitor cannot sign its death.
  TYCHE_RETURN_IF_ERROR(Journal::VerifyChain(journal.records, journal.checkpoints, key_.pub,
                                             /*require_covered_tail=*/false));

  // 2. Stage everything before touching live state: a malformed snapshot or
  //    a diverging replay must leave this monitor unchanged.
  CapabilityEngine staged_engine;
  std::map<DomainId, TrustDomain> staged_domains;
  DomainId staged_next_domain = 0;
  uint16_t staged_next_asid = 1;
  uint64_t staged_seal_nonce = 1;
  size_t suffix_begin = 0;
  const uint64_t base = journal.records.empty() ? 0 : journal.records.front().seq;
  const bool have_snapshot = !snapshot_bytes.empty();

  if (have_snapshot) {
    // The snapshot is trusted only through its checkpoint binding: its
    // digest must appear in a checkpoint whose signature VerifyChain
    // already validated. The newest binding wins (shortest replay).
    const Digest digest = SnapshotDigest(snapshot_bytes);
    const JournalCheckpoint* bound = nullptr;
    for (const JournalCheckpoint& checkpoint : journal.checkpoints) {
      if (checkpoint.snapshot == digest) {
        bound = &checkpoint;
      }
    }
    if (bound == nullptr) {
      return Error(ErrorCode::kJournalSignatureInvalid,
                   "recovery: snapshot is not bound to any signed checkpoint");
    }
    MonitorImage image;
    TYCHE_RETURN_IF_ERROR(DecodeMonitorImage(snapshot_bytes, &image));
    if (image.monitor_measurement != monitor_measurement_ ||
        image.firmware_measurement != firmware_measurement_) {
      return Error(ErrorCode::kAttestationMismatch,
                   "recovery: snapshot was taken by a different monitor identity");
    }
    if (image.monitor_range.base != monitor_range_.base ||
        image.monitor_range.size != monitor_range_.size ||
        image.metadata_pool.base != metadata_pool_.pool().base ||
        image.metadata_pool.size != metadata_pool_.pool().size) {
      return Error(ErrorCode::kAttestationMismatch,
                   "recovery: monitor reservation geometry changed");
    }
    TYCHE_RETURN_IF_ERROR(staged_engine.Restore(image.engine));
    for (TrustDomain& domain : image.domains) {
      const DomainId id = domain.id;
      staged_domains[id] = std::move(domain);
    }
    staged_next_domain = image.next_domain;
    staged_next_asid = image.next_asid;
    staged_seal_nonce = image.seal_nonce;
    const uint64_t suffix_start_seq = bound->seq + 1;
    if (suffix_start_seq < base) {
      return Error(ErrorCode::kJournalChainBroken,
                   "recovery: journal does not reach back to the snapshot checkpoint");
    }
    suffix_begin = std::min(static_cast<size_t>(suffix_start_seq - base),
                            journal.records.size());
  } else if (base != 0) {
    return Error(ErrorCode::kFailedPrecondition,
                 "recovery: a truncated journal requires its anchoring snapshot");
  }

  const std::span<const JournalRecord> suffix =
      std::span<const JournalRecord>(journal.records).subspan(suffix_begin);

  // 3. Replay the suffix on top of the snapshot image through the shadow
  //    replay machinery. kOpAbort spans need no special handling: their
  //    compensating mutations are ordinary records, so rolled-back
  //    transactions from the fault framework land rolled-back here too.
  ReplayOptions options;
  options.tolerate_truncated_tail = true;  // the crash can cut a span in half
  options.skip_leading_orphans = have_snapshot;
  TYCHE_RETURN_IF_ERROR(ReplayJournalInto(&staged_engine, suffix, options).status());

  // 4. Domain lifecycle + attested identity from the same suffix. Asids are
  //    reassigned in record order, matching the original creation order.
  for (const JournalRecord& record : suffix) {
    switch (static_cast<JournalEvent>(record.event)) {
      case JournalEvent::kRegisterDomain: {
        TrustDomain domain;
        domain.id = record.domain;
        if (record.dst == kJournalNoDomain) {
          domain.creator = kInvalidDomain;
          domain.entry_point = 0;  // the initial domain enters anywhere
          domain.entry_point_set = true;
        } else {
          domain.creator = record.dst;
        }
        domain.name = "recovered-" + std::to_string(record.domain);
        domain.asid = staged_next_asid++;
        if (record.domain >= staged_next_domain) {
          staged_next_domain = record.domain + 1;
        }
        staged_domains[domain.id] = std::move(domain);
        break;
      }
      case JournalEvent::kSealDomain: {
        const auto it = staged_domains.find(record.domain);
        if (it == staged_domains.end()) {
          return Error(ErrorCode::kJournalReplayDivergence,
                       "recovery: seal record for unknown domain");
        }
        it->second.state = DomainState::kSealed;
        it->second.measurement = PackedSealDigest(record);
        it->second.entry_point = record.aux;
        it->second.entry_point_set = true;
        break;
      }
      case JournalEvent::kPurgeDomain: {
        const auto it = staged_domains.find(record.domain);
        if (it != staged_domains.end()) {
          it->second.state = DomainState::kDead;
        }
        break;
      }
      default:
        break;
    }
  }
  const auto initial = staged_domains.find(0);
  if (initial == staged_domains.end() || !initial->second.alive()) {
    return Error(ErrorCode::kFailedPrecondition,
                 "recovery: history contains no live initial domain");
  }

  // 5. Commit the bookkeeping. From here on a failure (e.g. an injected
  //    re-sync fault) leaves hardware incomplete but the committed state is
  //    re-derivable: Recover() simply runs again.
  engine_ = std::move(staged_engine);
  domains_ = std::move(staged_domains);
  next_domain_ = staged_next_domain;
  next_asid_ = staged_next_asid;
  // Nonce-reuse guard: seal_nonce_ grew by at most one per journaled record
  // between the snapshot and the crash; skip past that bound.
  seal_nonce_ = staged_seal_nonce + suffix.size() + 1;

  // Span ids restart above everything in the recovered history so the span
  // tree never merges pre- and post-crash work.
  uint64_t max_span = 0;
  for (const JournalRecord& record : journal.records) {
    max_span = std::max(max_span, record.span);
  }
  next_span_.store(max_span + 1, std::memory_order_relaxed);

  // 6. Resume the chain: new records extend the recovered history instead
  //    of restarting from genesis.
  audit_.journal().Restore(journal.records, journal.checkpoints);

  // 7. Hardware: full re-sync of both backend families.
  TYCHE_RETURN_IF_ERROR(ResyncAll());

  // A crash mid-migration is an implicit rollback: the source journal only
  // carries a handoff record once the migration committed, so a recovered
  // monitor must not keep any domain frozen.
  frozen_.clear();

  // 8. Telemetry reset-and-mark: only the recovery counter crosses the
  //    epoch, so post-recovery dumps never mix pre-crash samples -- the
  //    phase profiler included, whose exemplars would otherwise point at
  //    trace entries that no longer exist. The recovered-seq flight record
  //    is captured BEFORE the reset, so its counter deltas are the last
  //    pre-crash moves since the previous capture; the reset then re-bases
  //    the recorder, so the next record's deltas count from the new epoch's
  //    zero (and show this recovery as recoveries +1).
  const uint64_t recovered_seq =
      journal.records.empty()
          ? (journal.checkpoints.empty() ? 0 : journal.checkpoints.back().seq)
          : journal.records.back().seq;
  const uint64_t recovery_span = next_span_.fetch_add(1, std::memory_order_relaxed);
  flight_.Capture("recovery", static_cast<uint16_t>(ApiOp::kOpCount), recovery_span,
                  /*error=*/0,
                  "recovered to journal seq " + std::to_string(recovered_seq));
  for (size_t i = 0; i < kStatCounters; ++i) {
    if (i != kStatRecoveries) {
      counters_[i].Reset();
    }
  }
  flight_.Rebase();
  counters_[kStatRecoveries].Add(1);
  telemetry_.ring().Clear();
  telemetry_.ClearHistograms();
  profiler_.Reset();

  audit_.Recovery(recovery_span, recovered_seq);
  TYCHE_LOG(kWarn) << "monitor recovered to journal seq " << recovered_seq << " ("
                   << (have_snapshot ? "snapshot + suffix replay" : "full replay")
                   << ", recovery #" << counters_[kStatRecoveries].Value() << ")";
  return OkStatus();
}

Status RestoreSnapshotEngine(std::span<const uint8_t> snapshot_bytes,
                             CapabilityEngine* engine) {
  MonitorImage image;
  TYCHE_RETURN_IF_ERROR(DecodeMonitorImage(snapshot_bytes, &image));
  return engine->Restore(image.engine);
}

Result<BootOutcome> MeasuredRecovery(Machine* machine, const BootParams& params,
                                     std::span<const uint8_t> snapshot_bytes,
                                     const ParsedJournal& journal) {
  // The crash rebooted the platform: PCR banks are back to zero, so the
  // re-measured boot of the same image reproduces the golden PCR values and
  // tier-1 attestation works unchanged after recovery.
  machine->tpm().Reset();
  TYCHE_ASSIGN_OR_RETURN(BootOutcome outcome, PrepareMonitor(machine, params));
  TYCHE_RETURN_IF_ERROR(outcome.monitor->Recover(snapshot_bytes, journal));
  outcome.initial_domain = 0;
  return outcome;
}

}  // namespace tyche
