// Copyright 2026 The Tyche Reproduction Authors.
// The migration sweep: live migration & failover of attested domains
// (DESIGN.md §11), fault-injected at every protocol stage.
//
// One clean migration runs per backend in fault-counting mode to discover
// how often each migration / channel site is reached. Every (site,
// occurrence) pair over {first, middle, last} is then injected into a fresh
// two-monitor world:
//
//   - migrate.* faults surface as typed errors and the migration rolls back
//     to the source: both monitors' engines hash identically to their
//     pre-migration state, the domain is alive and attestable on the
//     source, and nothing was adopted on the destination;
//   - channel.* faults are CONSUMED by the lossy wire (a dropped,
//     duplicated, or delayed frame) and the migration must still succeed
//     via the transfer stage's retry rounds, landing on engines that hash
//     identically to an unfaulted oracle migration.
//
// Either way the domain ends up whole on exactly one monitor. After a
// committed migration the destination's quote for the migrated domain
// verifies against the measurement attested on the SOURCE before the move
// (attestation continuity), and the two monitors' exported journals splice
// into one verifiable history (VerifyJournalSplice) — while tampered or
// mismatched journal pairs are rejected.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/monitor/attestation.h"
#include "src/monitor/migration.h"
#include "src/monitor/recovery.h"
#include "src/support/faults.h"
#include "src/support/snapshot.h"
#include "src/tyche/channel.h"
#include "src/tyche/loader.h"
#include "src/tyche/verifier.h"
#include "tests/testing/booted_machine.h"
#include "tests/testing/sweep_driver.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint64_t kMemoryBytes = 64ull << 20;
constexpr uint64_t kNonce = 0x5EED;

// A two-monitor world: the failover deployment. Both machines boot the SAME
// measured demo image, so both monitors derive the SAME attestation key —
// that key continuity is what keeps the migrated domain's quote verifiable.
struct World {
  explicit World(IsaArch arch)
      : source_side({.arch = arch, .memory_bytes = kMemoryBytes}),
        dest_side({.arch = arch, .memory_bytes = kMemoryBytes}) {}

  BootedMachine source_side;
  BootedMachine dest_side;
  Machine* source_machine = source_side.machine_.get();
  Machine* dest_machine = dest_side.machine_.get();
  Monitor* source = source_side.monitor_.get();
  Monitor* dest = dest_side.monitor_.get();
  DomainId source_os = source_side.os_domain_;
  DomainId dest_os = dest_side.os_domain_;

  // The migrating service domain, set up by BuildVictim.
  DomainId victim = kInvalidDomain;
  CapId victim_handle = kInvalidCap;
  AddrRange window;
  Digest victim_measurement;
  // Both engines before any migration: what a rollback must restore.
  Digest pre_source;
  Digest pre_dest;

  Result<MigrationTransferReport> report = Error(ErrorCode::kInternal, "not run");
};

// The victim: a sealed service with 4 exclusively-granted pages of secret
// state (zero-on-revoke) and an exclusively-granted core. Grant — not
// share — everywhere: migration refuses resources it cannot move whole.
bool BuildVictim(World* world) {
  Monitor* monitor = world->source;
  const auto created = monitor->CreateDomain(0, "svc");
  if (!created.ok()) {
    return false;
  }
  world->victim = created->domain;
  world->victim_handle = created->handle;

  world->window = AddrRange{monitor->monitor_range().end() + kMiB, 4 * kPageSize};
  std::vector<uint8_t> secret(world->window.size);
  for (size_t i = 0; i < secret.size(); ++i) {
    secret[i] = static_cast<uint8_t>(0xA5 ^ (i * 31));
  }
  if (!world->source_machine->memory().Write(world->window.base, secret).ok()) {
    return false;
  }

  const auto mem_cap = FindMemoryCap(*monitor, world->source_os, world->window);
  if (!mem_cap.ok()) {
    return false;
  }
  if (!monitor
           ->GrantMemory(0, *mem_cap, world->victim_handle, world->window,
                         Perms(Perms::kRWX), CapRights(CapRights::kAll),
                         RevocationPolicy(RevocationPolicy::kZeroMemory))
           .ok()) {
    return false;
  }
  const auto core_cap =
      FindUnitCap(*monitor, world->source_os, ResourceKind::kCpuCore, 3);
  if (!core_cap.ok() ||
      !monitor
           ->GrantUnit(0, *core_cap, world->victim_handle, CapRights(CapRights::kAll),
                       RevocationPolicy(0))
           .ok()) {
    return false;
  }
  if (!monitor->SetEntryPoint(0, world->victim_handle, world->window.base).ok() ||
      !monitor->ExtendMeasurement(0, world->victim_handle, world->window).ok() ||
      !monitor->Seal(0, world->victim_handle).ok()) {
    return false;
  }
  // The identity the customer verified BEFORE the failover.
  const auto report = monitor->AttestDomain(0, world->victim_handle, kNonce);
  if (!report.ok()) {
    return false;
  }
  world->victim_measurement = report->measurement;
  return true;
}

std::unique_ptr<World> MakeWorld(IsaArch arch) {
  auto world = std::make_unique<World>(arch);
  if (world->source->public_key().y != world->dest->public_key().y) {
    return nullptr;  // same measured image must derive the same key
  }
  if (!BuildVictim(world.get())) {
    return nullptr;
  }
  world->pre_source = EngineDigest(world->source->engine());
  world->pre_dest = EngineDigest(world->dest->engine());
  return world;
}

void Migrate(World& world) {
  LossyChannel channel;
  world.report = MigrateOver(world.source, world.dest, world.victim, &channel,
                             world.source->public_key());
}

// The full post-migration verification: the domain is live on exactly the
// destination, its pages moved (and were scrubbed at the source by the
// zero-on-revoke policy), its quote still verifies against the
// pre-migration measurement, and the journals splice.
void ExpectMigrated(World* world, const MigrationReport& report) {
  Monitor* source = world->source;
  Monitor* dest = world->dest;
  EXPECT_FALSE(source->migration_in_progress());
  EXPECT_FALSE(dest->migration_in_progress());
  EXPECT_EQ(source->num_domains_alive(), 1u) << "victim still alive on the source";
  EXPECT_EQ(dest->num_domains_alive(), 2u) << "victim not adopted on the destination";

  // The secret pages moved whole; the source copies were zeroed.
  std::vector<uint8_t> dest_bytes(world->window.size);
  std::vector<uint8_t> source_bytes(world->window.size);
  ASSERT_TRUE(world->dest_machine->memory().Read(world->window.base, dest_bytes).ok());
  ASSERT_TRUE(world->source_machine->memory().Read(world->window.base, source_bytes).ok());
  bool pattern_ok = true;
  bool zeroed = true;
  for (size_t i = 0; i < dest_bytes.size(); ++i) {
    pattern_ok &= dest_bytes[i] == static_cast<uint8_t>(0xA5 ^ (i * 31));
    zeroed &= source_bytes[i] == 0;
  }
  EXPECT_TRUE(pattern_ok) << "migrated pages do not carry the source contents";
  EXPECT_TRUE(zeroed) << "zero-on-revoke did not scrub the source pages";

  // Attestation continuity: the DESTINATION quote verifies against the
  // measurement the customer pinned on the SOURCE before the failover.
  const auto handle =
      FindUnitCap(*dest, world->dest_os, ResourceKind::kDomain, report.dest_domain);
  ASSERT_TRUE(handle.ok()) << "destination OS holds no handle for the migrated domain";
  const auto quote = dest->AttestDomain(0, *handle, kNonce + 1);
  ASSERT_TRUE(quote.ok()) << quote.status().ToString();
  RemoteVerifier verifier(world->dest_machine->tpm().attestation_key(),
                          world->source_side.golden_firmware_,
                          world->source_side.golden_monitor_);
  const auto identity = dest->Identity(kNonce + 2);
  ASSERT_TRUE(identity.ok());
  ASSERT_TRUE(verifier.VerifyMonitor(*identity, kNonce + 2).ok());
  EXPECT_TRUE(verifier
                  .VerifyDomain(*quote, dest->public_key(), kNonce + 1,
                                &world->victim_measurement)
                  .ok())
      << "migrated domain's quote no longer matches the pre-migration identity";

  // Both hardware planes are still projections of their trees.
  const auto source_ok = source->AuditHardwareConsistency();
  const auto dest_ok = dest->AuditHardwareConsistency();
  ASSERT_TRUE(source_ok.ok() && dest_ok.ok());
  EXPECT_TRUE(*source_ok && *dest_ok);

  // The two journals splice into one verifiable history.
  const Status splice =
      VerifyJournalSplice(source->ExportJournal(), dest->ExportJournal(),
                          source->public_key(), dest->public_key());
  EXPECT_TRUE(splice.ok()) << splice.ToString();
}

// A channel fault is CONSUMED by the lossy wire; a migrate.* stage fault
// surfaces as a typed error and rolls the migration back to the source.
void CheckMigration(World& world, const FaultSpec* fault, const World& clean) {
  Monitor* source = world.source;
  Monitor* dest = world.dest;
  if (fault == nullptr || fault->site.starts_with("channel.")) {
    // A lossy wire is weather, not failure: the retry rounds absorb it and
    // the migration lands on exactly the clean migration's state.
    ASSERT_TRUE(world.report.ok()) << world.report.status().ToString();
    if (fault != nullptr && fault->site == faults::kChannelDrop) {
      EXPECT_GE(world.report->retries, 1u) << "a dropped frame must cost a retry round";
    }
    ExpectMigrated(&world, world.report->migration);
    EXPECT_EQ(EngineDigest(source->engine()), EngineDigest(clean.source->engine()))
        << "faulted migration's source engine diverged from the oracle";
    EXPECT_EQ(EngineDigest(dest->engine()), EngineDigest(clean.dest->engine()))
        << "faulted migration's destination engine diverged from the oracle";
    return;
  }

  ASSERT_FALSE(world.report.ok()) << "stage fault unexpectedly succeeded";
  EXPECT_EQ(world.report.status().code(), fault->code) << world.report.status().ToString();
  EXPECT_FALSE(source->migration_in_progress()) << "domain left frozen";
  EXPECT_FALSE(dest->migration_in_progress());
  EXPECT_EQ(EngineDigest(source->engine()), world.pre_source)
      << "rollback did not restore the source engine";
  EXPECT_EQ(EngineDigest(dest->engine()), world.pre_dest)
      << "rollback did not restore the destination engine";
  EXPECT_EQ(source->num_domains_alive(), 2u);
  EXPECT_EQ(dest->num_domains_alive(), 1u);

  // The domain is fully serviceable again: attestable, and still migratable
  // — the same world completes a clean migration after the rollback.
  const auto quote = source->AttestDomain(0, world.victim_handle, kNonce + 3);
  ASSERT_TRUE(quote.ok()) << quote.status().ToString();
  EXPECT_EQ(quote->measurement, world.victim_measurement);
  Migrate(world);
  ASSERT_TRUE(world.report.ok()) << "post-rollback migration failed: "
                                 << world.report.status().ToString();
  ExpectMigrated(&world, world.report->migration);
}

const Sweep<World> kMigrationSweep = {
    .name = "migration",
    .sites = kMigrationSweepSites,
    .soak_seed = 0x5EEDCAFE,
    .soak_trials = 25,
    .fresh_world = MakeWorld,
    .workload = Migrate,
    .oracle = CheckMigration,
};

TEST(MigrationSweep, EveryStageEveryOccurrenceVtx) {
  RunGrid(kMigrationSweep, IsaArch::kX86_64);
}
TEST(MigrationSweep, EveryStageEveryOccurrencePmp) {
  RunGrid(kMigrationSweep, IsaArch::kRiscV);
}
TEST(MigrationSweep, RandomizedMigrationSoak) { RunSoak(kMigrationSweep, IsaArch::kX86_64); }
TEST(MigrationSweep, RandomizedMigrationSoakOnPmp) {
  RunSoak(kMigrationSweep, IsaArch::kRiscV);
}

// The journal splice rejects what it must: tampered bytes, cross-world
// journal pairs, and a destination that claims an adoption nobody handed
// off. (Exit-code mapping is covered by journal_verify's self-test.)
TEST(MigrationSweep, SpliceRejectsTamperAndMismatch) {
  auto world = MakeWorld(IsaArch::kX86_64);
  auto other = MakeWorld(IsaArch::kRiscV);
  ASSERT_TRUE(world != nullptr && other != nullptr);
  Migrate(*world);
  Migrate(*other);
  ASSERT_TRUE(world->report.ok() && other->report.ok());
  const std::vector<uint8_t> source_journal = world->source->ExportJournal();
  const std::vector<uint8_t> dest_journal = world->dest->ExportJournal();
  const SchnorrPublicKey key = world->source->public_key();
  ASSERT_TRUE(VerifyJournalSplice(source_journal, dest_journal, key, key).ok());

  // Any single flipped byte in either journal breaks the splice.
  for (const std::vector<uint8_t>* journal : {&source_journal, &dest_journal}) {
    std::vector<uint8_t> tampered = *journal;
    tampered[tampered.size() / 2] ^= 0x01;
    const Status verdict = journal == &source_journal
                               ? VerifyJournalSplice(tampered, dest_journal, key, key)
                               : VerifyJournalSplice(source_journal, tampered, key, key);
    EXPECT_FALSE(verdict.ok()) << "tampered journal spliced";
  }

  // A destination journal from a DIFFERENT world: its kMigrateIn does not
  // match this source's handoff (and vice versa the source kMigrateOut is
  // unmatched). Both directions must fail.
  EXPECT_FALSE(VerifyJournalSplice(source_journal, other->dest->ExportJournal(), key,
                                   other->source->public_key())
                   .ok());

  // A pristine journal pair WITHOUT the migration: the source never handed
  // anything off, so a lone destination adoption must be rejected.
  auto pristine = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(pristine, nullptr);
  EXPECT_FALSE(
      VerifyJournalSplice(pristine->source->ExportJournal(), dest_journal, key, key).ok());
}

// The freeze window: a frozen domain rejects operations BY it and ON it
// with the typed kMigrating error, and an in-flight migration excludes
// concurrent dispatch — in both directions.
TEST(MigrationSweep, FreezeWindowRejectsAndExcludes) {
  auto world = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  Monitor* source = world->source;

  FreezeDomainForTest(source, world->victim);
  EXPECT_TRUE(source->migration_in_progress());
  // ON it: operations targeting the frozen domain through its handle.
  EXPECT_EQ(source->AttestDomain(0, world->victim_handle, kNonce).status().code(),
            ErrorCode::kMigrating);
  EXPECT_EQ(source->Transition(3, world->victim_handle).code(), ErrorCode::kMigrating);
  // BY it: the frozen domain itself calling into the monitor.
  world->source_machine->cpu(3).set_current_domain(world->victim);
  EXPECT_EQ(source->CreateDomain(3, "child").status().code(), ErrorCode::kMigrating);
  world->source_machine->cpu(3).set_current_domain(world->source_os);
  // A migration in flight refuses concurrent dispatch...
  EXPECT_EQ(source->EnableConcurrentDispatch().code(), ErrorCode::kFailedPrecondition);

  UnfreezeDomainForTest(source, world->victim);
  EXPECT_FALSE(source->migration_in_progress());
  EXPECT_TRUE(source->AttestDomain(0, world->victim_handle, kNonce).ok());

  // ...and concurrent dispatch refuses migration (both monitors checked).
  ASSERT_TRUE(world->dest->EnableConcurrentDispatch().ok());
  LossyChannel channel;
  const auto refused = MigrateOver(source, world->dest, world->victim, &channel,
                                   source->public_key());
  EXPECT_EQ(refused.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(source->migration_in_progress());
}

// Migration preconditions: what must be refused outright at freeze.
TEST(MigrationSweep, FreezeRefusesUnmovableDomains) {
  auto world = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  Monitor* source = world->source;
  Monitor* dest = world->dest;
  LossyChannel channel;
  const auto migrate = [&](DomainId domain) {
    return MigrateOver(source, dest, domain, &channel, source->public_key()).status();
  };

  // Self-migration and the initial domain.
  LossyChannel self_channel;
  EXPECT_EQ(MigrateOver(source, source, world->victim, &self_channel,
                        source->public_key())
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(migrate(world->source_os).code(), ErrorCode::kFailedPrecondition);

  // An unsealed domain has no attested identity to preserve.
  const auto unsealed = source->CreateDomain(0, "unsealed");
  ASSERT_TRUE(unsealed.ok());
  EXPECT_EQ(migrate(unsealed->domain).code(), ErrorCode::kFailedPrecondition);

  // A domain with SHARED memory cannot move machines whole. (Sharing must
  // happen pre-seal: the sealing rules deny new transfers to a sealed
  // domain, so build a second sealed service around a shared page.)
  const AddrRange shared_window{world->window.end() + kMiB, kPageSize};
  const auto leaky = source->CreateDomain(0, "leaky");
  ASSERT_TRUE(leaky.ok());
  const auto shared_cap = FindMemoryCap(*source, world->source_os, shared_window);
  ASSERT_TRUE(shared_cap.ok());
  ASSERT_TRUE(source
                  ->ShareMemory(0, *shared_cap, leaky->handle, shared_window,
                                Perms(Perms::kRWX), CapRights(CapRights::kAll),
                                RevocationPolicy(0))
                  .ok());
  ASSERT_TRUE(source->SetEntryPoint(0, leaky->handle, shared_window.base).ok());
  ASSERT_TRUE(source->ExtendMeasurement(0, leaky->handle, shared_window).ok());
  ASSERT_TRUE(source->Seal(0, leaky->handle).ok());
  EXPECT_EQ(migrate(leaky->domain).code(), ErrorCode::kFailedPrecondition);

  // A running domain cannot be frozen mid-flight.
  world->source_machine->cpu(3).set_current_domain(world->victim);
  EXPECT_EQ(migrate(world->victim).code(), ErrorCode::kFailedPrecondition);
  world->source_machine->cpu(3).set_current_domain(world->source_os);

  // Every refusal left both worlds untouched and unfrozen.
  EXPECT_FALSE(source->migration_in_progress());
  EXPECT_FALSE(dest->migration_in_progress());
  EXPECT_EQ(dest->num_domains_alive(), 1u);
}

// A destination that cannot host the domain (missing covering resources)
// triggers the staged-restore rollback, not a half-adoption.
TEST(MigrationSweep, DestinationWithoutResourcesRollsBack) {
  auto world = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  Monitor* dest = world->dest;

  // The destination OS grants away the core the victim needs, to a local
  // domain, so no covering unit capability is left to carve the grant from.
  const auto hog = dest->CreateDomain(0, "hog");
  ASSERT_TRUE(hog.ok());
  const auto core_cap = FindUnitCap(*dest, world->dest_os, ResourceKind::kCpuCore, 3);
  ASSERT_TRUE(core_cap.ok());
  ASSERT_TRUE(dest->GrantUnit(0, *core_cap, hog->handle, CapRights(CapRights::kAll),
                              RevocationPolicy(0))
                  .ok());
  const Digest pre_source = EngineDigest(world->source->engine());
  const Digest pre_dest = EngineDigest(dest->engine());

  LossyChannel channel;
  const auto report = MigrateOver(world->source, dest, world->victim, &channel,
                                  world->source->public_key());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(EngineDigest(world->source->engine()), pre_source);
  EXPECT_EQ(EngineDigest(dest->engine()), pre_dest);
  EXPECT_FALSE(world->source->migration_in_progress());

  // A payload signed by a key the destination does not trust is rejected at
  // the staged restore (signature binding), and also rolls back clean.
  LossyChannel channel2;
  const std::vector<uint8_t> wrong_seed = {0xBA, 0xDC, 0x0D, 0xE0};
  const SchnorrPublicKey wrong_key = DeriveKeyPair(wrong_seed).pub;
  const auto forged = MigrateOver(world->source, dest, world->victim, &channel2,
                                  wrong_key);
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), ErrorCode::kSignatureInvalid);
  EXPECT_EQ(EngineDigest(world->source->engine()), pre_source);
  EXPECT_EQ(EngineDigest(dest->engine()), pre_dest);
}

// The destination journals its adopting grants in the order it made them,
// which is the payload's (capability id) order. A domain granted its core
// before its memory lists the core first, and the destination's journal
// must still replay.
TEST(MigrationSweep, CoreGrantedBeforeMemoryReplaysOnTheDestination) {
  World world(IsaArch::kX86_64);
  Monitor* source = world.source;
  const auto created = source->CreateDomain(0, "core-first");
  ASSERT_TRUE(created.ok());
  const auto core_cap = FindUnitCap(*source, world.source_os, ResourceKind::kCpuCore, 3);
  ASSERT_TRUE(core_cap.ok());
  ASSERT_TRUE(source
                  ->GrantUnit(0, *core_cap, created->handle, CapRights(CapRights::kAll),
                              RevocationPolicy(0))
                  .ok());
  const AddrRange window{source->monitor_range().end() + kMiB, 4 * kPageSize};
  const auto mem_cap = FindMemoryCap(*source, world.source_os, window);
  ASSERT_TRUE(mem_cap.ok());
  ASSERT_TRUE(source
                  ->GrantMemory(0, *mem_cap, created->handle, window, Perms(Perms::kRWX),
                                CapRights(CapRights::kAll), RevocationPolicy(0))
                  .ok());
  ASSERT_TRUE(source->SetEntryPoint(0, created->handle, window.base).ok());
  ASSERT_TRUE(source->Seal(0, created->handle).ok());

  const auto migrated = MigrateDomain(
      source, world.dest, created->domain,
      [](std::span<const uint8_t> payload, const Digest&) -> Result<std::vector<uint8_t>> {
        return std::vector<uint8_t>(payload.begin(), payload.end());
      },
      source->public_key());
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  const Status replayed =
      VerifyJournal(world.dest->ExportJournal(), {}, world.dest->public_key(), nullptr);
  EXPECT_TRUE(replayed.ok()) << replayed.ToString();
}

// A hostile carrier: integrity comes from the monitor, not from whoever moves
// the bytes. The carrier flips one byte inside each payload section in turn
// (state image, provenance journal, meta/signature) and re-seals the
// container's trailing commitment, so only the monitor's own checks can see
// the flip; then it truncates the payload, then returns it empty. Every
// variant is a typed refusal that rolls back clean, and an honest migration
// of the same world succeeds afterwards.
TEST(MigrationSweep, HostileCarrierIsRefusedAndRolledBack) {
  // Payload section tags, in capture order (src/monitor/migration.cc).
  constexpr uint32_t kStateSection = 1;
  constexpr uint32_t kJournalSection = 2;
  constexpr uint32_t kMetaSection = 3;
  constexpr size_t kCommitment = 32;  // trailing SHA-256 of the container
  const auto flip_in_section = [](uint32_t tag) {
    return [tag](std::vector<uint8_t>* bytes) {
      const auto view = SnapshotView::Parse(*bytes);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      const auto body = view->Section(tag);
      ASSERT_TRUE(body.ok() && !body->empty());
      (*bytes)[(body->data() - bytes->data()) + body->size() / 2] ^= 0x01;
      const size_t body_end = bytes->size() - kCommitment;
      const Digest commitment =
          Sha256::Hash(std::span<const uint8_t>(bytes->data(), body_end));
      std::copy(commitment.bytes.begin(), commitment.bytes.end(),
                bytes->begin() + static_cast<std::ptrdiff_t>(body_end));
    };
  };
  struct Variant {
    const char* name;
    std::function<void(std::vector<uint8_t>*)> edit;
    ErrorCode expected;
  };
  const Variant variants[] = {
      {"state image byte", flip_in_section(kStateSection), ErrorCode::kSignatureInvalid},
      {"journal byte", flip_in_section(kJournalSection), ErrorCode::kJournalChainBroken},
      {"meta byte", flip_in_section(kMetaSection), ErrorCode::kSignatureInvalid},
      {"truncated", [](std::vector<uint8_t>* bytes) { bytes->resize(bytes->size() / 2); },
       ErrorCode::kInvalidArgument},
      {"empty", [](std::vector<uint8_t>* bytes) { bytes->clear(); },
       ErrorCode::kInvalidArgument},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    auto world = MakeWorld(IsaArch::kX86_64);
    ASSERT_NE(world, nullptr);
    int calls = 0;
    const MigrationCarrier hostile =
        [&](std::span<const uint8_t> payload, const Digest&) -> Result<std::vector<uint8_t>> {
      ++calls;
      std::vector<uint8_t> bytes(payload.begin(), payload.end());
      variant.edit(&bytes);
      return bytes;
    };
    const auto refused = MigrateDomain(world->source, world->dest, world->victim, hostile,
                                       world->source->public_key());
    EXPECT_EQ(calls, 1) << "the monitor must call its carrier exactly once";
    ASSERT_FALSE(refused.ok()) << "a tampered payload was adopted";
    EXPECT_EQ(refused.status().code(), variant.expected) << refused.status().ToString();
    EXPECT_EQ(EngineDigest(world->source->engine()), world->pre_source);
    EXPECT_EQ(EngineDigest(world->dest->engine()), world->pre_dest);
    EXPECT_FALSE(world->source->migration_in_progress()) << "domain left frozen";
    EXPECT_FALSE(world->dest->migration_in_progress());
    EXPECT_EQ(world->dest->num_domains_alive(), 1u);

    const auto quote = world->source->AttestDomain(0, world->victim_handle, kNonce + 3);
    ASSERT_TRUE(quote.ok()) << quote.status().ToString();
    EXPECT_EQ(quote->measurement, world->victim_measurement);
    Migrate(*world);
    ASSERT_TRUE(world->report.ok()) << "honest migration after a hostile one failed: "
                                    << world->report.status().ToString();
    ExpectMigrated(world.get(), world->report->migration);
  }
}

// A replaying carrier: it keeps the payload of an attempt it fails, waits
// for the domain's state to move on, then hands the kept bytes to the next
// attempt. They are validly signed for the same domain under the same key,
// so only the check that the destination adopts THIS capture can refuse
// them; it does, and the migration rolls back clean.
TEST(MigrationSweep, HostileCarrierReplayIsRefusedAndRolledBack) {
  auto world = MakeWorld(IsaArch::kX86_64);
  ASSERT_NE(world, nullptr);
  Monitor* source = world->source;
  Monitor* dest = world->dest;

  std::vector<uint8_t> kept;
  const MigrationCarrier keep_and_fail =
      [&](std::span<const uint8_t> payload, const Digest&) -> Result<std::vector<uint8_t>> {
    kept.assign(payload.begin(), payload.end());
    return Error(ErrorCode::kUnavailable, "carrier lost the link");
  };
  const auto failed =
      MigrateDomain(source, dest, world->victim, keep_and_fail, source->public_key());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kUnavailable);
  ASSERT_FALSE(kept.empty());

  // The victim's state moves on: one byte of its first page changes.
  uint8_t original = 0;
  ASSERT_TRUE(world->source_machine->memory()
                  .Read(world->window.base, std::span<uint8_t>(&original, 1))
                  .ok());
  const uint8_t edited = original ^ 0xFF;
  ASSERT_TRUE(world->source_machine->memory()
                  .Write(world->window.base, std::span<const uint8_t>(&edited, 1))
                  .ok());
  std::vector<uint8_t> dest_window(world->window.size);
  ASSERT_TRUE(world->dest_machine->memory().Read(world->window.base, dest_window).ok());

  int calls = 0;
  const MigrationCarrier replay =
      [&](std::span<const uint8_t>, const Digest&) -> Result<std::vector<uint8_t>> {
    ++calls;
    return kept;
  };
  const auto replayed = MigrateDomain(source, dest, world->victim, replay, source->public_key());
  EXPECT_EQ(calls, 1);
  ASSERT_FALSE(replayed.ok()) << "a stale capture was adopted";
  EXPECT_EQ(replayed.status().code(), ErrorCode::kSignatureInvalid)
      << replayed.status().ToString();
  EXPECT_EQ(EngineDigest(source->engine()), world->pre_source);
  EXPECT_EQ(EngineDigest(dest->engine()), world->pre_dest);
  EXPECT_FALSE(source->migration_in_progress()) << "domain left frozen";
  EXPECT_FALSE(dest->migration_in_progress());
  EXPECT_EQ(dest->num_domains_alive(), 1u);
  uint8_t now = 0;
  ASSERT_TRUE(world->source_machine->memory()
                  .Read(world->window.base, std::span<uint8_t>(&now, 1))
                  .ok());
  EXPECT_EQ(now, edited) << "the source lost the domain's current state";
  std::vector<uint8_t> dest_after(world->window.size);
  ASSERT_TRUE(world->dest_machine->memory().Read(world->window.base, dest_after).ok());
  EXPECT_EQ(dest_after, dest_window) << "stale pages reached the destination";

  // Put the byte back so the post-migration check's page pattern holds; an
  // honest migration of the same world then lands whole.
  ASSERT_TRUE(world->source_machine->memory()
                  .Write(world->window.base, std::span<const uint8_t>(&original, 1))
                  .ok());
  Migrate(*world);
  ASSERT_TRUE(world->report.ok()) << world->report.status().ToString();
  ExpectMigrated(world.get(), world->report->migration);
}

// Satellite regression: snapshots and concurrent dispatch exclude each
// other SYMMETRICALLY — whichever starts first wins, in both orders.
TEST(MigrationSweep, SnapshotConcurrencyExclusionBothOrders) {
  // Order 1: concurrent dispatch live, then EnableSnapshots must refuse.
  {
    auto world = MakeWorld(IsaArch::kX86_64);
    ASSERT_NE(world, nullptr);
    ASSERT_TRUE(world->source->EnableConcurrentDispatch().ok());
    SnapshotStore store;
    EXPECT_EQ(world->source->EnableSnapshots(&store).code(),
              ErrorCode::kFailedPrecondition);
  }
  // Order 2: snapshots bound, then EnableConcurrentDispatch must refuse.
  {
    auto world = MakeWorld(IsaArch::kX86_64);
    ASSERT_NE(world, nullptr);
    SnapshotStore store;
    ASSERT_TRUE(world->source->EnableSnapshots(&store).ok());
    EXPECT_EQ(world->source->EnableConcurrentDispatch().code(),
              ErrorCode::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace tyche
