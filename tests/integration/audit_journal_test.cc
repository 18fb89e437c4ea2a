// Copyright 2026 The Tyche Reproduction Authors.
// End-to-end audit journal: a circular-sharing workload with a cascading
// revocation is driven through the register ABI, the exported journal is
// verified offline (chain, checkpoint signatures, shadow replay against the
// capability-graph snapshot), and then randomized tampering -- byte flips,
// record drops, record swaps -- must be caught on every single trial. Edits
// that are re-chained and re-signed with the monitor's own key (an effect
// digest, the retired kEffect event) must still fail replay, and the record
// count of one share+revoke pair and of one enclave launch is pinned, as is
// which dispatches fold their boundary into their first record.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/monitor/attestation.h"
#include "src/monitor/audit.h"
#include "src/monitor/dispatch.h"
#include "src/support/faults.h"
#include "src/support/prng.h"
#include "src/tyche/enclave.h"
#include "src/tyche/graph_export.h"
#include "src/tyche/verifier.h"
#include "tests/testing/booted_machine.h"
#include "tools/journal_reseal.h"

namespace tyche {
namespace {

class AuditJournalTest : public BootedMachineTest {
 protected:
  ApiResult Call(CoreId core, ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                 uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0) {
    ApiRegs regs;
    regs.op = static_cast<uint64_t>(op);
    regs.arg0 = a0;
    regs.arg1 = a1;
    regs.arg2 = a2;
    regs.arg3 = a3;
    regs.arg4 = a4;
    regs.arg5 = a5;
    return Dispatch(monitor_.get(), core, regs);
  }

  static uint64_t Pack(uint8_t rights, uint8_t policy) {
    return (static_cast<uint64_t>(rights) << 8) | policy;
  }

  // Runs the workload: OS creates A and B, hands each a handle to the other,
  // then memory flows OS -> A -> B -> A (circular over one window) before the
  // OS revokes the root share and the whole loop cascades away.
  void RunCircularWorkload() {
    const ApiResult created_a = Call(0, ApiOp::kCreateDomain);
    const ApiResult created_b = Call(0, ApiOp::kCreateDomain);
    ASSERT_EQ(created_a.error, 0u);
    ASSERT_EQ(created_b.error, 0u);
    const DomainId domain_a = created_a.ret0;
    const DomainId domain_b = created_b.ret0;
    const CapId handle_a = created_a.ret1;
    const CapId handle_b = created_b.ret1;

    // A needs a handle to B (and vice versa) to name it as a destination.
    const ApiResult b_for_a =
        Call(0, ApiOp::kShareUnit, handle_b, handle_a, Pack(CapRights::kAll, 0));
    const ApiResult a_for_b =
        Call(0, ApiOp::kShareUnit, handle_a, handle_b, Pack(CapRights::kAll, 0));
    ASSERT_EQ(b_for_a.error, 0u);
    ASSERT_EQ(a_for_b.error, 0u);

    const AddrRange window = Scratch(kMiB, 16 * kPageSize);
    const ApiResult to_a =
        Call(0, ApiOp::kShareMemory, OsMemCap(window), handle_a, window.base, window.size,
             Perms::kRW, Pack(CapRights::kAll, 0));
    ASSERT_EQ(to_a.error, 0u);

    // A forwards half of it to B; B hands a quarter back to A: a cycle in
    // the domain graph, still a tree in the lineage graph.
    machine_->cpu(1).set_current_domain(domain_a);
    const ApiResult to_b = Call(1, ApiOp::kShareMemory, to_a.ret0, b_for_a.ret0,
                                window.base, 8 * kPageSize, Perms::kRW,
                                Pack(CapRights::kAll, 0));
    ASSERT_EQ(to_b.error, 0u);
    machine_->cpu(2).set_current_domain(domain_b);
    const ApiResult back_to_a = Call(2, ApiOp::kShareMemory, to_b.ret0, a_for_b.ret0,
                                     window.base, 4 * kPageSize, Perms::kRW,
                                     Pack(CapRights::kAll, 0));
    ASSERT_EQ(back_to_a.error, 0u);

    // Revoking the root share cascades through the whole loop.
    const ApiResult revoked = Call(0, ApiOp::kRevoke, to_a.ret0);
    ASSERT_EQ(revoked.error, 0u);
    root_share_ = to_a.ret0;
    loop_caps_ = {to_a.ret0, to_b.ret0, back_to_a.ret0};
  }

  // The monitor's private key, re-derived the way MeasuredBoot derives it.
  SchnorrKeyPair MonitorKey() const {
    return DeriveMonitorKey(machine_->config().endorsement_seed, golden_monitor_);
  }

  // The workload's exported journal with `edit` applied to the record at
  // `at`, re-chained and re-signed so that only replay can refuse it.
  std::vector<uint8_t> Resealed(const ParsedJournal& parsed, size_t at,
                                void (*edit)(JournalRecord*)) const {
    std::vector<JournalRecord> records = parsed.records;
    edit(&records[at]);
    return ResealJournal(std::move(records), at, parsed.checkpoints, MonitorKey());
  }

  CapId root_share_ = kInvalidCap;
  std::vector<CapId> loop_caps_;
};

bool CarriesEffects(const JournalRecord& record) {
  switch (static_cast<JournalEvent>(record.event)) {
    case JournalEvent::kShareMemory:
    case JournalEvent::kGrantMemory:
    case JournalEvent::kShareUnit:
    case JournalEvent::kGrantUnit:
    case JournalEvent::kRevoke:
    case JournalEvent::kPurgeDomain:
      return true;
    default:
      return false;
  }
}

TEST(EffectsDigestTest, MatchesAnOutsideComputation) {
  // Recorded with Python's hashlib over hand-written canonical bytes:
  //   import hashlib, struct
  //   def eff(kind, domain, resource, base, size, unit, perms):
  //       return struct.pack("<BIBQQQB", kind, domain, resource, base, size, unit, perms)
  //   def digest(effects):
  //       data = b"tyche-effects-v1" + b"".join(eff(*e) for e in effects)
  //       return hex(int.from_bytes(hashlib.sha256(data).digest()[:8], "little"))
  //   digest([(0, 2, 0, 0x200000, 0x4000, 0, 3)])                 # one map
  //   digest([(0, 2, 0, 0x200000, 0x4000, 0, 3), (5, 7, 2, 0, 0, 0x18, 0)])
  //   digest([(i % 6, i, i % 4, i << 12, 0x1000, i, i % 8) for i in range(20)])
  const CapEffect map{CapEffect::Kind::kMapMemory, 2, ResourceKind::kMemory,
                      AddrRange{0x200000, 0x4000}, 0, Perms(Perms::kRW)};
  const CapEffect detach{CapEffect::Kind::kDetachUnit, 7, ResourceKind::kPciDevice,
                         AddrRange{}, 0x18, Perms{}};
  const std::vector<CapEffect> one = {map};
  const std::vector<CapEffect> two = {map, detach};
  const std::vector<CapEffect> reversed = {detach, map};
  EXPECT_EQ(EffectsDigest(one), 0x99d46fb0995bf36cULL);
  EXPECT_EQ(EffectsDigest(two), 0xf7d639fce12d8a6dULL);
  EXPECT_NE(EffectsDigest(reversed), EffectsDigest(two));  // list order is hashed
  EXPECT_EQ(EffectsDigest({}), 0u);                         // no effects, no hash
  // Twenty effects: 636 hashed bytes, eleven SHA-256 blocks with padding.
  std::vector<CapEffect> many;
  for (uint32_t i = 0; i < 20; ++i) {
    many.push_back(CapEffect{static_cast<CapEffect::Kind>(i % 6), i,
                             static_cast<ResourceKind>(i % 4),
                             AddrRange{uint64_t{i} << 12, 0x1000}, i,
                             Perms(static_cast<uint8_t>(i % 8))});
  }
  EXPECT_EQ(EffectsDigest(many), 0xea1939253f70c4d5ULL);
}

TEST_F(AuditJournalTest, ReplayReproducesGraphAndSpansTieTheCascade) {
  RunCircularWorkload();

  const std::string graph_json = ExportCapabilityGraphJson(monitor_->engine());
  const std::vector<uint8_t> wire = monitor_->ExportJournal();
  EXPECT_TRUE(VerifyJournal(wire, {}, monitor_->public_key(), &graph_json).ok());

  // The cascade is causally tied to its root: the kRevoke record and one
  // kCascade record per deactivated capability share a single span id.
  const std::vector<JournalRecord> records = monitor_->audit().journal().Records();
  const JournalRecord* revoke = nullptr;
  for (const JournalRecord& record : records) {
    if (record.event == static_cast<uint8_t>(JournalEvent::kRevoke) &&
        record.cap == root_share_) {
      revoke = &record;
    }
  }
  ASSERT_NE(revoke, nullptr);
  EXPECT_EQ(revoke->aux, loop_caps_.size());  // three caps in the loop
  std::vector<CapId> cascaded;
  for (const JournalRecord& record : records) {
    if (record.event == static_cast<uint8_t>(JournalEvent::kCascade) &&
        record.span == revoke->span) {
      EXPECT_EQ(record.parent, root_share_);
      cascaded.push_back(record.cap);
    }
  }
  std::sort(cascaded.begin(), cascaded.end());
  std::vector<CapId> expected = loop_caps_;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(cascaded, expected);

  // Direct replay agrees with the snapshot byte for byte and skipped only
  // the context records: the dispatch records of the creates and of one
  // failed revoke (the root share is already gone), which writes nothing
  // else.
  ASSERT_NE(Call(0, ApiOp::kRevoke, root_share_).error, 0u);
  const auto parsed = Journal::Deserialize(monitor_->ExportJournal());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->records.back().event, static_cast<uint8_t>(JournalEvent::kDispatch));
  const auto dispatches = std::count_if(
      parsed->records.begin(), parsed->records.end(), [](const JournalRecord& record) {
        return record.event == static_cast<uint8_t>(JournalEvent::kDispatch);
      });
  CapabilityEngine shadow;
  const auto replay = ReplayJournalInto(&shadow, parsed->records);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(ExportCapabilityGraphJson(shadow), graph_json);
  EXPECT_GT(replay->applied, 0u);
  EXPECT_GT(replay->skipped, 0u);
  EXPECT_EQ(replay->skipped, static_cast<uint64_t>(dispatches));
  EXPECT_EQ(replay->applied + replay->skipped, parsed->records.size());
}

TEST_F(AuditJournalTest, EveryRandomizedTamperIsCaught) {
  RunCircularWorkload();
  const std::vector<uint8_t> wire = monitor_->ExportJournal();
  const SchnorrPublicKey key = monitor_->public_key();
  ASSERT_TRUE(VerifyJournal(wire, {}, key, nullptr).ok());
  const auto parsed = Journal::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  ASSERT_GE(parsed->records.size(), 10u);

  // A tamper "counts as caught" if either deserialization or verification
  // rejects it; acceptance of any mutated journal is a test failure.
  const auto caught = [&](const std::vector<uint8_t>& bytes) {
    return !VerifyJournal(bytes, {}, key, nullptr).ok();
  };

  Prng prng(0x7a3c);
  int trials = 0;
  for (int i = 0; i < 40; ++i, ++trials) {  // single-bit flips anywhere
    std::vector<uint8_t> tampered = wire;
    const size_t at = prng.Below(tampered.size());
    tampered[at] ^= static_cast<uint8_t>(1u << prng.Below(8));
    EXPECT_TRUE(caught(tampered)) << "bit flip at byte " << at << " accepted";
  }
  for (int i = 0; i < 35; ++i, ++trials) {  // drop one record
    std::vector<JournalRecord> records = parsed->records;
    const size_t at = prng.Below(records.size());
    records.erase(records.begin() + at);
    EXPECT_TRUE(caught(Journal::SerializeParts(records, parsed->checkpoints)))
        << "dropping record " << at << " accepted";
  }
  for (int i = 0; i < 35; ++i, ++trials) {  // swap two records
    std::vector<JournalRecord> records = parsed->records;
    const size_t a = prng.Below(records.size());
    size_t b = prng.Below(records.size());
    while (b == a) {
      b = prng.Below(records.size());
    }
    std::swap(records[a], records[b]);
    EXPECT_TRUE(caught(Journal::SerializeParts(records, parsed->checkpoints)))
        << "swapping records " << a << " and " << b << " accepted";
  }
  EXPECT_GE(trials, 100);
}

TEST_F(AuditJournalTest, ResealedEffectDigestEditFailsReplay) {
  RunCircularWorkload();
  const std::vector<uint8_t> wire = monitor_->ExportJournal();
  ASSERT_EQ(MonitorKey().pub, monitor_->public_key());
  const auto parsed = Journal::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  // Every record of the workload that carries an effect digest: the unit
  // shares, the memory shares and the revoke.
  int edited = 0;
  for (size_t at = 0; at < parsed->records.size(); ++at) {
    if (!CarriesEffects(parsed->records[at])) {
      continue;
    }
    SCOPED_TRACE("record " + std::to_string(at));
    EXPECT_NE(PackedEffectsDigest(parsed->records[at]), 0u);
    const std::vector<uint8_t> forged =
        Resealed(*parsed, at, [](JournalRecord* record) { record->result ^= 1; });
    // The chain and every signature still verify...
    const auto reparsed = Journal::Deserialize(forged);
    ASSERT_TRUE(reparsed.ok());
    EXPECT_TRUE(
        Journal::VerifyChain(reparsed->records, reparsed->checkpoints, monitor_->public_key())
            .ok());
    // ...but the shadow engine's effects do not digest to the edited value.
    const Status status = VerifyJournal(forged, {}, monitor_->public_key(), nullptr);
    EXPECT_EQ(status.code(), ErrorCode::kJournalReplayDivergence) << status.ToString();
    EXPECT_NE(status.message().find("effect digest mismatch"), std::string::npos)
        << status.ToString();
    ++edited;
  }
  EXPECT_GE(edited, 5);
}

TEST_F(AuditJournalTest, ResealedShareRemainderCountFailsReplay) {
  RunCircularWorkload();
  const auto parsed = Journal::Deserialize(monitor_->ExportJournal());
  ASSERT_TRUE(parsed.ok());
  // A share mints no remainders, so its record's remainder count must be 0.
  const auto share = std::find_if(
      parsed->records.begin(), parsed->records.end(), [](const JournalRecord& record) {
        return record.event == static_cast<uint8_t>(JournalEvent::kShareMemory);
      });
  ASSERT_NE(share, parsed->records.end());
  ASSERT_EQ(share->aux, 0u);
  const std::vector<uint8_t> forged =
      Resealed(*parsed, static_cast<size_t>(share - parsed->records.begin()),
               [](JournalRecord* record) { record->aux = 1; });
  const Status status = VerifyJournal(forged, {}, monitor_->public_key(), nullptr);
  EXPECT_EQ(status.code(), ErrorCode::kJournalReplayDivergence) << status.ToString();
}

TEST_F(AuditJournalTest, RetiredAndUnknownEventsFailReplay) {
  RunCircularWorkload();
  // A failed revoke writes one context record: its dispatch boundary.
  ASSERT_NE(Call(0, ApiOp::kRevoke, root_share_).error, 0u);
  const auto parsed = Journal::Deserialize(monitor_->ExportJournal());
  ASSERT_TRUE(parsed.ok());
  const size_t dispatch = parsed->records.size() - 1;
  ASSERT_EQ(parsed->records[dispatch].event, static_cast<uint8_t>(JournalEvent::kDispatch));
  // A context record re-labelled as the retired kEffect...
  Status status = VerifyJournal(Resealed(*parsed, dispatch,
                                         [](JournalRecord* record) {
                                           record->event =
                                               static_cast<uint8_t>(JournalEvent::kEffect);
                                         }),
                                {}, monitor_->public_key(), nullptr);
  EXPECT_EQ(status.code(), ErrorCode::kJournalReplayDivergence) << status.ToString();
  EXPECT_NE(status.message().find("retired effect record"), std::string::npos);
  // ...and as an event number past the last one are both refused.
  status = VerifyJournal(Resealed(*parsed, dispatch,
                                  [](JournalRecord* record) {
                                    record->event = static_cast<uint8_t>(
                                        static_cast<uint8_t>(JournalEvent::kEventCount) + 3);
                                  }),
                         {}, monitor_->public_key(), nullptr);
  EXPECT_EQ(status.code(), ErrorCode::kJournalReplayDivergence) << status.ToString();
  EXPECT_NE(status.message().find("unknown event"), std::string::npos);
}

TEST_F(AuditJournalTest, RecordCountsPerOperationArePinned) {
  Journal& journal = monitor_->audit().journal();
  const auto count = [&journal](JournalEvent event) { return journal.EventCount(event); };

  // One share+revoke pair through Dispatch(), as perfbench's cap_churn runs
  // it: one mutation record each, plus the revoke's cascade record. Each
  // mutation record names the caller, so it carries the call's op and
  // stands as its dispatch boundary; a separate kDispatch record per call
  // made it 5. The effect lists (one map, one unmap) ride in the mutation
  // records as digests; version 2 wrote them as two more records.
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const AddrRange window = Scratch(kMiB, kPageSize);
  size_t before = journal.size();
  const ApiResult shared = Call(0, ApiOp::kShareMemory, OsMemCap(window), created.ret1,
                                window.base, window.size, Perms::kRW,
                                Pack(CapRights::kAll, 0));
  ASSERT_EQ(shared.error, 0u);
  ASSERT_EQ(Call(0, ApiOp::kRevoke, shared.ret0).error, 0u);
  EXPECT_EQ(journal.size() - before, 3u);
  EXPECT_EQ(count(JournalEvent::kEffect), 0u);

  // One enclave launch and teardown (16 KiB, one 8 KiB measured segment,
  // one core), as perfbench's enclave_lifecycle runs it: register, handle
  // mint, the memory grants, the core share, the seal, then the purge and
  // its cascades. Version 2 wrote 15 more, one per effect.
  TycheImage image("pinned");
  ImageSegment text;
  text.name = "text";
  text.size = 8 * 1024;
  text.perms = Perms(Perms::kRWX);
  text.measured = true;
  text.data.assign(4 * 1024, 0x5a);
  ASSERT_TRUE(image.AddSegment(std::move(text)).ok());
  image.set_entry_offset(0);
  LoadOptions load;
  load.base = Scratch(2 * kMiB, 16 * 1024).base;
  load.size = 16 * 1024;
  load.cores = {1};
  load.core_caps = {OsCoreCap(1)};
  before = journal.size();
  auto enclave = Enclave::Create(monitor_.get(), 0, image, load);
  ASSERT_TRUE(enclave.ok()) << enclave.status().ToString();
  ASSERT_TRUE(monitor_->DestroyDomain(0, enclave->handle()).ok());
  EXPECT_EQ(journal.size() - before, 11u);
  EXPECT_EQ(count(JournalEvent::kEffect), 0u);

  // Both still verify and replay to the live graph.
  const std::string graph_json = ExportCapabilityGraphJson(monitor_->engine());
  EXPECT_TRUE(VerifyJournal(monitor_->ExportJournal(), {}, monitor_->public_key(), &graph_json)
                  .ok());
}

TEST_F(AuditJournalTest, DispatchBoundaryFoldsIntoTheFirstRecordNamingTheCaller) {
  Journal& journal = monitor_->audit().journal();
  const auto appended = [&journal](size_t before) {
    const std::vector<JournalRecord> records = journal.Records();
    return std::vector<JournalRecord>(records.begin() + static_cast<ptrdiff_t>(before),
                                      records.end());
  };
  const auto event = [](const JournalRecord& record) {
    return static_cast<JournalEvent>(record.event);
  };
  const auto op = [](ApiOp api_op) { return static_cast<uint8_t>(api_op); };

  // A create's first record registers the new domain, not the caller: the
  // call keeps its own kDispatch record.
  size_t before = journal.size();
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  std::vector<JournalRecord> records = appended(before);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(event(records[0]), JournalEvent::kRegisterDomain);
  EXPECT_EQ(records[0].op, kJournalNoOp);
  EXPECT_EQ(event(records[1]), JournalEvent::kMintUnit);
  EXPECT_EQ(records[1].op, kJournalNoOp);
  EXPECT_EQ(event(records[2]), JournalEvent::kDispatch);
  EXPECT_EQ(records[2].op, op(ApiOp::kCreateDomain));
  EXPECT_EQ(records[2].domain, os_domain_);

  // A share writes one record: the mutation, naming the caller and the op.
  const AddrRange window = Scratch(kMiB, kPageSize);
  before = journal.size();
  const ApiResult shared = Call(0, ApiOp::kShareMemory, OsMemCap(window), created.ret1,
                                window.base, window.size, Perms::kRW,
                                Pack(CapRights::kAll, 0));
  ASSERT_EQ(shared.error, 0u);
  records = appended(before);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(event(records[0]), JournalEvent::kShareMemory);
  EXPECT_EQ(records[0].op, op(ApiOp::kShareMemory));
  EXPECT_EQ(records[0].domain, os_domain_);
  EXPECT_EQ(records[0].cap, shared.ret0);

  // A revoke: the op-stamped kRevoke and its unstamped kCascade.
  before = journal.size();
  ASSERT_EQ(Call(0, ApiOp::kRevoke, shared.ret0).error, 0u);
  records = appended(before);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(event(records[0]), JournalEvent::kRevoke);
  EXPECT_EQ(records[0].op, op(ApiOp::kRevoke));
  EXPECT_EQ(records[0].domain, os_domain_);
  EXPECT_EQ(event(records[1]), JournalEvent::kCascade);
  EXPECT_EQ(records[1].op, kJournalNoOp);
  EXPECT_EQ(records[0].span, records[1].span);

  // A failing share (its source was just revoked) writes one kDispatch
  // carrying its error and args digest.
  before = journal.size();
  const ApiResult failed = Call(0, ApiOp::kShareMemory, shared.ret0, created.ret1,
                                window.base, window.size, Perms::kRW,
                                Pack(CapRights::kAll, 0));
  ASSERT_NE(failed.error, 0u);
  records = appended(before);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(event(records[0]), JournalEvent::kDispatch);
  EXPECT_EQ(records[0].op, op(ApiOp::kShareMemory));
  EXPECT_EQ(records[0].domain, os_domain_);
  EXPECT_EQ(records[0].result, failed.error);
  EXPECT_NE(records[0].aux, 0u);

  // A read-only attest writes one kDispatch.
  const AddrRange out = Scratch(2 * kMiB, kPageSize);
  before = journal.size();
  const ApiResult attested =
      Call(0, ApiOp::kAttestDomain, /*self=*/0, /*nonce=*/7, out.base, out.size);
  ASSERT_EQ(attested.error, 0u);
  records = appended(before);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(event(records[0]), JournalEvent::kDispatch);
  EXPECT_EQ(records[0].op, op(ApiOp::kAttestDomain));
  EXPECT_EQ(records[0].result, 0u);

  // The folded journal still verifies and replays to the live graph.
  const std::string graph_json = ExportCapabilityGraphJson(monitor_->engine());
  EXPECT_TRUE(VerifyJournal(monitor_->ExportJournal(), {}, monitor_->public_key(), &graph_json)
                  .ok());
}

TEST_F(AuditJournalTest, DisabledJournalStillDispatches) {
  monitor_->audit().set_enabled(false);
  const size_t before = monitor_->audit().journal().size();
  const ApiResult created = Call(0, ApiOp::kCreateDomain);
  EXPECT_EQ(created.error, 0u);
  EXPECT_EQ(monitor_->audit().journal().size(), before);
}

// Every canonical field of a record but its tick and link, on one line.
std::string DescribeRecord(const JournalRecord& r) {
  char line[320];
  std::snprintf(line, sizeof(line),
                "%llu span=%llu %s op=%u dom=%u dst=%u res=%u perms=%u rights=%u policy=%u "
                "cap=%llu parent=%llu base=%#llx size=%#llx result=%#llx aux=%llu",
                static_cast<unsigned long long>(r.seq), static_cast<unsigned long long>(r.span),
                JournalEventName(static_cast<JournalEvent>(r.event)), r.op, r.domain, r.dst,
                r.resource, r.perms, r.rights, r.policy, static_cast<unsigned long long>(r.cap),
                static_cast<unsigned long long>(r.parent),
                static_cast<unsigned long long>(r.base), static_cast<unsigned long long>(r.size),
                static_cast<unsigned long long>(r.result),
                static_cast<unsigned long long>(r.aux));
  return line;
}

// The records of one delegation workload driven through Dispatch(), pinned
// field by field on both backends: a memory share, a memory grant that
// leaves two remainders, a core share, a device grant, and a share whose
// hardware projection fails and is rolled back.
class DelegationRecordTest : public ::testing::TestWithParam<IsaArch>, public BootedMachine {
 protected:
  DelegationRecordTest() : BootedMachine(FixtureOptions{.arch = GetParam(), .with_nic = true}) {}

  ApiResult Call(ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0, uint64_t a3 = 0,
                 uint64_t a4 = 0, uint64_t a5 = 0) {
    return Dispatch(monitor_.get(), 0, ApiRegs{static_cast<uint64_t>(op), a0, a1, a2, a3, a4, a5});
  }
};

TEST_P(DelegationRecordTest, EveryDelegationRecordIsPinned) {
  const ApiResult created = Call(ApiOp::kCreateDomain);
  ASSERT_EQ(created.error, 0u);
  const CapId handle = created.ret1;
  Journal& journal = monitor_->audit().journal();
  const size_t before = journal.size();

  const AddrRange shared = Scratch(kMiB, 4 * kPageSize);
  ASSERT_EQ(Call(ApiOp::kShareMemory, OsMemCap(shared), handle, shared.base, shared.size,
                 Perms::kRW, (CapRights::kShare | CapRights::kRevoke) << 8 |
                                 RevocationPolicy::kZeroMemory)
                .error,
            0u);
  const AddrRange granted = Scratch(2 * kMiB, 2 * kPageSize);
  ASSERT_EQ(Call(ApiOp::kGrantMemory, OsMemCap(granted), handle, granted.base, granted.size,
                 Perms::kRX, uint64_t{CapRights::kAll} << 8 | RevocationPolicy::kObfuscate)
                .error,
            0u);
  ASSERT_EQ(Call(ApiOp::kShareUnit, OsCoreCap(1), handle, uint64_t{CapRights::kShare} << 8).error,
            0u);
  ASSERT_EQ(Call(ApiOp::kGrantUnit, OsDeviceCap(kNicBdf.value), handle,
                 uint64_t{CapRights::kAll} << 8 | RevocationPolicy::kFlushCache)
                .error,
            0u);
  {
    // The first memory sync fails, so the share is rolled back: the share
    // record, the compensating revoke and cascade, the abort, the boundary.
    ScopedFaultPlan plan(FaultPlan::Single(
        GetParam() == IsaArch::kX86_64 ? faults::kVtxSyncMemory : faults::kPmpRecompile, 1));
    const AddrRange failed = Scratch(3 * kMiB, kPageSize);
    ASSERT_NE(Call(ApiOp::kShareMemory, OsMemCap(failed), handle, failed.base, failed.size,
                   Perms::kRead, uint64_t{CapRights::kAll} << 8)
                  .error,
              0u);
  }

  std::vector<std::string> lines;
  const std::vector<JournalRecord> records = journal.Records();
  for (size_t at = before; at < records.size(); ++at) {
    lines.push_back(DescribeRecord(records[at]));
  }
  // Both backends write the same records; only the injected failure's
  // error code (the fault site's default) differs.
  const std::string error = GetParam() == IsaArch::kX86_64 ? "0x11" : "0x12";
  const std::vector<std::string> golden = {
      "10 span=3 share_memory op=2 dom=0 dst=1 res=0 perms=3 rights=5 policy=1 cap=8 parent=1 "
      "base=0x500000 size=0x4000 result=0x238cf654c6ce7b18 aux=0",
      "11 span=4 grant_memory op=3 dom=0 dst=1 res=0 perms=5 rights=15 policy=3 cap=9 parent=1 "
      "base=0x600000 size=0x2000 result=0x67ea5ce079ef7843 aux=2",
      "12 span=5 share_unit op=4 dom=0 dst=1 res=1 perms=0 rights=1 policy=0 cap=12 parent=3 "
      "base=0x1 size=0 result=0x75ca3d1c9a1e421 aux=0",
      "13 span=6 grant_unit op=5 dom=0 dst=1 res=2 perms=0 rights=15 policy=2 cap=13 parent=6 "
      "base=0x18 size=0 result=0xa7b23b621129bf91 aux=0",
      "14 span=7 share_memory op=2 dom=0 dst=1 res=0 perms=1 rights=15 policy=0 cap=14 "
      "parent=11 base=0x700000 size=0x1000 result=0x64b95bf8dab5f1db aux=0",
      "15 span=7 revoke op=255 dom=1 dst=4294967295 res=0 perms=0 rights=0 policy=0 cap=14 "
      "parent=0 base=0 size=0 result=0xab440d8f33341abc aux=1",
      "16 span=7 cascade op=255 dom=1 dst=4294967295 res=0 perms=0 rights=0 policy=0 cap=14 "
      "parent=14 base=0 size=0 result=0 aux=0",
      "17 span=7 op_abort op=2 dom=0 dst=4294967295 res=0 perms=0 rights=0 policy=0 cap=0 "
      "parent=0 base=0 size=0 result=" + error + " aux=0",
      "18 span=7 dispatch op=2 dom=0 dst=4294967295 res=0 perms=0 rights=0 policy=0 cap=0 "
      "parent=0 base=0 size=0 result=" + error + " aux=8041448413447690445",
  };
  EXPECT_EQ(lines, golden);

  const std::string graph_json = ExportCapabilityGraphJson(monitor_->engine());
  EXPECT_TRUE(VerifyJournal(monitor_->ExportJournal(), {}, monitor_->public_key(), &graph_json)
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, DelegationRecordTest,
                         ::testing::Values(IsaArch::kX86_64, IsaArch::kRiscV),
                         [](const ::testing::TestParamInfo<IsaArch>& info) {
                           return info.param == IsaArch::kX86_64 ? "Vtx" : "Pmp";
                         });

}  // namespace
}  // namespace tyche
