// Copyright 2026 The Tyche Reproduction Authors.
// Offline audit-journal verifier.
//
// With no arguments: self-test mode. Boots a simulated deployment that binds
// snapshots into its checkpoints, runs a sharing / revocation workload,
// exports the journal and verifies it both ways: from genesis (chain,
// checkpoint signatures, shadow replay against the graph snapshot) and
// anchored on a mid-workload snapshot (suffix replay on top of it). It then
// demonstrates tamper detection: a flipped journal byte, an effect digest
// edited and re-signed with the monitor's own key (exit code 5), an unbound
// snapshot (exit code 4) and a flipped graph byte (exit code 5) are all
// rejected.
//
// With arguments:
//   `journal_verify [--snapshot snap.bin] <journal.bin> <monitor_pubkey_y> [graph.json]`
// verifies a journal captured from a live run against the monitor's public
// key (the decimal y coordinate printed by the examples) and, optionally, a
// graph_export JSON snapshot file. `--snapshot` enables snapshot-anchored
// verification: the snapshot's digest must be bound into a signed
// checkpoint, and the journal suffix replays on top of its engine image —
// the only way to fully verify a journal compacted with TruncateBefore().
//
//   `journal_verify --splice <source.bin> <dest.bin> <source_pubkey_y> <dest_pubkey_y>`
// verifies the two journals of a live migration as one spliced custody
// chain: each chain on its own, then every kMigrateIn adoption paired with
// exactly one matching kMigrateOut handoff (payload digest and chain-link
// binding), with the source required to purge the domain afterwards.
//
// Exit codes:
//   0  verified
//   1  verification failed (unclassified)
//   2  usage / IO error
//   3  hash chain broken (record tamper, drop, reorder, missing anchor)
//   4  a checkpoint signature is invalid (or snapshot not bound to one)
//   5  replay divergence (journal and claimed state disagree)
//
// `--json` switches the verdict to a single machine-readable JSON object on
// stdout (chain length, checkpoint count, exit-code reason), for CI jobs
// that archive verification results as artifacts. Exit codes are unchanged.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/monitor/audit.h"
#include "src/monitor/boot.h"
#include "src/monitor/dispatch.h"
#include "src/monitor/recovery.h"
#include "src/os/testbed.h"
#include "src/tyche/channel.h"
#include "src/tyche/graph_export.h"
#include "src/tyche/loader.h"
#include "src/tyche/observe.h"
#include "src/tyche/verifier.h"
#include "tools/journal_reseal.h"

namespace tyche {
namespace {

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kJournalChainBroken:
      return 3;
    case ErrorCode::kJournalSignatureInvalid:
      return 4;
    case ErrorCode::kJournalReplayDivergence:
      return 5;
    default:
      return 1;
  }
}

const char* ReasonFor(int exit_code) {
  switch (exit_code) {
    case 0:
      return "ok";
    case 2:
      return "io_error";
    case 3:
      return "chain_broken";
    case 4:
      return "signature_invalid";
    case 5:
      return "replay_divergence";
    default:
      return "verification_failed";
  }
}

// Splice mode: two journals, two keys — verifies each chain and then the
// migration handoffs between them (VerifyJournalSplice, src/tyche/verifier).
int VerifySplice(const char* source_path, const char* dest_path, const char* source_key_str,
                 const char* dest_key_str, bool json);

// The machine-readable verdict, one JSON object on stdout. `error` is a
// human-oriented status string.
void PrintJsonVerdict(int exit_code, size_t records, size_t checkpoints,
                      bool snapshot_anchored, bool graph_replay,
                      const std::string& error) {
  std::printf(
      "{\"verified\":%s,\"exit_code\":%d,\"reason\":\"%s\",\"records\":%zu,"
      "\"checkpoints\":%zu,\"snapshot_anchored\":%s,\"graph_replay\":%s,"
      "\"error\":\"%s\"}\n",
      exit_code == 0 ? "true" : "false", exit_code, ReasonFor(exit_code), records,
      checkpoints, snapshot_anchored ? "true" : "false",
      graph_replay ? "true" : "false", EscapeJsonString(error).c_str());
}

bool ReadFile(const char* path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  out->assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return true;
}

int VerifyFile(const char* journal_path, const char* pubkey_str, const char* graph_path,
               const char* snapshot_path, bool json) {
  std::vector<uint8_t> bytes;
  if (!ReadFile(journal_path, &bytes)) {
    std::fprintf(stderr, "cannot open %s\n", journal_path);
    if (json) {
      PrintJsonVerdict(2, 0, 0, snapshot_path != nullptr, graph_path != nullptr,
                       std::string("cannot open ") + journal_path);
    }
    return 2;
  }

  SchnorrPublicKey key;
  key.y = std::strtoull(pubkey_str, nullptr, 0);

  std::string graph;
  const std::string* expected = nullptr;
  if (graph_path != nullptr) {
    std::ifstream graph_in(graph_path, std::ios::binary);
    if (!graph_in) {
      std::fprintf(stderr, "cannot open %s\n", graph_path);
      return 2;
    }
    std::ostringstream buffer;
    buffer << graph_in.rdbuf();
    graph = buffer.str();
    expected = &graph;
  }

  // An empty snapshot means genesis replay, so an empty file is refused.
  std::vector<uint8_t> snapshot;
  if (snapshot_path != nullptr && (!ReadFile(snapshot_path, &snapshot) || snapshot.empty())) {
    std::fprintf(stderr, "cannot read a snapshot from %s\n", snapshot_path);
    return 2;
  }
  const Status status = VerifyJournal(bytes, snapshot, key, expected);
  // Deserialize for the verdict's chain-length numbers; on failure the
  // journal may still parse (tamper detection happens at verify, not parse).
  size_t records = 0;
  size_t checkpoints = 0;
  if (const auto parsed = Journal::Deserialize(bytes); parsed.ok()) {
    records = parsed->records.size();
    checkpoints = parsed->checkpoints.size();
  }
  const int exit_code = status.ok() ? 0 : ExitCodeFor(status);
  if (json) {
    PrintJsonVerdict(exit_code, records, checkpoints, snapshot_path != nullptr,
                     expected != nullptr, status.ok() ? "" : status.ToString());
    return exit_code;
  }
  if (!status.ok()) {
    std::printf("FAIL: %s\n", status.ToString().c_str());
    return exit_code;
  }
  std::printf("OK: %zu records, %zu checkpoints verified%s%s\n", records, checkpoints,
              snapshot_path ? ", snapshot-anchored" : "",
              expected ? ", graph replay matches" : "");
  return 0;
}

int VerifySplice(const char* source_path, const char* dest_path, const char* source_key_str,
                 const char* dest_key_str, bool json) {
  std::vector<uint8_t> source_bytes;
  std::vector<uint8_t> dest_bytes;
  for (const auto& [path, out] :
       {std::pair{source_path, &source_bytes}, std::pair{dest_path, &dest_bytes}}) {
    if (!ReadFile(path, out)) {
      std::fprintf(stderr, "cannot open %s\n", path);
      if (json) {
        PrintJsonVerdict(2, 0, 0, false, false, std::string("cannot open ") + path);
      }
      return 2;
    }
  }
  SchnorrPublicKey source_key;
  source_key.y = std::strtoull(source_key_str, nullptr, 0);
  SchnorrPublicKey dest_key;
  dest_key.y = std::strtoull(dest_key_str, nullptr, 0);

  const Status status =
      VerifyJournalSplice(source_bytes, dest_bytes, source_key, dest_key);
  size_t records = 0;
  size_t checkpoints = 0;
  for (const std::vector<uint8_t>* bytes : {&source_bytes, &dest_bytes}) {
    if (const auto parsed = Journal::Deserialize(*bytes); parsed.ok()) {
      records += parsed->records.size();
      checkpoints += parsed->checkpoints.size();
    }
  }
  const int exit_code = status.ok() ? 0 : ExitCodeFor(status);
  if (json) {
    PrintJsonVerdict(exit_code, records, checkpoints, false, false,
                     status.ok() ? "" : status.ToString());
    return exit_code;
  }
  if (!status.ok()) {
    std::printf("FAIL: %s\n", status.ToString().c_str());
    return exit_code;
  }
  std::printf("OK: journals splice into one history (%zu records, %zu checkpoints)\n",
              records, checkpoints);
  return 0;
}

// `records`/`checkpoints` report the chain the self-test exported, so the
// --json verdict carries real numbers.
int SelfTest(size_t* records, size_t* checkpoints) {
  std::printf("journal_verify self-test: boot, workload, export, verify, tamper\n");
  auto testbed = Testbed::Create(TestbedOptions{});
  if (!testbed.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", testbed.status().ToString().c_str());
    return 2;
  }
  Monitor& monitor = testbed->monitor();
  SnapshotStore store;
  if (!monitor.EnableSnapshots(&store).ok()) {
    std::fprintf(stderr, "cannot bind snapshots\n");
    return 2;
  }

  // Workload: create two enclave-ish domains, share memory both ways via the
  // dispatch ABI (so every record carries a span), then revoke -> cascade.
  auto call = [&](ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                  uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0) {
    ApiRegs regs{static_cast<uint64_t>(op), a0, a1, a2, a3, a4, a5};
    return Dispatch(&monitor, /*core=*/0, regs);
  };

  const ApiResult created_a = call(ApiOp::kCreateDomain);
  const ApiResult created_b = call(ApiOp::kCreateDomain);
  if (created_a.error != 0 || created_b.error != 0) {
    std::fprintf(stderr, "create_domain failed\n");
    return 2;
  }
  const CapId handle_a = created_a.ret1;
  const CapId handle_b = created_b.ret1;

  const uint64_t scratch = testbed->Scratch(0);
  const auto mem_cap = testbed->OsMemCap(AddrRange{scratch, 64 * kPageSize});
  if (!mem_cap.ok()) {
    std::fprintf(stderr, "no OS memory capability found\n");
    return 2;
  }
  const CapId os_mem = *mem_cap;

  const uint64_t rights_policy =
      (static_cast<uint64_t>(CapRights::kAll) << 8) | RevocationPolicy::kZeroMemory;
  const ApiResult shared = call(ApiOp::kShareMemory, os_mem, handle_a, scratch,
                                8 * kPageSize, Perms::kRW, rights_policy);
  if (shared.error != 0) {
    std::fprintf(stderr, "share_memory failed (err=%llu)\n",
                 static_cast<unsigned long long>(shared.error));
    return 2;
  }
  // Sign a checkpoint here: it binds the snapshot the suffix leg anchors on.
  monitor.audit().journal().Checkpoint();
  const auto anchor = store.Latest();
  if (!anchor.ok()) {
    std::fprintf(stderr, "no snapshot bound at the checkpoint\n");
    return 2;
  }

  // Share the same range onward to B as well, then revoke the root share:
  // the cascade deactivates both children under one span.
  const ApiResult shared_b = call(ApiOp::kShareMemory, os_mem, handle_b,
                                  scratch, 4 * kPageSize, Perms::kRW, rights_policy);
  if (shared_b.error != 0) {
    std::fprintf(stderr, "second share failed\n");
    return 2;
  }
  const ApiResult revoked = call(ApiOp::kRevoke, shared.ret0);
  if (revoked.error != 0) {
    std::fprintf(stderr, "revoke failed\n");
    return 2;
  }

  const std::string graph_json = ExportCapabilityGraphJson(monitor.engine());
  std::vector<uint8_t> wire = monitor.ExportJournal();
  *records = monitor.audit().journal().size();
  *checkpoints = monitor.audit().journal().checkpoint_count();
  std::printf("exported %zu bytes (%zu records, %zu checkpoints)\n", wire.size(),
              *records, *checkpoints);

  Status verdict = VerifyJournal(wire, {}, monitor.public_key(), &graph_json);
  if (!verdict.ok()) {
    std::printf("FAIL: pristine journal rejected: %s\n", verdict.ToString().c_str());
    return 1;
  }
  std::printf("pristine journal verifies and replays to the graph snapshot\n");

  // Tamper: flip one byte in the middle of the record region.
  std::vector<uint8_t> tampered = wire;
  tampered[tampered.size() / 2] ^= 0x01;
  verdict = VerifyJournal(tampered, {}, monitor.public_key(), nullptr);
  if (verdict.ok()) {
    std::printf("FAIL: tampered journal accepted\n");
    return 1;
  }
  std::printf("single-bit tamper detected: %s\n", verdict.ToString().c_str());

  // Re-sealed leg: rewrite the first share's effect digest, recompute the
  // links and re-sign the checkpoints with the monitor's own key. The chain
  // verifies; replay recomputes the share's effects and refuses it.
  const auto parsed = Journal::Deserialize(wire);
  const SchnorrKeyPair key = DeriveMonitorKey(testbed->machine().config().endorsement_seed,
                                              testbed->golden_monitor());
  if (!parsed.ok() || key.pub != monitor.public_key()) {
    std::fprintf(stderr, "cannot re-derive the monitor key\n");
    return 2;
  }
  std::vector<JournalRecord> edited = parsed->records;
  size_t at = 0;
  while (at < edited.size() &&
         edited[at].event != static_cast<uint8_t>(JournalEvent::kShareMemory)) {
    ++at;
  }
  if (at == edited.size()) {
    std::fprintf(stderr, "no share record to edit\n");
    return 2;
  }
  edited[at].result ^= 1;
  const std::vector<uint8_t> resealed =
      ResealJournal(std::move(edited), at, parsed->checkpoints, key);
  verdict = VerifyJournal(resealed, {}, monitor.public_key(), nullptr);
  if (ExitCodeFor(verdict) != 5) {
    std::printf("FAIL: re-sealed effect digest edit not refused with exit code 5: %s\n",
                verdict.ToString().c_str());
    return 1;
  }
  std::printf("re-sealed effect digest edit refused: %s\n", verdict.ToString().c_str());

  // Snapshot leg: the suffix after the anchoring checkpoint replays on top of
  // its snapshot to the same graph; an unbound snapshot and a flipped graph
  // byte are refused with the exit codes journal_verify --snapshot reports.
  std::printf("snapshot self-test: verify the suffix over snapshot seq %llu, tamper\n",
              static_cast<unsigned long long>(anchor->seq));
  verdict = VerifyJournal(wire, anchor->bytes, monitor.public_key(), &graph_json);
  if (!verdict.ok()) {
    std::printf("FAIL: snapshot-anchored journal rejected: %s\n", verdict.ToString().c_str());
    return 1;
  }
  std::vector<uint8_t> unbound = anchor->bytes;
  unbound[8] ^= 0x40;
  verdict = VerifyJournal(wire, unbound, monitor.public_key(), &graph_json);
  if (ExitCodeFor(verdict) != 4) {
    std::printf("FAIL: unbound snapshot not refused with exit code 4: %s\n",
                verdict.ToString().c_str());
    return 1;
  }
  std::string wrong_graph = graph_json;
  wrong_graph[wrong_graph.size() / 2] ^= 0x01;
  verdict = VerifyJournal(wire, anchor->bytes, monitor.public_key(), &wrong_graph);
  if (ExitCodeFor(verdict) != 5) {
    std::printf("FAIL: flipped graph byte not refused with exit code 5: %s\n",
                verdict.ToString().c_str());
    return 1;
  }
  std::printf("snapshot-anchored suffix verifies; unbound snapshot and graph tamper refused\n");

  // Splice leg: two measured-boot monitors, one migrated domain, and the
  // offline custody-chain verdict — plus a tampered-handoff rejection.
  std::printf("splice self-test: boot two monitors, migrate, splice-verify, tamper\n");
  MachineConfig config;
  Machine source_machine(config);
  Machine dest_machine(config);
  const std::vector<uint8_t> firmware = DemoFirmwareImage();
  const std::vector<uint8_t> monitor_image = DemoMonitorImage();
  BootParams params;
  params.firmware_image = firmware;
  params.monitor_image = monitor_image;
  auto source_boot = MeasuredBoot(&source_machine, params);
  auto dest_boot = MeasuredBoot(&dest_machine, params);
  if (!source_boot.ok() || !dest_boot.ok()) {
    std::fprintf(stderr, "two-monitor boot failed\n");
    return 2;
  }
  Monitor& source = *source_boot->monitor;
  Monitor& dest = *dest_boot->monitor;
  const auto svc = source.CreateDomain(0, "svc");
  if (!svc.ok()) {
    std::fprintf(stderr, "create_domain failed on the source\n");
    return 2;
  }
  const AddrRange window{source.monitor_range().end() + (1ull << 20), 2 * kPageSize};
  const auto window_cap = FindMemoryCap(source, source_boot->initial_domain, window);
  if (!window_cap.ok() ||
      !source
           .GrantMemory(0, *window_cap, svc->handle, window, Perms(Perms::kRWX),
                        CapRights(CapRights::kAll),
                        RevocationPolicy(RevocationPolicy::kZeroMemory))
           .ok() ||
      !source.SetEntryPoint(0, svc->handle, window.base).ok() ||
      !source.ExtendMeasurement(0, svc->handle, window).ok() ||
      !source.Seal(0, svc->handle).ok()) {
    std::fprintf(stderr, "victim setup failed on the source\n");
    return 2;
  }
  LossyChannel channel;
  const auto migrated = MigrateOver(&source, &dest, svc->domain, &channel, source.public_key());
  if (!migrated.ok()) {
    std::printf("FAIL: migration failed: %s\n", migrated.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint8_t> src_wire = source.ExportJournal();
  const std::vector<uint8_t> dst_wire = dest.ExportJournal();
  verdict = VerifyJournalSplice(src_wire, dst_wire, source.public_key(),
                                dest.public_key());
  if (!verdict.ok()) {
    std::printf("FAIL: clean splice rejected: %s\n", verdict.ToString().c_str());
    return 1;
  }
  std::printf("spliced custody chain verifies (migrated domain %llu)\n",
              static_cast<unsigned long long>(migrated->migration.dest_domain));
  std::vector<uint8_t> forged = dst_wire;
  forged[forged.size() / 2] ^= 0x01;
  verdict = VerifyJournalSplice(src_wire, forged, source.public_key(),
                                dest.public_key());
  if (verdict.ok()) {
    std::printf("FAIL: tampered destination journal spliced cleanly\n");
    return 1;
  }
  std::printf("tampered handoff detected: %s\n", verdict.ToString().c_str());
  std::printf("self-test OK\n");
  return 0;
}

}  // namespace
}  // namespace tyche

int main(int argc, char** argv) {
  const char* snapshot_path = nullptr;
  bool json = false;
  bool splice = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--snapshot needs a file argument\n");
        return 2;
      }
      snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--splice") == 0) {
      splice = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (splice) {
    if (positional.size() != 4 || snapshot_path != nullptr) {
      std::fprintf(stderr,
                   "usage: %s [--json] --splice <source.bin> <dest.bin> "
                   "<source_pubkey_y> <dest_pubkey_y>\n",
                   argv[0]);
      return 2;
    }
    return tyche::VerifySplice(positional[0], positional[1], positional[2], positional[3],
                               json);
  }
  if (positional.empty()) {
    // Self-test mode; with --json the final verdict line is machine-readable.
    size_t records = 0;
    size_t checkpoints = 0;
    const int exit_code = tyche::SelfTest(&records, &checkpoints);
    if (json) {
      tyche::PrintJsonVerdict(exit_code, records, checkpoints, false,
                              /*graph_replay=*/exit_code == 0,
                              exit_code == 0 ? "" : "self-test failed");
    }
    return exit_code;
  }
  if (positional.size() < 2 || positional.size() > 3) {
    std::fprintf(stderr,
                 "usage: %s [--json]              (self-test)\n"
                 "       %s [--json] [--snapshot snap.bin] <journal.bin> "
                 "<monitor_pubkey_y> [graph.json]\n"
                 "       %s [--json] --splice <source.bin> <dest.bin> "
                 "<source_pubkey_y> <dest_pubkey_y>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  return tyche::VerifyFile(positional[0], positional[1],
                           positional.size() == 3 ? positional[2] : nullptr, snapshot_path,
                           json);
}
