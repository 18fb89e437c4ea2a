// Copyright 2026 The Tyche Reproduction Authors.
// One fixed-work pass of one repository-benchmark workload.
//
//   perfbench_driver --workload <name> --seed <n> [--trace 0|1] [--spans <path>]
//
// A pass boots a fresh world (set-up, timed separately), runs a fixed
// number of operations against the public APIs, checks every output, and
// prints one JSON object: set-up and timed-region seconds, the per-op wall
// latencies in completion order, the failure count, and peak RSS. With
// --trace 1 it also enables the monitor's phase profiler, records spans
// around every call the pass makes into a layer (written to --spans at
// exit as CSV: id,parent,op,name,start_ns,end_ns), and adds the counters
// the program already exports. perfbench/run.py repeats passes for the
// measuring budget and turns them into metrics.
//
// Every pass runs the same number of operations, never a fixed duration:
// per-op cost grows with capability history today, so a faster commit must
// not be measured at a longer history than a slower one.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/frontend.h"
#include "src/fleet/zipf.h"
#include "src/monitor/dispatch.h"
#include "src/os/testbed.h"
#include "src/support/prng.h"
#include "src/tyche/enclave.h"
#include "src/tyche/verifier.h"

namespace tyche {
namespace perfbench {
namespace {

constexpr uint64_t kKiB = 1ull << 10;
constexpr uint64_t kMiB = 1ull << 20;

// --- Workload sizes. p99 needs 1 000 ops per pass (10 samples beyond it).
// cap_churn and enclave_lifecycle are quadratic in their op count today.
constexpr uint32_t kChurnPairs = 3000;
constexpr uint32_t kChurnWindowPages = 256;
constexpr uint32_t kAttestOpsPerThread = 25000;
constexpr uint32_t kMaxAttestThreads = 8;
constexpr uint32_t kFleetNodes = 3;
constexpr uint32_t kFleetServicesPerNode = 64;
constexpr uint32_t kFleetRequests = 25000;
constexpr uint32_t kFleetBurst = 12;  // below the default admission queue of 16
constexpr uint64_t kFleetBurstGapNs = 200'000;
// Tuned so admission answers about three in ten requests from cache.
constexpr uint64_t kFleetCacheTtlNs = 500'000;
constexpr uint32_t kLaunches = 1000;
constexpr uint64_t kEnclaveBytes = 16 * kKiB;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Set-up must succeed: a pass without a world has nothing to measure.
[[noreturn]] void SetupFailed(const char* what, const Status& status) {
  std::fprintf(stderr, "perfbench: set-up failed: %s: %s\n", what, status.ToString().c_str());
  std::exit(2);
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    SetupFailed(what, status);
  }
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    SetupFailed(what, result.status());
  }
  return std::move(result).value();
}

// --- Spans (traced passes only) -------------------------------------------

enum SpanName : uint16_t {
  kOpSpan,
  kBurstSpan,
  kShareSpan,
  kRevokeSpan,
  kAttestSpan,
  kTakeInterruptSpan,
  kDestroySpan,
  kEnclaveCreateSpan,
  kVerifyReportSpan,
  kSubmitSpan,
  kDrainSpan,
};

// The prefix before the first '.' names the layer the span's call enters;
// "bench" spans are the benchmark's own per-op or per-burst roots.
constexpr const char* kSpanNames[] = {
    "bench.op",           "bench.burst",           "monitor.share",
    "monitor.revoke",     "monitor.attest",        "monitor.take_interrupt",
    "monitor.destroy",    "tyche.enclave_create",  "tyche.verify_report",
    "fleet.submit",       "fleet.drain",
};

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op = 0;      // per-op (or per-burst) id
  uint32_t parent = 0;  // handle of the parent in the same log, 0 = root
  SpanName name = kOpSpan;
};

// In-memory span log of one thread. Disabled logs cost one branch per span.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  // Returns the span's handle (index + 1), or 0 when disabled.
  uint32_t Open(SpanName name, uint64_t op, uint32_t parent) {
    if (!enabled_) {
      return 0;
    }
    spans_.push_back({NowNs(), 0, op, parent, name});
    return static_cast<uint32_t>(spans_.size());
  }
  void Close(uint32_t handle) {
    if (handle != 0) {
      spans_[handle - 1].end_ns = NowNs();
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanName name, uint64_t op, uint32_t parent = 0)
      : log_(log), handle_(log.Open(name, op, parent)) {}
  ~ScopedSpan() { log_.Close(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t handle() const { return handle_; }

 private:
  SpanLog& log_;
  uint32_t handle_;
};

// Writes every log's spans with file-wide ids (log order, then span order).
bool WriteSpans(const std::string& path, const std::vector<std::unique_ptr<SpanLog>>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "id,parent,op,name,start_ns,end_ns\n");
  uint64_t base = 0;
  for (const auto& log : logs) {
    const auto& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::fprintf(out, "%llu,%llu,%llu,%s,%llu,%llu\n",
                   static_cast<unsigned long long>(base + i + 1),
                   static_cast<unsigned long long>(span.parent == 0 ? 0 : base + span.parent),
                   static_cast<unsigned long long>(span.op), kSpanNames[span.name],
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
    base += spans.size();
  }
  return std::fclose(out) == 0;
}

// --- Pass result ----------------------------------------------------------

struct OpSample {
  uint64_t end_ns = 0;
  uint64_t latency_ns = 0;
};

struct PassResult {
  double setup_s = 0;
  double timed_s = 0;
  std::vector<OpSample> samples;  // one per op that got a reply
  uint64_t lost = 0;              // ops that never got a reply
  uint64_t failed = 0;            // ops that failed, failed their check, or were lost
  bool post_checks_ok = true;     // checks made after the timed region
  double peak_rss_mib = 0;
  std::vector<std::pair<std::string, double>> counters;  // traced passes only
  std::vector<std::unique_ptr<SpanLog>> span_logs;

  SpanLog* NewSpanLog(bool traced) {
    span_logs.push_back(std::make_unique<SpanLog>(traced));
    return span_logs.back().get();
  }
};

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double PerOp(uint64_t value, size_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(value) / static_cast<double>(ops);
}

// Monitor-side counters summed over the monitors a workload drives, read
// before and after the timed region.
struct MonitorCounters {
  uint64_t calls = 0;
  uint64_t effects = 0;
  uint64_t total_caps = 0;
  uint64_t sim_cycles = 0;
  uint64_t journal_records = 0;
  uint64_t journal_batches = 0;
  uint64_t journal_batched_records = 0;
  uint64_t trace_dropped = 0;
  uint64_t exclusive_contention = 0;
  uint64_t shared_contention = 0;
  BackendStats backend;
  uint64_t phase_ns[kDispatchPhaseCount] = {};
};

MonitorCounters ReadCounters(const std::vector<Monitor*>& monitors) {
  MonitorCounters c;
  for (Monitor* monitor : monitors) {
    const MonitorStats stats = monitor->stats();
    c.calls += stats.TotalCalls();
    c.effects += stats.TotalEffects();
    c.total_caps += monitor->engine().total_caps();
    c.sim_cycles += monitor->machine()->cycles().cycles();
    const Journal& journal = monitor->audit().journal();
    c.journal_records += journal.size();
    const auto group = journal.group_commit_stats();
    c.journal_batches += group.batches;
    c.journal_batched_records += group.batched_records;
    c.trace_dropped += monitor->telemetry().ring().dropped();
    c.exclusive_contention += monitor->telemetry().exclusive_contention_count();
    c.shared_contention += monitor->telemetry().shared_contention_count();
    const BackendStats& b = monitor->backend().stats();
    c.backend.memory_syncs += b.memory_syncs;
    c.backend.pages_mapped += b.pages_mapped;
    c.backend.pages_unmapped += b.pages_unmapped;
    c.backend.tlb_shootdowns += b.tlb_shootdowns;
    const DispatchProfiler& profiler = monitor->profiler();
    for (size_t p = 0; p < kDispatchPhaseCount; ++p) {
      for (uint16_t op = 0; op < static_cast<uint16_t>(profiler.op_count()); ++op) {
        c.phase_ns[p] += profiler.PhaseSnapshot(op, static_cast<DispatchPhase>(p)).sum;
      }
    }
  }
  return c;
}

void AddMonitorCounters(PassResult* result, const MonitorCounters& before,
                        const MonitorCounters& after, uint64_t monitor_errors) {
  const size_t ops = result->samples.size();
  auto add = [result](std::string name, double value) {
    result->counters.emplace_back(std::move(name), value);
  };
  add("monitor.calls", static_cast<double>(after.calls - before.calls));
  add("monitor.errors", static_cast<double>(monitor_errors));
  for (size_t p = 0; p < kDispatchPhaseCount; ++p) {
    add(std::string("monitor.phase.") + DispatchPhaseName(static_cast<DispatchPhase>(p)) +
            "_ns",
        PerOp(after.phase_ns[p] - before.phase_ns[p], ops));
  }
  add("monitor.lock_exclusive_contention",
      static_cast<double>(after.exclusive_contention - before.exclusive_contention));
  add("monitor.lock_shared_contention",
      static_cast<double>(after.shared_contention - before.shared_contention));
  add("capability.total_caps", static_cast<double>(after.total_caps));
  add("capability.caps_per_op", PerOp(after.total_caps - before.total_caps, ops));
  add("capability.effects_per_op", PerOp(after.effects - before.effects, ops));
  add("backend.memory_syncs_per_op",
      PerOp(after.backend.memory_syncs - before.backend.memory_syncs, ops));
  add("backend.pages_mapped_per_op",
      PerOp(after.backend.pages_mapped - before.backend.pages_mapped, ops));
  add("backend.pages_unmapped_per_op",
      PerOp(after.backend.pages_unmapped - before.backend.pages_unmapped, ops));
  add("backend.tlb_shootdowns_per_op",
      PerOp(after.backend.tlb_shootdowns - before.backend.tlb_shootdowns, ops));
  add("hw.sim_cycles_per_op", PerOp(after.sim_cycles - before.sim_cycles, ops));
  add("journal.records_per_op", PerOp(after.journal_records - before.journal_records, ops));
  const uint64_t batches = after.journal_batches - before.journal_batches;
  add("journal.records_per_batch",
      PerOp(after.journal_batched_records - before.journal_batched_records, batches));
  add("telemetry.trace_dropped", static_cast<double>(after.trace_dropped - before.trace_dropped));
}

// Peak resident memory of the pass beyond the simulated machines' RAM,
// which is zero-filled at boot and so resident before the first op, and
// beyond `held_bytes` of copies the benchmark keeps only to check them
// later. What remains is the program's own state, capability history
// included, which the simulated RAM would otherwise dwarf.
double PeakRssMib(const std::vector<Monitor*>& monitors, uint64_t held_bytes) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double bytes = static_cast<double>(usage.ru_maxrss) * kKiB - static_cast<double>(held_bytes);
  for (Monitor* monitor : monitors) {
    bytes -= static_cast<double>(monitor->machine()->memory().size());
  }
  return bytes / kMiB;
}

void EnableProfiler(const std::vector<Monitor*>& monitors, bool traced) {
  for (Monitor* monitor : monitors) {
    monitor->profiler().set_enabled(traced);
  }
}

// Tier-1 check of a testbed's monitor; returns the verified report key.
SchnorrPublicKey VerifiedMonitorKey(Testbed& testbed, uint64_t nonce) {
  RemoteVerifier verifier(testbed.machine().tpm().attestation_key(),
                          testbed.golden_firmware(), testbed.golden_monitor());
  const MonitorIdentity identity = Must(testbed.monitor().Identity(nonce), "identity");
  Must(verifier.VerifyMonitor(identity, nonce), "tier-1 verification");
  return identity.monitor_key;
}

// --- cap_churn ------------------------------------------------------------
// Serial share+revoke pairs of one page from the OS into a child domain:
// the capability write path (engine, backend SyncMemory, journal).

PassResult RunCapChurn(uint64_t seed, bool traced) {
  const uint64_t setup_start = NowNs();
  PassResult result;
  Testbed testbed = Must(Testbed::Create(TestbedOptions{}), "testbed");
  Monitor& monitor = testbed.monitor();
  const CapId child = Must(monitor.CreateDomain(0, "churn-child"), "child domain").handle;
  const AddrRange window{testbed.Scratch(16 * kMiB), kChurnWindowPages * kPageSize};
  const CapId src = Must(testbed.OsMemCap(window), "source capability");
  Prng prng(seed);
  std::vector<uint64_t> bases(kChurnPairs);
  for (uint64_t& base : bases) {
    base = window.base + prng.Below(kChurnWindowPages) * kPageSize;
  }
  SpanLog* log = result.NewSpanLog(traced);
  EnableProfiler({&monitor}, traced);
  const MonitorCounters before = ReadCounters({&monitor});
  result.samples.reserve(kChurnPairs);
  uint64_t monitor_errors = 0;

  const uint64_t start = NowNs();
  result.setup_s = Seconds(start - setup_start);
  for (uint32_t i = 0; i < kChurnPairs; ++i) {
    const uint64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan op(*log, kOpSpan, i);
      ApiRegs share;
      share.op = static_cast<uint64_t>(ApiOp::kShareMemory);
      share.arg0 = src;
      share.arg1 = child;
      share.arg2 = bases[i];
      share.arg3 = kPageSize;
      share.arg4 = Perms::kRead | Perms::kWrite;
      share.arg5 = static_cast<uint64_t>(CapRights::kAll) << 8;
      ApiResult shared;
      {
        ScopedSpan span(*log, kShareSpan, i, op.handle());
        shared = Dispatch(&monitor, 0, share);
      }
      if (shared.error == 0 && shared.ret0 != kInvalidCap) {
        ApiRegs revoke;
        revoke.op = static_cast<uint64_t>(ApiOp::kRevoke);
        revoke.arg0 = shared.ret0;
        ApiResult revoked;
        {
          ScopedSpan span(*log, kRevokeSpan, i, op.handle());
          revoked = Dispatch(&monitor, 0, revoke);
        }
        ok = revoked.error == 0;
      }
    }
    const uint64_t t1 = NowNs();
    result.samples.push_back({t1, t1 - t0});
    if (!ok) {
      ++result.failed;
      ++monitor_errors;
    }
  }
  result.timed_s = Seconds(NowNs() - start);

  const MonitorCounters after = ReadCounters({&monitor});
  const auto audit = monitor.AuditHardwareConsistency();
  result.post_checks_ok = audit.ok() && *audit;
  result.peak_rss_mib = PeakRssMib({&monitor}, 0);
  if (traced) {
    AddMonitorCounters(&result, before, after, monitor_errors);
  }
  return result;
}

// --- attest_read ----------------------------------------------------------
// Concurrent closed-loop dispatch, one thread per core in use: 90 % self
// attestation, 10 % kTakeInterrupt on an empty queue (whose correct reply is
// kNotFound). The read side of the monitor: api lock, telemetry, signing.

// One dispatching thread per two available CPUs, each bound to its own
// monitor core. The spare CPUs take the host's other work, so a thread is
// rarely descheduled while the others wait on a lock it holds: on 4 CPUs,
// ten runs of 3 threads spread by 0.16 in p99 latency, of 2 threads by
// 0.06 (interquartile range over median). The threads
// are deliberately not pinned to host CPUs: pinned, a writer woken from the
// api lock waits for its one CPU, and passes of the same inputs spread by
// 3/4 in throughput instead of 1/20.
uint32_t AttestThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int count = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<uint32_t>(std::clamp(count / 2, 1, static_cast<int>(kMaxAttestThreads)));
}

// The OS domain is never sealed, so a customer verifier refuses its report
// by policy; the benchmark checks what the monitor vouches for instead: the
// caller's identity, the nonce, the digest, and the signature.
bool SelfReportValid(const DomainAttestation& report, const SchnorrPublicKey& monitor_key,
                     uint64_t nonce, DomainId caller) {
  return report.domain == caller && report.nonce == nonce &&
         report.ComputeDigest() == report.report_digest &&
         SchnorrVerify(monitor_key, report.report_digest, report.signature);
}

struct AttestThread {
  SpanLog* log = nullptr;  // owned by the PassResult
  std::vector<OpSample> samples;
  std::vector<uint8_t> reports;  // serialized reports, back to back
  struct Report {
    uint64_t nonce = 0;
    size_t offset = 0;
    size_t size = 0;
    uint32_t op = 0;
  };
  std::vector<Report> index;
  std::vector<uint8_t> failed;  // per op
  uint64_t monitor_errors = 0;
};

PassResult RunAttestRead(uint64_t seed, bool traced) {
  const uint64_t setup_start = NowNs();
  PassResult result;
  const uint32_t threads = AttestThreads();
  TestbedOptions options;
  options.cores = kMaxAttestThreads;
  Testbed testbed = Must(Testbed::Create(options), "testbed");
  Monitor& monitor = testbed.monitor();
  const SchnorrPublicKey monitor_key = VerifiedMonitorKey(testbed, seed ^ 0xA77E57);
  const DomainId os_domain = testbed.os_domain();
  Must(monitor.EnableConcurrentDispatch(), "concurrent dispatch");
  constexpr uint64_t kOutSize = 64 * kKiB;

  std::vector<std::unique_ptr<AttestThread>> state;
  for (uint32_t t = 0; t < threads; ++t) {
    state.push_back(std::make_unique<AttestThread>());
    state.back()->log = result.NewSpanLog(traced);
    state.back()->samples.reserve(kAttestOpsPerThread);
    state.back()->index.reserve(kAttestOpsPerThread);
    // The OS domain's report is under 1 KiB; no reallocation while timed.
    state.back()->reports.reserve(kAttestOpsPerThread * kKiB);
    state.back()->failed.assign(kAttestOpsPerThread, 0);
  }
  EnableProfiler({&monitor}, traced);
  const MonitorCounters before = ReadCounters({&monitor});

  std::atomic<bool> go{false};
  auto body = [&](uint32_t t) {
    AttestThread& me = *state[t];
    const auto core = static_cast<CoreId>(t);
    const uint64_t out_pa = testbed.Scratch(32 * kMiB + t * kOutSize);
    Prng prng(seed * 0x9E3779B97F4A7C15ull + t);
    while (!go.load(std::memory_order_acquire)) {
    }
    for (uint32_t i = 0; i < kAttestOpsPerThread; ++i) {
      const uint64_t op_id = static_cast<uint64_t>(i) * threads + t;
      ApiRegs regs;
      const bool take_interrupt = prng.Below(10) == 0;
      const uint64_t nonce = (seed << 32) + op_id + 1;
      if (take_interrupt) {
        regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
      } else {
        regs.op = static_cast<uint64_t>(ApiOp::kAttestDomain);
        regs.arg1 = nonce;
        regs.arg2 = out_pa;
        regs.arg3 = kOutSize;
      }
      const uint64_t t0 = NowNs();
      ApiResult reply;
      {
        ScopedSpan op(*me.log, kOpSpan, op_id);
        ScopedSpan span(*me.log, take_interrupt ? kTakeInterruptSpan : kAttestSpan, op_id,
                        op.handle());
        reply = Dispatch(&monitor, core, regs);
      }
      const uint64_t t1 = NowNs();
      me.samples.push_back({t1, t1 - t0});
      bool ok;
      if (take_interrupt) {
        ok = reply.error == static_cast<uint64_t>(ErrorCode::kNotFound);
      } else {
        ok = reply.error == 0 && reply.ret0 > 0 && reply.ret0 <= kOutSize;
        if (ok) {
          // Copied out for verification after the timed region.
          const size_t offset = me.reports.size();
          me.reports.resize(offset + reply.ret0);
          ok = testbed.machine()
                   .memory()
                   .Read(out_pa, std::span<uint8_t>(me.reports.data() + offset, reply.ret0))
                   .ok();
          me.index.push_back({nonce, offset, reply.ret0, i});
        }
      }
      if (!ok) {
        me.failed[i] = 1;
        ++me.monitor_errors;
      }
    }
  };
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back(body, t);
  }
  const uint64_t start = NowNs();
  result.setup_s = Seconds(start - setup_start);
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  result.timed_s = Seconds(NowNs() - start);

  const MonitorCounters after = ReadCounters({&monitor});
  uint64_t report_bytes = 0;
  for (const auto& me : state) {
    report_bytes += me->reports.size();
  }
  result.peak_rss_mib = PeakRssMib({&monitor}, report_bytes);
  uint64_t monitor_errors = 0;
  for (auto& me : state) {
    for (const auto& report : me->index) {
      const auto parsed = DeserializeAttestation(
          std::span<const uint8_t>(me->reports.data() + report.offset, report.size));
      if (!parsed.ok() || !SelfReportValid(*parsed, monitor_key, report.nonce, os_domain)) {
        me->failed[report.op] = 1;
      }
    }
    for (const uint8_t f : me->failed) {
      result.failed += f;
    }
    monitor_errors += me->monitor_errors;
    result.samples.insert(result.samples.end(), me->samples.begin(), me->samples.end());
  }
  std::sort(result.samples.begin(), result.samples.end(),
            [](const OpSample& a, const OpSample& b) { return a.end_ns < b.end_ns; });
  if (traced) {
    AddMonitorCounters(&result, before, after, monitor_errors);
  }
  return result;
}

// --- fleet_verify ---------------------------------------------------------
// A single-threaded front end over three nodes, Zipf service popularity:
// bursts of Submit (cache-servable requests answer inline) then DrainQueue.

bool TypedFleetError(ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kOverloaded ||
         code == ErrorCode::kDeadlineExceeded || code == ErrorCode::kQuotaExceeded;
}

PassResult RunFleetVerify(uint64_t seed, bool traced) {
  const uint64_t setup_start = NowNs();
  PassResult result;
  FleetOptions fleet_options;
  fleet_options.num_nodes = kFleetNodes;
  fleet_options.services_per_node = kFleetServicesPerNode;
  std::unique_ptr<Fleet> fleet = Fleet::Create(fleet_options);
  if (fleet == nullptr) {
    SetupFailed("fleet", Error(ErrorCode::kInternal, "Fleet::Create returned null"));
  }
  FrontEndOptions options;
  options.cache_ttl_ns = kFleetCacheTtlNs;
  VerificationFrontEnd frontend(fleet.get(), options);
  // Tier-1 checks and resumption sessions are set-up, not measured work;
  // the cache starts cold.
  for (uint32_t n = 0; n < kFleetNodes; ++n) {
    (void)Must(frontend.Verify({n * kFleetServicesPerNode, /*nonce=*/n + 1}), "session");
  }
  for (uint32_t n = 0; n < kFleetNodes; ++n) {
    frontend.cache().InvalidateEpochsBelow(n, UINT64_MAX);
  }
  std::vector<Monitor*> monitors;
  for (uint32_t n = 0; n < kFleetNodes; ++n) {
    monitors.push_back(fleet->node(n)->monitor());
  }
  const ZipfPicker zipf(fleet->num_services(), /*s=*/1.1);
  Prng prng(seed);
  std::vector<uint32_t> services(kFleetRequests);
  for (uint32_t& service : services) {
    service = zipf.Pick(prng);
  }
  SpanLog* log = result.NewSpanLog(traced);
  EnableProfiler(monitors, traced);
  const MonitorCounters before = ReadCounters(monitors);
  const uint64_t hits0 = frontend.cache().hits();
  const uint64_t misses0 = frontend.cache().misses();
  const uint64_t retries0 = frontend.retries();
  const uint64_t quotes0 = frontend.batch_quotes();
  const uint64_t verifies0 = frontend.batch_verifies();
  const uint64_t fallbacks0 = frontend.batch_fallbacks();
  uint64_t served0 = 0;
  for (uint32_t n = 0; n < kFleetNodes; ++n) {
    served0 += fleet->node(n)->served();
  }
  uint64_t inline_verdicts = 0;
  uint64_t resumed = 0;
  uint64_t wrong = 0;
  result.samples.reserve(kFleetRequests);
  const uint64_t nonce_base = (seed << 32) + 0x100;

  auto check = [&](uint32_t service, const Result<VerifyVerdict>& verdict) {
    if (verdict.ok()) {
      if (verdict->measurement == fleet->service(service).measurement) {
        resumed += verdict->resumed ? 1 : 0;
        return true;
      }
      ++wrong;
    } else if (!TypedFleetError(verdict.code())) {
      ++wrong;
    }
    return false;
  };

  struct Pending {
    uint64_t t0 = 0;
    uint32_t service = 0;
  };
  std::map<uint64_t, Pending> pending;  // by nonce

  const uint64_t start = NowNs();
  result.setup_s = Seconds(start - setup_start);
  uint32_t next = 0;
  for (uint64_t burst_id = 0; next < kFleetRequests; ++burst_id) {
    fleet->clock().Advance(kFleetBurstGapNs);
    ScopedSpan burst(*log, kBurstSpan, burst_id);
    const uint32_t end = std::min(next + kFleetBurst, kFleetRequests);
    for (; next < end; ++next) {
      const VerifyRequest request{services[next], nonce_base + next};
      const uint64_t t0 = NowNs();
      Result<VerificationFrontEnd::AdmissionOutcome> outcome =
          Error(ErrorCode::kInternal, "not submitted");
      {
        ScopedSpan span(*log, kSubmitSpan, next, burst.handle());
        outcome = frontend.Submit(request);
      }
      const uint64_t t1 = NowNs();
      if (outcome.ok() && outcome->enqueued) {
        pending[request.nonce] = {t0, request.service};
        continue;
      }
      result.samples.push_back({t1, t1 - t0});
      if (outcome.ok() && outcome->verdict.has_value()) {
        ++inline_verdicts;
        result.failed += check(request.service, *outcome->verdict) ? 0 : 1;
      } else {
        // Admitted without a verdict or a queue slot, or refused untyped.
        wrong += outcome.ok() || !TypedFleetError(outcome.code()) ? 1 : 0;
        ++result.failed;
      }
    }
    std::vector<VerificationFrontEnd::QueuedResult> drained;
    {
      ScopedSpan span(*log, kDrainSpan, burst_id, burst.handle());
      drained = frontend.DrainQueue();
    }
    const uint64_t t3 = NowNs();
    for (const auto& item : drained) {
      const auto it = pending.find(item.request.nonce);
      if (it == pending.end()) {
        ++wrong;
        continue;
      }
      result.samples.push_back({t3, t3 - it->second.t0});
      result.failed += check(it->second.service, item.result) ? 0 : 1;
      pending.erase(it);
    }
  }
  result.timed_s = Seconds(NowNs() - start);
  // A request admitted but never drained is lost: attempted and failed,
  // with no latency to sample.
  result.lost = pending.size();
  result.failed += pending.size();
  result.post_checks_ok = wrong == 0;
  result.peak_rss_mib = PeakRssMib(monitors, 0);

  if (traced) {
    const MonitorCounters after = ReadCounters(monitors);
    AddMonitorCounters(&result, before, after, /*monitor_errors=*/0);
    const size_t ops = result.samples.size();
    uint64_t served = 0;
    for (uint32_t n = 0; n < kFleetNodes; ++n) {
      served += fleet->node(n)->served();
    }
    const uint64_t hits = frontend.cache().hits() - hits0;
    const uint64_t lookups = hits + frontend.cache().misses() - misses0;
    auto add = [&result](std::string name, double value) {
      result.counters.emplace_back(std::move(name), value);
    };
    add("fleet.inline_ratio", PerOp(inline_verdicts, ops));
    add("fleet.cache_hit_ratio", PerOp(hits, lookups));
    add("fleet.batch_quotes_per_verify",
        PerOp(frontend.batch_quotes() - quotes0, frontend.batch_verifies() - verifies0));
    add("fleet.batch_fallbacks", static_cast<double>(frontend.batch_fallbacks() - fallbacks0));
    add("fleet.resumed_ratio", PerOp(resumed, ops));
    add("fleet.retries", static_cast<double>(frontend.retries() - retries0));
    add("fleet.node_served_per_request", PerOp(served - served0, ops));
  }
  return result;
}

// --- enclave_lifecycle ----------------------------------------------------
// Serial launch -> attest -> customer check -> destroy at one address: the
// paper's headline flow (grant, measure, seal, purge).

PassResult RunEnclaveLifecycle(uint64_t seed, bool traced) {
  const uint64_t setup_start = NowNs();
  PassResult result;
  Testbed testbed = Must(Testbed::Create(TestbedOptions{}), "testbed");
  Monitor& monitor = testbed.monitor();
  TycheImage image("perfbench-enclave");
  ImageSegment text;
  text.name = "text";
  text.size = kEnclaveBytes / 2;
  text.perms = Perms(Perms::kRWX);
  text.measured = true;
  Prng content(seed);
  text.data.resize(4 * kKiB);
  for (uint8_t& byte : text.data) {
    byte = static_cast<uint8_t>(content.Next());
  }
  Must(image.AddSegment(std::move(text)), "image");
  image.set_entry_offset(0);
  const CapId core_cap = Must(testbed.OsCoreCap(1), "core capability");
  CustomerVerifier customer(testbed.machine().tpm().attestation_key(), testbed.golden_firmware(),
                            testbed.golden_monitor());
  const uint64_t identity_nonce = seed ^ 0xE7C1A5E;
  Must(customer.VerifyMonitor(Must(monitor.Identity(identity_nonce), "identity"),
                              identity_nonce),
       "tier-1 verification");
  LoadOptions load;
  load.base = testbed.Scratch(kMiB);
  load.size = kEnclaveBytes;
  load.cores = {1};
  load.core_caps = {core_cap};
  SpanLog* log = result.NewSpanLog(traced);
  EnableProfiler({&monitor}, traced);
  const MonitorCounters before = ReadCounters({&monitor});
  result.samples.reserve(kLaunches);
  uint64_t monitor_errors = 0;

  const uint64_t start = NowNs();
  result.setup_s = Seconds(start - setup_start);
  for (uint32_t i = 0; i < kLaunches; ++i) {
    const uint64_t nonce = (seed << 32) + i + 1;
    const uint64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan op(*log, kOpSpan, i);
      std::optional<Result<Enclave>> enclave;
      {
        ScopedSpan span(*log, kEnclaveCreateSpan, i, op.handle());
        enclave.emplace(Enclave::Create(&monitor, 0, image, load));
      }
      if (enclave->ok()) {
        std::optional<Result<DomainAttestation>> report;
        {
          ScopedSpan span(*log, kAttestSpan, i, op.handle());
          report.emplace((*enclave)->Attest(0, nonce));
        }
        bool verified = false;
        if (report->ok()) {
          ScopedSpan span(*log, kVerifyReportSpan, i, op.handle());
          verified = customer
                         .VerifyDomainAgainstImage(**report, image, load.base, load.size,
                                                   load.cores, nonce)
                         .ok();
        } else {
          ++monitor_errors;
        }
        Status destroyed;
        {
          ScopedSpan span(*log, kDestroySpan, i, op.handle());
          destroyed = monitor.DestroyDomain(0, (*enclave)->handle());
        }
        monitor_errors += destroyed.ok() ? 0 : 1;
        ok = verified && destroyed.ok();
      } else {
        ++monitor_errors;
      }
    }
    const uint64_t t1 = NowNs();
    result.samples.push_back({t1, t1 - t0});
    result.failed += ok ? 0 : 1;
  }
  result.timed_s = Seconds(NowNs() - start);
  result.peak_rss_mib = PeakRssMib({&monitor}, 0);

  if (traced) {
    AddMonitorCounters(&result, before, ReadCounters({&monitor}), monitor_errors);
  }
  return result;
}

// --- main -----------------------------------------------------------------

void PrintResult(const std::string& workload, const PassResult& result) {
  std::printf("{\"workload\": \"%s\", \"setup_s\": %.9f, \"timed_s\": %.9f, \"attempted\": %llu, "
              "\"failed\": %llu, \"post_checks_ok\": %s, \"peak_rss_mib\": %.6f, "
              "\"latency_ns\": [",
              workload.c_str(), result.setup_s, result.timed_s,
              static_cast<unsigned long long>(result.samples.size() + result.lost),
              static_cast<unsigned long long>(result.failed),
              result.post_checks_ok ? "true" : "false", result.peak_rss_mib);
  for (size_t i = 0; i < result.samples.size(); ++i) {
    std::printf(i == 0 ? "%llu" : ",%llu",
                static_cast<unsigned long long>(result.samples[i].latency_ns));
  }
  std::printf("], \"counters\": {");
  for (size_t i = 0; i < result.counters.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", result.counters[i].first.c_str(),
                result.counters[i].second);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      traced = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  using Runner = PassResult (*)(uint64_t, bool);
  const std::map<std::string, Runner> runners = {
      {"cap_churn", RunCapChurn},
      {"attest_read", RunAttestRead},
      {"fleet_verify", RunFleetVerify},
      {"enclave_lifecycle", RunEnclaveLifecycle},
  };
  const auto runner = runners.find(workload);
  if (runner == runners.end() || (traced && spans_path.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <cap_churn|attest_read|fleet_verify|"
                 "enclave_lifecycle> --seed <n> [--trace 0|1 --spans <path>]\n");
    return 2;
  }
  const PassResult result = runner->second(seed, traced);
  if (traced && !WriteSpans(spans_path, result.span_logs)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", spans_path.c_str());
    return 2;
  }
  PrintResult(workload, result);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace tyche

int main(int argc, char** argv) { return tyche::perfbench::Main(argc, argv); }
