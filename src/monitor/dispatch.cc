// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/dispatch.h"

#include <chrono>

#include "src/support/fault_hook.h"
#include "src/support/locking.h"

namespace tyche {

namespace {

// Dispatch-level reader/writer classification (DESIGN.md §10). SHARED ops
// never mutate the capability tree, the domain table's shape, or backend
// mappings; whatever per-domain state they do touch is ordered by the
// per-domain shard locks the monitor takes internally. Everything else --
// transfers, revocations, transitions, domain lifecycle -- runs exclusive.
// The classification lives HERE and not inside the monitor because the
// boundary work around some ops (attestation serialization, seal-data
// buffer reads through CheckedRead/CheckedWrite) walks guest memory that an
// exclusive op may be remapping: the lock has to cover the whole call.
bool IsSharedDispatchOp(uint64_t op) {
  switch (static_cast<ApiOp>(op)) {
    case ApiOp::kAttestDomain:
    case ApiOp::kEnumerate:
    case ApiOp::kSetEntryPoint:
    case ApiOp::kExtendMeasurement:
    case ApiOp::kSeal:
    case ApiOp::kSetTransitionPolicy:
    case ApiOp::kSealData:
    case ApiOp::kUnsealData:
      return true;
    default:
      return false;
  }
}

ApiResult Ok(uint64_t ret0 = 0, uint64_t ret1 = 0) {
  return ApiResult{0, ret0, ret1};
}

ApiResult Fail(const Status& status) {
  return ApiResult{static_cast<uint64_t>(status.code()), 0, 0};
}

ApiResult Fail(ErrorCode code) { return ApiResult{static_cast<uint64_t>(code), 0, 0}; }

// Unpacks arg = rights<<8 | policy.
CapRights UnpackRights(uint64_t arg) {
  return CapRights(static_cast<uint8_t>((arg >> 8) & CapRights::kAll));
}
RevocationPolicy UnpackPolicy(uint64_t arg) {
  return RevocationPolicy(static_cast<uint8_t>(arg & RevocationPolicy::kObfuscate));
}

ApiResult DispatchInner(Monitor* monitor, CoreId core, const ApiRegs& regs) {
  if (regs.op >= static_cast<uint64_t>(ApiOp::kOpCount)) {
    return Fail(ErrorCode::kInvalidArgument);
  }
  switch (static_cast<ApiOp>(regs.op)) {
    case ApiOp::kCreateDomain: {
      const auto result = monitor->CreateDomain(core, "anon");
      if (!result.ok()) {
        return Fail(result.status());
      }
      return Ok(result->domain, result->handle);
    }
    case ApiOp::kSetEntryPoint: {
      const Status status = monitor->SetEntryPoint(core, regs.arg0, regs.arg1);
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kShareMemory: {
      const auto result = monitor->ShareMemory(
          core, regs.arg0, regs.arg1, AddrRange{regs.arg2, regs.arg3},
          Perms(static_cast<uint8_t>(regs.arg4 & Perms::kRWX)), UnpackRights(regs.arg5),
          UnpackPolicy(regs.arg5));
      return result.ok() ? Ok(*result) : Fail(result.status());
    }
    case ApiOp::kGrantMemory: {
      const auto result = monitor->GrantMemory(
          core, regs.arg0, regs.arg1, AddrRange{regs.arg2, regs.arg3},
          Perms(static_cast<uint8_t>(regs.arg4 & Perms::kRWX)), UnpackRights(regs.arg5),
          UnpackPolicy(regs.arg5));
      return result.ok() ? Ok(result->granted) : Fail(result.status());
    }
    case ApiOp::kShareUnit: {
      const auto result = monitor->ShareUnit(core, regs.arg0, regs.arg1,
                                             UnpackRights(regs.arg2),
                                             UnpackPolicy(regs.arg2));
      return result.ok() ? Ok(*result) : Fail(result.status());
    }
    case ApiOp::kGrantUnit: {
      const auto result = monitor->GrantUnit(core, regs.arg0, regs.arg1,
                                             UnpackRights(regs.arg2),
                                             UnpackPolicy(regs.arg2));
      return result.ok() ? Ok(*result) : Fail(result.status());
    }
    case ApiOp::kRevoke: {
      const Status status = monitor->Revoke(core, regs.arg0);
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kExtendMeasurement: {
      const Status status =
          monitor->ExtendMeasurement(core, regs.arg0, AddrRange{regs.arg1, regs.arg2});
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kSeal: {
      const Status status = monitor->Seal(core, regs.arg0);
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kAttestDomain: {
      const auto report = regs.arg0 == 0
                              ? monitor->AttestSelf(core, regs.arg1)
                              : monitor->AttestDomain(core, regs.arg0, regs.arg1);
      if (!report.ok()) {
        return Fail(report.status());
      }
      const std::vector<uint8_t> wire = SerializeAttestation(*report);
      if (wire.size() > regs.arg3) {
        return Fail(ErrorCode::kResourceExhausted);
      }
      // Written through the CALLER's protection context: the out-buffer
      // must be caller-writable or the write faults like any other access.
      const Status written = monitor->machine()->CheckedWrite(
          core, regs.arg2, std::span<const uint8_t>(wire));
      if (!written.ok()) {
        return Fail(written);
      }
      return Ok(wire.size());
    }
    case ApiOp::kEnumerate: {
      const auto resources = monitor->Enumerate(core, regs.arg0);
      return resources.ok() ? Ok(resources->size()) : Fail(resources.status());
    }
    case ApiOp::kTransition: {
      const Status status = monitor->Transition(core, regs.arg0);
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kReturn: {
      const Status status = monitor->ReturnFromDomain(core);
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kRegisterFastTransition: {
      const Status status = monitor->RegisterFastTransition(core, regs.arg0);
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kFastTransition: {
      const Status status =
          monitor->FastTransition(core, static_cast<DomainId>(regs.arg0));
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kDestroyDomain: {
      const Status status = monitor->DestroyDomain(core, regs.arg0);
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kRouteInterrupt: {
      const Status status = monitor->RouteInterrupt(core, regs.arg0);
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kTakeInterrupt: {
      const auto interrupt = monitor->TakeInterrupt(core);
      return interrupt.ok() ? Ok(interrupt->vector, interrupt->source.value)
                            : Fail(interrupt.status());
    }
    case ApiOp::kSetTransitionPolicy: {
      const Status status =
          monitor->SetTransitionPolicy(core, regs.arg0, regs.arg1 != 0);
      return status.ok() ? Ok() : Fail(status);
    }
    case ApiOp::kSealData:
    case ApiOp::kUnsealData: {
      // arg0 = in pa, arg1 = in size, arg2 = out pa, arg3 = out capacity.
      // Both buffers are touched through the caller's protection context.
      if (regs.arg1 > (1u << 20)) {
        return Fail(ErrorCode::kInvalidArgument);
      }
      std::vector<uint8_t> input(regs.arg1);
      const Status read =
          monitor->machine()->CheckedRead(core, regs.arg0, std::span<uint8_t>(input));
      if (!read.ok()) {
        return Fail(read);
      }
      const auto output = static_cast<ApiOp>(regs.op) == ApiOp::kSealData
                              ? monitor->SealData(core, input)
                              : monitor->UnsealData(core, input);
      if (!output.ok()) {
        return Fail(output.status());
      }
      if (output->size() > regs.arg3) {
        return Fail(ErrorCode::kResourceExhausted);
      }
      const Status written = monitor->machine()->CheckedWrite(
          core, regs.arg2, std::span<const uint8_t>(*output));
      if (!written.ok()) {
        return Fail(written);
      }
      return Ok(output->size());
    }
    case ApiOp::kOpCount:
      break;
  }
  return Fail(ErrorCode::kInvalidArgument);
}

}  // namespace

ApiResult Dispatch(Monitor* monitor, CoreId core, const ApiRegs& regs) {
  Telemetry& telemetry = monitor->telemetry();
  AuditJournal& audit = monitor->audit();
  DispatchProfiler& profiler = monitor->profiler();
  // Serial mode keeps the boundary overhead at a few relaxed loads and
  // predicted branches; concurrent mode (EnableConcurrentDispatch) classifies
  // the op and takes the api lock shared or exclusive around the WHOLE call,
  // including the guest-memory staging above/below DispatchInner. Callers
  // that want concurrency MUST come through Dispatch(): direct monitor
  // method calls remain serial-only.
  const bool concurrent = monitor->concurrent_dispatch();
  const bool shared_op = concurrent && IsSharedDispatchOp(regs.op);
  // With telemetry, the journal, AND the profiler fully off the boundary
  // adds a handful of relaxed loads and branches (including the watchdog's
  // disabled tick) -- measured by bench_telemetry / bench_profile against
  // the seed baseline.
  const bool journal_on = audit.enabled();
  const bool prof_on = profiler.enabled();
  if (!telemetry.any_enabled() && !journal_on && !prof_on) {
    ApiResult result;
    {
      ConditionalSharedLock read_lock(monitor->api_mu(), shared_op,
                                      telemetry.shared_contention(),
                                      telemetry.shared_wait_ns());
      ConditionalUniqueLock write_lock(monitor->api_mu(), concurrent && !shared_op,
                                       telemetry.exclusive_contention(),
                                       telemetry.exclusive_wait_ns(),
                                       DispatchPhase::kApiLockWait);
      result = DispatchInner(monitor, core, regs);
    }
    if (result.error != 0) [[unlikely]] {
      // First occurrence of each (op, error) shape snapshots a post-mortem
      // record; repeats cost two relaxed loads (see FlightRecorder). No
      // span id here -- the uninstrumented path never opens one.
      monitor->flight_recorder().OnDispatchError(static_cast<uint16_t>(regs.op),
                                                 /*span=*/0, result.error);
    }
    monitor->watchdog().MaybeTick(static_cast<uint16_t>(regs.op), /*span=*/0);
    return result;
  }
  // Resolve the caller BEFORE the call: ops like kTransition change it.
  const uint32_t caller = core < monitor->machine()->num_cores()
                              ? monitor->CurrentDomain(core)
                              : kTraceNoDomain;
  const bool timing = telemetry.any_enabled();
  const auto start = (timing || prof_on) ? std::chrono::steady_clock::now()
                                         : std::chrono::steady_clock::time_point{};
  const uint64_t start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start.time_since_epoch())
          .count());
  // The phase window opens on the SAME clock read the TraceEntry timing
  // uses and closes on the same end read below, so the per-phase sums
  // reconcile with the end-to-end duration exactly (kOther absorbs the
  // residual boundary work; bench_profile gates the ratio).
  const bool windowed = prof_on && profiler.BeginWindow(start_ns);

  // Fault-site triggers are detected by delta: if the hook's fired count
  // moved during this call, the flight recorder captures the last fired site
  // alongside the dispatch outcome. Only sampled while the hook is active,
  // so production dispatch reads one flag.
  const bool faults_active = fault_hook.active.load(std::memory_order_relaxed);
  const uint64_t faults_before =
      faults_active ? fault_hook.fired.load(std::memory_order_acquire) : 0;

  // Every journal record caused by this call -- engine mutations, cascades,
  // backend effects -- shares this span id with the TraceEntry.
  const uint64_t span = monitor->BeginSpan(core);
  const uint16_t op = static_cast<uint16_t>(
      regs.op < static_cast<uint64_t>(ApiOp::kOpCount) ? regs.op : ~0ull);
  if (journal_on) {
    audit.BeginDispatch(span, op, caller);
  }
  ApiResult result;
  {
    ConditionalSharedLock read_lock(monitor->api_mu(), shared_op,
                                    telemetry.shared_contention(),
                                    telemetry.shared_wait_ns());
    ConditionalUniqueLock write_lock(monitor->api_mu(), concurrent && !shared_op,
                                     telemetry.exclusive_contention(),
                                     telemetry.exclusive_wait_ns(),
                                     DispatchPhase::kApiLockWait);
    result = DispatchInner(monitor, core, regs);
  }
  monitor->EndSpan(core);

  const uint64_t args[] = {regs.arg0, regs.arg1, regs.arg2,
                           regs.arg3, regs.arg4, regs.arg5};
  const uint64_t args_digest = Fnv1aDigest(args, 6);

  if (journal_on) {
    audit.EndDispatch(span, op, caller, args_digest, result.error);
  }
  const auto end = (timing || windowed) ? std::chrono::steady_clock::now()
                                        : std::chrono::steady_clock::time_point{};
  const uint64_t end_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end.time_since_epoch())
          .count());
  if (windowed) {
    profiler.EndWindow(op, span, end_ns);
  }
  if (timing) {
    TraceEntry entry;
    entry.op = op;
    entry.core = core;
    entry.domain = caller;
    entry.span = span;
    entry.args_digest = args_digest;
    entry.error = result.error;
    entry.duration_ns = end_ns - start_ns;
    entry.start_ns = start_ns;
    // The telemetry-record overhead runs after the e2e clock stopped, so it
    // is measured DETACHED: visible in the phase histograms without ever
    // perturbing the reconciliation property above. Sampled 1-in-16 (keyed
    // off the monotonic span id, so no extra state) because the measurement
    // itself costs two clock reads -- full-rate sampling would tax every
    // dispatch to time a ~constant-cost recording step.
    const bool sample_telemetry = windowed && (span & 15) == 0;
    const uint64_t record_start = sample_telemetry ? ProfilerNowNs() : 0;
    telemetry.RecordCall(entry);
    if (sample_telemetry) {
      const uint64_t record_end = ProfilerNowNs();
      profiler.RecordDetached(op, DispatchPhase::kTelemetry,
                              record_end - record_start, span, record_end);
    }
  }
  // Post-mortem hooks, outside every dispatch lock. An injected fault that
  // fired during this call is the stronger signal, so it wins over the
  // generic dispatch-error capture.
  if (faults_active &&
      fault_hook.fired.load(std::memory_order_acquire) > faults_before) [[unlikely]] {
    monitor->flight_recorder().Capture(
        "fault_site", op, span, result.error,
        std::string("site ") + fault_hook.last_fired_site.load(std::memory_order_relaxed));
  } else if (result.error != 0) [[unlikely]] {
    monitor->flight_recorder().OnDispatchError(op, span, result.error);
  }
  // Watchdog tick LAST, after every lock is released: the checks take only
  // leaf locks (journal mutex, engine shared lock) plus one relaxed backend
  // load. The span lets a violation capture name the dispatch whose tick
  // detected it.
  monitor->watchdog().MaybeTick(op, span);
  return result;
}

}  // namespace tyche
