// Copyright 2026 The Tyche Reproduction Authors.
// Fault-tolerant verification front end (DESIGN.md §12): the customer-side
// service that turns "verify service S" into a verdict that is correct even
// when monitors crash, wires drop, and load spikes — the trust workflow of
// §2.1 hardened into a fleet client.
//
// One Verify() call composes, in order:
//   routing      the service table is re-consulted EVERY attempt, so a
//                request in flight across a failover transparently lands on
//                the replica;
//   cache        a (PCR digest, node, epoch, service) hit short-circuits
//                the wire entirely — epoch is part of the key, so entries
//                verified against a pre-crash monitor are unreachable the
//                instant the node recovers (see cache.h);
//   breaker      a per-monitor circuit breaker (breaker.h) fails fast while
//                a node is sick and probes it back to health; a breaker
//                that keeps re-opening declares the node down and triggers
//                the failover ladder (Fleet::FailoverNode);
//   attempt      deadline-carrying request over the lossy wire, tier 1
//                (monitor identity, verified once per (node, epoch)) then
//                tier 2 (domain report vs the pinned golden measurement);
//                optionally a hedged duplicate after `hedge_delay_ns`;
//   retry        typed failures back off with de-synchronized jitter
//                (backoff.h) and try again until `max_attempts` or the
//                deadline.
//
// The invariant everything above serves: a verdict is kOk ONLY when the
// full two-tier chain verified against the pinned golden measurement.
// Every other outcome is a typed error — kDeadlineExceeded, kUnavailable,
// kOverloaded — produced within the deadline. Tampered reports (the
// fleet.cache_poison fault) die at signature/digest verification and are
// never cached; overload sheds at admission with kOverloaded, never by
// silent drop or unbounded queueing.

#ifndef SRC_FLEET_FRONTEND_H_
#define SRC_FLEET_FRONTEND_H_

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "src/fleet/breaker.h"
#include "src/fleet/cache.h"
#include "src/fleet/node.h"
#include "src/fleet/quota.h"
#include "src/support/backoff.h"
#include "src/support/prng.h"
#include "src/tyche/metrics_registry.h"

namespace tyche {

struct FrontEndOptions {
  // Overall budget per Verify() when the request carries none.
  uint64_t default_deadline_ns = 2'000'000;
  // Per-attempt wire wait before the attempt is charged as kUnavailable.
  uint64_t attempt_timeout_ns = 60'000;
  // Hedged retry: duplicate the attest request after this long with no
  // response (0 disables). The hedge re-consults the routing table at send
  // time, so mid-failover it lands on the replica.
  uint64_t hedge_delay_ns = 30'000;
  uint32_t max_attempts = 8;
  // Exponential backoff between attempts, equal-jitter (backoff.h).
  BackoffPolicy backoff{/*base=*/8'000, /*cap=*/250'000};
  // Simulated time step while polling the wire.
  uint64_t poll_step_ns = 1'000;
  BreakerConfig breaker{/*failure_threshold=*/3, /*open_cooldown_ns=*/60'000,
                        /*probe_successes=*/1};
  // A breaker that opened this many times declares its node down and
  // triggers the failover ladder. >= 2 means the first open still gets a
  // half-open probe before the client gives up on the node.
  uint32_t declare_down_opens = 2;
  bool auto_failover = true;
  // Bounded admission queue: beyond this, requests shed with kOverloaded.
  size_t queue_capacity = 16;
  size_t cache_capacity = 128;
  // Staleness bound on cache entries (0 = off, the historical behavior);
  // expirations count in tyche_fleet_cache_expired_total.
  uint64_t cache_ttl_ns = 0;
  // DrainQueue groups up to this many queued requests for the SAME node and
  // verifies their quotes with one batched Schnorr check (DESIGN.md §13).
  // 1 disables batching.
  size_t max_batch = 8;
  // After one full two-tier verify, keep an epoch-bound session per node so
  // repeat verifications skip the chain walk (DESIGN.md §13).
  bool enable_resumption = true;
  // Per-tenant admission quotas (rate 0 = unlimited, the historical
  // behavior). Exhaustion is typed kQuotaExceeded, never kOverloaded.
  TenantQuotaConfig tenant_quota{};
  uint64_t seed = 0xF1EE7;
};

struct VerifyRequest {
  uint32_t service = 0;
  uint64_t nonce = 0;
  uint64_t deadline_ns = 0;  // budget from now; 0 -> options default
  uint32_t tenant = 0;       // admission-quota accounting key
};

struct VerifyVerdict {
  Digest measurement;        // == the pinned golden measurement, always
  bool from_cache = false;
  bool hedged_win = false;   // the hedged duplicate answered first
  bool resumed = false;      // served via session resumption, no chain walk
  uint32_t node = 0;         // node that served (or whose cache entry hit)
  uint64_t epoch = 0;        // its serving epoch at verification time
  uint32_t attempts = 0;     // wire attempts spent (0 = pure cache hit)
  uint64_t latency_ns = 0;
};

class VerificationFrontEnd {
 public:
  explicit VerificationFrontEnd(Fleet* fleet, FrontEndOptions options = {});
  VerificationFrontEnd(const VerificationFrontEnd&) = delete;
  VerificationFrontEnd& operator=(const VerificationFrontEnd&) = delete;

  // The full retry/breaker/cache/failover composition described above.
  // kOk only with a fully verified golden measurement; otherwise a typed
  // error within the deadline.
  Result<VerifyVerdict> Verify(const VerifyRequest& request);

  // Bounded admission. Cache-servable requests are answered inline even
  // when the queue is full (shedding prefers work that needs no wire);
  // otherwise the request queues, or sheds with typed kOverloaded.
  struct AdmissionOutcome {
    bool enqueued = false;
    std::optional<VerifyVerdict> verdict;  // set when served from cache
  };
  Result<AdmissionOutcome> Submit(const VerifyRequest& request);

  struct QueuedResult {
    VerifyRequest request;
    Result<VerifyVerdict> result;
  };
  // Drains the admission queue, grouping runs of requests homed on the same
  // node into batches of up to `max_batch`: one tier-1 check, one wire
  // round, ONE batched Schnorr verification for the whole group. Requests
  // the batch cannot vouch for (missing response, refused, forged quote —
  // attributed by the batch fallback) are re-run through the full Verify()
  // composition, so every queued request still gets exactly one result with
  // the same verdict Verify() would produce.
  std::vector<QueuedResult> DrainQueue();

  // Declares `node_id` down and runs the failover ladder now (breaker
  // reset, cache epoch invalidation included). Normally driven internally
  // by `declare_down_opens`; exposed for tests and operators.
  Status TriggerFailover(uint32_t node_id);

  size_t queue_depth() const { return queue_.size(); }
  MeasurementCache& cache() { return cache_; }
  CircuitBreaker& breaker(uint32_t node_id) { return breakers_[node_id]; }
  MetricsRegistry& metrics() { return metrics_; }
  Fleet* fleet() { return fleet_; }

  uint64_t shed() const { return shed_->Value(); }
  uint64_t hedged() const { return hedged_->Value(); }
  uint64_t hedged_wins() const { return hedged_wins_->Value(); }
  uint64_t failovers_triggered() const { return failover_->Value(); }
  uint64_t retries() const { return retries_->Value(); }
  uint64_t sessions_established() const { return session_established_->Value(); }
  uint64_t sessions_resumed() const { return session_resumed_->Value(); }
  uint64_t sessions_rejected() const { return session_rejected_->Value(); }
  uint64_t batch_verifies() const { return batch_verifies_->Value(); }
  uint64_t batch_quotes() const { return batch_quotes_->Value(); }
  uint64_t batch_forged() const { return batch_forged_->Value(); }
  uint64_t batch_fallbacks() const { return batch_fallback_->Value(); }
  uint64_t quota_rejections() const { return quota_rejected_total_; }

  // Bench hooks: drop memoized state so one iteration re-pays the full
  // chain walk (ForgetVerifiedMonitors) or the resumption handshake
  // (ForgetSessions).
  void ForgetSessions() { sessions_.clear(); }
  void ForgetVerifiedMonitors() { verified_monitors_.clear(); }

 private:
  uint64_t now() const { return fleet_->clock().now_ns; }

  // Pumps every node and sweeps all response channels into the inbox.
  // The fleet.verify_timeout fault site lives here: an injected hit
  // blackholes one received response, indistinguishable from a drop.
  void PumpAndDrain();
  std::vector<FleetResponse>::iterator FindResponse(uint64_t request_id);
  std::optional<FleetResponse> TakeResponse(uint64_t request_id);
  uint64_t SendRequest(MonitorNode* node, FleetRequestKind kind,
                       uint32_t domain, uint64_t nonce,
                       const Digest* token = nullptr);
  // Waits for `request_id` until the attempt window or overall deadline
  // closes, advancing simulated time in poll steps.
  Result<FleetResponse> Await(uint64_t request_id, uint64_t attempt_deadline,
                              uint64_t overall_deadline);

  // Tier 1, memoized per (node, epoch): identity round trip + TPM quote
  // verification against the golden images. Returns the monitor's verified
  // report-signing key for tier-2 checks.
  Result<SchnorrPublicKey> EnsureMonitorVerified(MonitorNode* node,
                                                 uint64_t overall_deadline);

  // One wire attempt (tier 1 + tier 2 + optional hedge). On success fills
  // verdict->{measurement, node, epoch, hedged_win}.
  Status AttemptVerify(const ServiceRecord& route, const VerifyRequest& request,
                       uint64_t overall_deadline, VerifyVerdict* verdict);

  std::optional<VerifyVerdict> TryCache(const VerifyRequest& request);
  void MaybeDeclareDown(uint32_t node_id);
  void AdvanceBackoff(uint32_t attempt, uint64_t overall_deadline);

  // An established resumption session with one monitor instance: the DH
  // shared secret, keyed for HMAC once, and the epoch-bound token derived
  // from it. Dropped on failover (we trigger it) or on a node-side
  // kFailedPrecondition (someone else bumped the epoch).
  struct Session {
    uint64_t epoch = 0;
    HmacSha256Key key;
    Digest token;
  };

  // One resumed attempt: token out, measurement + ack MAC back, checked
  // against the pinned golden measurement. kFailedPrecondition means the
  // token's epoch is stale — the caller drops the session and falls back to
  // the full chain walk within the same attempt.
  Status AttemptResume(const ServiceRecord& route, const VerifyRequest& request,
                       const Session& session, uint64_t overall_deadline,
                       VerifyVerdict* verdict);
  void MaybeEstablishSession(const VerifyVerdict& verdict);

  // Drains one same-node group through the batched fast path; appends one
  // QueuedResult per request.
  void DrainBatch(uint32_t node_id, const std::vector<VerifyRequest>& group,
                  std::vector<QueuedResult>* results);

  struct TenantMetrics {
    StripedCounter* admitted = nullptr;
    StripedCounter* quota_exceeded = nullptr;
  };
  TenantMetrics& EnsureTenantMetrics(uint32_t tenant);

  Fleet* fleet_;
  FrontEndOptions opts_;
  MeasurementCache cache_;
  std::vector<CircuitBreaker> breakers_;
  Prng prng_;
  uint64_t next_request_id_ = 0;
  // Responses not yet taken, at most kInboxCap; a handful at a time, so a
  // scan beats a tree that allocates a node per response.
  std::vector<FleetResponse> inbox_;
  // (node, epoch) -> verified monitor report-signing key.
  std::map<std::pair<uint32_t, uint64_t>, SchnorrPublicKey> verified_monitors_;
  std::deque<VerifyRequest> queue_;
  // This front end's DH identity for session resumption.
  SchnorrKeyPair client_key_;
  std::map<uint32_t, Session> sessions_;  // node -> live session
  TenantQuotas quotas_;
  std::map<uint32_t, TenantMetrics> tenant_metrics_;
  uint64_t quota_rejected_total_ = 0;

  MetricsRegistry metrics_;
  StripedCounter* verifications_ok_;
  StripedCounter* verifications_cache_;
  StripedCounter* verifications_error_;
  StripedCounter* retries_;
  StripedCounter* hedged_;
  StripedCounter* hedged_wins_;
  StripedCounter* shed_;
  StripedCounter* failover_;
  StripedCounter* deadline_exceeded_;
  StripedCounter* session_established_;
  StripedCounter* session_resumed_;
  StripedCounter* session_rejected_;
  StripedCounter* batch_verifies_;
  StripedCounter* batch_quotes_;
  StripedCounter* batch_forged_;
  StripedCounter* batch_fallback_;
};

}  // namespace tyche

#endif  // SRC_FLEET_FRONTEND_H_
