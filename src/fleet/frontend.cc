// Copyright 2026 The Tyche Reproduction Authors.

#include "src/fleet/frontend.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/support/fault_hook.h"
#include "src/tyche/verifier.h"

namespace tyche {
namespace {

// Responses whose stale request died are swept out past this bound, oldest
// request first.
constexpr size_t kInboxCap = 64;

bool ByRequestId(const FleetResponse& a, const FleetResponse& b) {
  return a.request_id < b.request_id;
}

// Outcomes that say "this monitor (or the path to it) is unhealthy" and feed
// its breaker. kNotFound (stale route, fixed by re-routing) and kOverloaded
// (our own admission control) say nothing about the node and must not trip
// it — see breaker.h.
bool CountsAsNodeFailure(ErrorCode code) {
  switch (code) {
    case ErrorCode::kUnavailable:
    case ErrorCode::kMigrating:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kAttestationMismatch:
    case ErrorCode::kSignatureInvalid:
    case ErrorCode::kInternal:
      return true;
    default:
      return false;
  }
}

}  // namespace

VerificationFrontEnd::VerificationFrontEnd(Fleet* fleet, FrontEndOptions options)
    : fleet_(fleet),
      opts_(options),
      cache_(options.cache_capacity, options.cache_ttl_ns),
      prng_(options.seed),
      quotas_(options.tenant_quota) {
  breakers_.resize(fleet_->num_nodes(), CircuitBreaker(opts_.breaker));
  const std::string client_seed = "fleet-frontend-client-" + std::to_string(opts_.seed);
  client_key_ = DeriveKeyPair(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(client_seed.data()), client_seed.size()));
  verifications_ok_ = metrics_.AddCounter(
      "tyche_fleet_verifications_total", "Verification verdicts by result.",
      {{"result", "ok"}});
  verifications_cache_ = metrics_.AddCounter(
      "tyche_fleet_verifications_total", "Verification verdicts by result.",
      {{"result", "cache"}});
  verifications_error_ = metrics_.AddCounter(
      "tyche_fleet_verifications_total", "Verification verdicts by result.",
      {{"result", "error"}});
  retries_ = metrics_.AddCounter("tyche_fleet_retries_total",
                                 "Wire attempts beyond the first per request.");
  hedged_ = metrics_.AddCounter("tyche_fleet_hedged_total",
                                "Hedged duplicate attest requests sent.");
  hedged_wins_ = metrics_.AddCounter(
      "tyche_fleet_hedged_wins_total",
      "Verifications where the hedged duplicate answered first.");
  shed_ = metrics_.AddCounter(
      "tyche_fleet_shed_total",
      "Requests shed at admission with typed kOverloaded.");
  failover_ = metrics_.AddCounter(
      "tyche_fleet_failover_total",
      "Failover ladders triggered by breaker declare-down.");
  deadline_exceeded_ = metrics_.AddCounter(
      "tyche_fleet_deadline_exceeded_total",
      "Verifications that exhausted their deadline.");
  session_established_ = metrics_.AddCounter(
      "tyche_fleet_session_established_total",
      "Resumption sessions established after a full two-tier verify.");
  session_resumed_ = metrics_.AddCounter(
      "tyche_fleet_session_resumed_total",
      "Verifications served via session resumption (no chain walk).");
  session_rejected_ = metrics_.AddCounter(
      "tyche_fleet_session_rejected_total",
      "Resume attempts refused by the node (stale epoch-bound token).");
  batch_verifies_ = metrics_.AddCounter(
      "tyche_fleet_batch_verifies_total",
      "Batched Schnorr verifications performed by DrainQueue.");
  batch_quotes_ = metrics_.AddCounter(
      "tyche_fleet_batch_quotes_total",
      "Quotes verified inside batched verifications.");
  batch_forged_ = metrics_.AddCounter(
      "tyche_fleet_batch_forged_total",
      "Quotes inside a batch rejected and attributed by the fallback.");
  batch_fallback_ = metrics_.AddCounter(
      "tyche_fleet_batch_fallback_total",
      "Batched verifications that fell back to per-signature checks.");
  metrics_.AddCallback("tyche_fleet_cache_expired_total",
                       "Cache entries expired by the TTL bound.",
                       /*counter=*/true, {},
                       [this] { return cache_.expired(); });
  metrics_.AddCallback("tyche_fleet_cache_hits_total",
                       "Measurement cache hits.", /*counter=*/true, {},
                       [this] { return cache_.hits(); });
  metrics_.AddCallback("tyche_fleet_cache_misses_total",
                       "Measurement cache misses.", /*counter=*/true, {},
                       [this] { return cache_.misses(); });
  metrics_.AddCallback(
      "tyche_fleet_cache_hit_ratio_percent",
      "Cache hits as a percentage of lookups.", /*counter=*/false, {},
      [this]() -> uint64_t {
        const uint64_t total = cache_.hits() + cache_.misses();
        return total == 0 ? 0 : cache_.hits() * 100 / total;
      });
  metrics_.AddCallback("tyche_fleet_queue_depth",
                       "Admission queue occupancy.", /*counter=*/false, {},
                       [this] { return static_cast<uint64_t>(queue_.size()); });
  for (size_t i = 0; i < fleet_->num_nodes(); ++i) {
    const MetricLabels labels = {{"node", std::to_string(i)}};
    metrics_.AddCallback(
        "tyche_fleet_breaker_state",
        "Breaker state per node: 0 closed, 1 open, 2 half-open.",
        /*counter=*/false, labels, [this, i] {
          return static_cast<uint64_t>(breakers_[i].state(now()));
        });
    metrics_.AddCallback("tyche_fleet_node_epoch",
                         "Serving epoch per node (bumps on recovery).",
                         /*counter=*/false, labels,
                         [this, i] { return fleet_->node(i)->epoch(); });
  }
}

void VerificationFrontEnd::PumpAndDrain() {
  fleet_->PumpAll();
  for (size_t i = 0; i < fleet_->num_nodes(); ++i) {
    LossyChannel* wire = fleet_->node(i)->responses();
    while (true) {
      auto frame = wire->Recv();
      if (!frame.ok()) {
        break;
      }
      if (FaultFires(faults::kFleetVerifyTimeout)) {
        continue;  // CONSUMED: blackhole this response; the client times out
      }
      FleetResponse response;
      if (!DecodeFleetResponse(*frame, &response)) {
        continue;
      }
      if (inbox_.size() >= kInboxCap) {
        inbox_.erase(std::min_element(inbox_.begin(), inbox_.end(), ByRequestId));
      }
      const auto held = FindResponse(response.request_id);
      if (held != inbox_.end()) {
        *held = std::move(response);  // a duplicated frame replaces its twin
      } else {
        inbox_.push_back(std::move(response));
      }
    }
  }
}

std::vector<FleetResponse>::iterator VerificationFrontEnd::FindResponse(uint64_t request_id) {
  return std::find_if(inbox_.begin(), inbox_.end(), [request_id](const FleetResponse& held) {
    return held.request_id == request_id;
  });
}

std::optional<FleetResponse> VerificationFrontEnd::TakeResponse(uint64_t request_id) {
  const auto it = FindResponse(request_id);
  if (it == inbox_.end()) {
    return std::nullopt;
  }
  FleetResponse response = std::move(*it);
  inbox_.erase(it);
  return response;
}

uint64_t VerificationFrontEnd::SendRequest(MonitorNode* node, FleetRequestKind kind,
                                           uint32_t domain, uint64_t nonce,
                                           const Digest* token) {
  FleetRequest request;
  request.request_id = ++next_request_id_;
  request.kind = kind;
  request.domain = domain;
  request.nonce = nonce;
  request.client_pub = client_key_.pub.y;
  if (token != nullptr) {
    request.token = *token;
  }
  const Status sent = node->requests()->Send(EncodeFleetRequest(request));
  (void)sent;  // a dropped request is just a timeout; retries own recovery
  return request.request_id;
}

Result<FleetResponse> VerificationFrontEnd::Await(uint64_t request_id,
                                                  uint64_t attempt_deadline,
                                                  uint64_t overall_deadline) {
  while (true) {
    // A round trip is never free: one wire poll costs one step of simulated
    // time, so a response cannot be observed before the poll that carries it.
    fleet_->clock().Advance(opts_.poll_step_ns);
    PumpAndDrain();
    const uint64_t t = now();
    if (auto response = TakeResponse(request_id)) {
      if (t >= overall_deadline) {
        return Error(ErrorCode::kDeadlineExceeded, "response arrived after the deadline");
      }
      return std::move(*response);
    }
    if (t >= overall_deadline) {
      return Error(ErrorCode::kDeadlineExceeded, "deadline while awaiting response");
    }
    if (t >= attempt_deadline) {
      return Error(ErrorCode::kUnavailable, "attempt timed out");
    }
  }
}

Result<SchnorrPublicKey> VerificationFrontEnd::EnsureMonitorVerified(
    MonitorNode* node, uint64_t overall_deadline) {
  // The (node id, advertised epoch) pair names one monitor INSTANCE; a
  // recovered monitor is a new instance and gets re-verified from scratch.
  const auto cached = verified_monitors_.find({node->id(), node->epoch()});
  if (cached != verified_monitors_.end()) {
    return cached->second;
  }
  const uint64_t nonce = prng_.Next();
  const uint64_t rid = SendRequest(node, FleetRequestKind::kIdentity, 0, nonce);
  const uint64_t attempt_deadline =
      std::min(now() + opts_.attempt_timeout_ns, overall_deadline);
  TYCHE_ASSIGN_OR_RETURN(const FleetResponse response,
                         Await(rid, attempt_deadline, overall_deadline));
  if (response.code != ErrorCode::kOk) {
    return Error(response.code, "identity request refused");
  }
  auto identity = DeserializeMonitorIdentity(response.payload);
  if (!identity.ok()) {
    return Error(ErrorCode::kAttestationMismatch, "identity failed to parse");
  }
  const RemoteVerifier verifier(node->machine()->tpm().attestation_key(),
                                node->golden_firmware(), node->golden_monitor());
  TYCHE_RETURN_IF_ERROR(verifier.VerifyMonitor(*identity, nonce));
  verified_monitors_[{node->id(), node->epoch()}] = identity->monitor_key;
  return identity->monitor_key;
}

Status VerificationFrontEnd::AttemptVerify(const ServiceRecord& route,
                                           const VerifyRequest& request,
                                           uint64_t overall_deadline,
                                           VerifyVerdict* verdict) {
  MonitorNode* primary = fleet_->node(route.node);
  TYCHE_ASSIGN_OR_RETURN(const SchnorrPublicKey primary_key,
                         EnsureMonitorVerified(primary, overall_deadline));
  const uint32_t primary_node = route.node;
  const uint64_t primary_epoch = primary->epoch();
  const uint64_t rid =
      SendRequest(primary, FleetRequestKind::kAttest, route.domain, request.nonce);
  const uint64_t attempt_deadline =
      std::min(now() + opts_.attempt_timeout_ns, overall_deadline);
  const uint64_t hedge_at =
      opts_.hedge_delay_ns == 0 ? UINT64_MAX : now() + opts_.hedge_delay_ns;

  uint64_t hedge_rid = 0;
  SchnorrPublicKey hedge_key;
  Digest hedge_measurement;
  uint32_t hedge_node = 0;
  uint64_t hedge_epoch = 0;

  const auto settle = [&](const FleetResponse& response,
                          const SchnorrPublicKey& key, const Digest& golden,
                          uint32_t node_id, uint64_t epoch, bool hedged) -> Status {
    if (response.code != ErrorCode::kOk) {
      return Error(response.code, "attest request refused");
    }
    TYCHE_ASSIGN_OR_RETURN(
        const DomainAttestation report,
        VerifySerializedReport(response.payload, key, request.nonce, &golden));
    verdict->measurement = report.measurement;
    verdict->node = node_id;
    verdict->epoch = epoch;
    verdict->hedged_win = hedged;
    if (hedged) {
      hedged_wins_->Add();
    }
    return OkStatus();
  };

  while (true) {
    // Same wire-time model as Await: the poll itself costs a step, and a
    // quote that lands after the caller's deadline is late, not a success.
    fleet_->clock().Advance(opts_.poll_step_ns);
    PumpAndDrain();
    const uint64_t t = now();
    if (t < overall_deadline) {
      if (auto response = TakeResponse(rid)) {
        return settle(*response, primary_key, route.measurement, primary_node,
                      primary_epoch, /*hedged=*/false);
      }
      if (hedge_rid != 0) {
        if (auto response = TakeResponse(hedge_rid)) {
          return settle(*response, hedge_key, hedge_measurement, hedge_node,
                        hedge_epoch, /*hedged=*/true);
        }
      }
    }
    if (t >= overall_deadline) {
      return Error(ErrorCode::kDeadlineExceeded, "deadline mid-attempt");
    }
    if (t >= attempt_deadline) {
      return Error(ErrorCode::kUnavailable, "attempt timed out");
    }
    if (hedge_rid == 0 && t >= hedge_at) {
      // Hedge against drops and slow nodes: duplicate the attest to the
      // service's CURRENT home (re-consulted now, so mid-failover the hedge
      // lands on the replica). Only hedge to an already-verified monitor
      // instance — tier 1 inside a hedge would nest wire waits.
      const ServiceRecord fresh = fleet_->service(request.service);
      MonitorNode* target = fleet_->node(fresh.node);
      const auto key = verified_monitors_.find({target->id(), target->epoch()});
      if (key != verified_monitors_.end()) {
        hedge_key = key->second;
        hedge_measurement = fresh.measurement;
        hedge_node = fresh.node;
        hedge_epoch = target->epoch();
        hedge_rid = SendRequest(target, FleetRequestKind::kAttest, fresh.domain,
                                request.nonce);
        hedged_->Add();
      }
    }
  }
}

Status VerificationFrontEnd::AttemptResume(const ServiceRecord& route,
                                           const VerifyRequest& request,
                                           const Session& session,
                                           uint64_t overall_deadline,
                                           VerifyVerdict* verdict) {
  MonitorNode* primary = fleet_->node(route.node);
  const uint64_t rid = SendRequest(primary, FleetRequestKind::kResume,
                                   route.domain, request.nonce, &session.token);
  const uint64_t attempt_deadline =
      std::min(now() + opts_.attempt_timeout_ns, overall_deadline);
  TYCHE_ASSIGN_OR_RETURN(const FleetResponse response,
                         Await(rid, attempt_deadline, overall_deadline));
  if (response.code != ErrorCode::kOk) {
    // kFailedPrecondition = stale token (epoch bumped); the caller drops
    // the session and runs the full chain walk in the same attempt.
    return Error(response.code, "resume refused");
  }
  if (response.payload.size() != kResumePayloadSize) {
    return Error(ErrorCode::kAttestationMismatch, "resume payload malformed");
  }
  Digest measurement;
  Digest ack;
  std::copy(response.payload.begin(), response.payload.begin() + 32,
            measurement.bytes.begin());
  std::copy(response.payload.begin() + 32, response.payload.end(), ack.bytes.begin());
  // The ack MAC binds (node, epoch, domain, nonce, measurement) under the
  // session secret: fresh (our nonce), from the right instance (epoch), and
  // unforgeable in transit — a tampered payload dies here, exactly like a
  // tampered report dies at signature verification.
  if (!(ack == FleetSessionAck(session.key, route.node, session.epoch,
                               route.domain, request.nonce, measurement))) {
    return Error(ErrorCode::kAttestationMismatch, "resume ack MAC mismatch");
  }
  if (!(measurement == route.measurement)) {
    return Error(ErrorCode::kAttestationMismatch,
                 "resumed measurement does not match pinned golden value");
  }
  verdict->measurement = measurement;
  verdict->node = route.node;
  verdict->epoch = session.epoch;
  verdict->resumed = true;
  return OkStatus();
}

void VerificationFrontEnd::MaybeEstablishSession(const VerifyVerdict& verdict) {
  if (!opts_.enable_resumption) {
    return;
  }
  const auto existing = sessions_.find(verdict.node);
  if (existing != sessions_.end() && existing->second.epoch == verdict.epoch) {
    return;
  }
  // The peer key comes from the tier-1 verification this verdict rode on,
  // so the DH secret is bound to the VERIFIED monitor instance.
  const auto key = verified_monitors_.find({verdict.node, verdict.epoch});
  if (key == verified_monitors_.end()) {
    return;
  }
  Session session;
  session.epoch = verdict.epoch;
  session.key = HmacSha256Key(DhSharedSecret(client_key_.priv, key->second).bytes);
  session.token = FleetSessionToken(session.key, verdict.node, verdict.epoch);
  sessions_[verdict.node] = session;
  session_established_->Add();
}

std::optional<VerifyVerdict> VerificationFrontEnd::TryCache(
    const VerifyRequest& request) {
  const ServiceRecord route = fleet_->service(request.service);
  MonitorNode* primary = fleet_->node(route.node);
  const MeasurementCacheKey key{primary->pcr_prefix(), route.node,
                                primary->epoch(), request.service};
  const MeasurementCacheEntry* entry = cache_.Lookup(key, now());
  if (entry == nullptr || !(entry->measurement == route.measurement)) {
    return std::nullopt;  // a mismatching entry is never served
  }
  VerifyVerdict verdict;
  verdict.measurement = entry->measurement;
  verdict.from_cache = true;
  verdict.node = route.node;
  verdict.epoch = primary->epoch();
  verdict.attempts = 0;
  verdict.latency_ns = 0;
  return verdict;
}

void VerificationFrontEnd::MaybeDeclareDown(uint32_t node_id) {
  if (!opts_.auto_failover) {
    return;
  }
  CircuitBreaker& breaker = breakers_[node_id];
  if (breaker.state(now()) != BreakerState::kOpen ||
      breaker.times_opened() < opts_.declare_down_opens) {
    return;
  }
  (void)TriggerFailover(node_id);  // replica down -> keep retrying later
}

Status VerificationFrontEnd::TriggerFailover(uint32_t node_id) {
  TYCHE_RETURN_IF_ERROR(fleet_->FailoverNode(node_id));
  failover_->Add();
  breakers_[node_id].Reset();
  MonitorNode* node = fleet_->node(node_id);
  // Epoch-bump invalidation: purge measurements, tier-1 verifications, AND
  // resumption sessions recorded against the pre-failover instance — the
  // same bump kills all three.
  sessions_.erase(node_id);
  cache_.InvalidateEpochsBelow(node_id, node->epoch());
  for (auto it = verified_monitors_.begin(); it != verified_monitors_.end();) {
    if (it->first.first == node_id && it->first.second < node->epoch()) {
      it = verified_monitors_.erase(it);
    } else {
      ++it;
    }
  }
  return OkStatus();
}

void VerificationFrontEnd::AdvanceBackoff(uint32_t attempt,
                                          uint64_t overall_deadline) {
  uint64_t wait = JitteredBackoff(prng_, opts_.backoff, attempt);
  const uint64_t t = now();
  if (t + wait > overall_deadline) {
    wait = overall_deadline > t ? overall_deadline - t : 0;
  }
  fleet_->clock().Advance(wait);
}

Result<VerifyVerdict> VerificationFrontEnd::Verify(const VerifyRequest& request) {
  if (request.service >= fleet_->num_services()) {
    return Error(ErrorCode::kNotFound, "no such service");
  }
  const uint64_t start = now();
  const uint64_t deadline =
      start + (request.deadline_ns != 0 ? request.deadline_ns
                                        : opts_.default_deadline_ns);
  Status last = Error(ErrorCode::kUnavailable, "no attempt made");
  for (uint32_t attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    if (now() >= deadline) {
      break;
    }
    // Fresh route every attempt: failover repoints mid-request.
    const ServiceRecord route = fleet_->service(request.service);
    if (auto verdict = TryCache(request)) {
      verdict->attempts = attempt - 1;
      verdict->latency_ns = now() - start;
      verifications_cache_->Add();
      return *verdict;
    }
    CircuitBreaker& breaker = breakers_[route.node];
    const BreakerState pre_state = breaker.state(now());
    if (!breaker.Admit(now())) {
      last = Error(ErrorCode::kUnavailable, "breaker open");
      MaybeDeclareDown(route.node);
      AdvanceBackoff(attempt, deadline);
      continue;
    }
    if (pre_state == BreakerState::kHalfOpen && FaultFires(faults::kFleetBreakerProbe)) {
      // CONSUMED: the half-open probe dies on the wire. Recovery is
      // delayed by one cooldown, never wrong.
      breaker.RecordFailure(now());
      last = Error(ErrorCode::kUnavailable, "breaker probe lost");
      MaybeDeclareDown(route.node);
      AdvanceBackoff(attempt, deadline);
      continue;
    }
    if (attempt > 1) {
      retries_->Add();
    }
    VerifyVerdict verdict;
    Status outcome = OkStatus();
    bool ran_attempt = false;
    if (opts_.enable_resumption) {
      const auto session = sessions_.find(route.node);
      if (session != sessions_.end()) {
        ran_attempt = true;
        outcome = AttemptResume(route, request, session->second, deadline, &verdict);
        if (outcome.ok()) {
          session_resumed_->Add();
        } else if (outcome.code() == ErrorCode::kFailedPrecondition) {
          // Stale token: the node's epoch moved without us driving the
          // failover. Says nothing about the node's health — drop the
          // session and run the full chain walk within the same attempt.
          sessions_.erase(session);
          session_rejected_->Add();
          verdict = VerifyVerdict{};
          outcome = AttemptVerify(route, request, deadline, &verdict);
        }
      }
    }
    if (!ran_attempt) {
      outcome = AttemptVerify(route, request, deadline, &verdict);
    }
    if (outcome.ok()) {
      breaker.RecordSuccess(now());
      MonitorNode* served_by = fleet_->node(verdict.node);
      cache_.Insert({served_by->pcr_prefix(), verdict.node, verdict.epoch,
                     request.service},
                    {verdict.measurement, now()});
      MaybeEstablishSession(verdict);
      verdict.attempts = attempt;
      verdict.latency_ns = now() - start;
      verifications_ok_->Add();
      return verdict;
    }
    last = outcome;
    if (CountsAsNodeFailure(outcome.code())) {
      breaker.RecordFailure(now());
      MaybeDeclareDown(route.node);
    }
    AdvanceBackoff(attempt, deadline);
  }
  verifications_error_->Add();
  if (now() >= deadline) {
    deadline_exceeded_->Add();
    return Error(ErrorCode::kDeadlineExceeded,
                 "deadline exhausted; last error: " + last.message());
  }
  return Error(ErrorCode::kUnavailable,
               "attempts exhausted; last error: " + last.message());
}

VerificationFrontEnd::TenantMetrics& VerificationFrontEnd::EnsureTenantMetrics(
    uint32_t tenant) {
  auto it = tenant_metrics_.find(tenant);
  if (it != tenant_metrics_.end()) {
    return it->second;
  }
  const MetricLabels labels = {{"tenant", std::to_string(tenant)}};
  TenantMetrics tm;
  tm.admitted = metrics_.AddCounter("tyche_fleet_tenant_admitted_total",
                                    "Requests admitted per tenant.", labels);
  tm.quota_exceeded = metrics_.AddCounter(
      "tyche_fleet_tenant_quota_exceeded_total",
      "Requests rejected with kQuotaExceeded per tenant.", labels);
  metrics_.AddCallback("tyche_fleet_tenant_tokens",
                       "Remaining quota tokens per tenant.", /*counter=*/false,
                       labels, [this, tenant] {
                         return static_cast<uint64_t>(
                             quotas_.tokens(tenant, now()));
                       });
  return tenant_metrics_.emplace(tenant, tm).first->second;
}

Result<VerificationFrontEnd::AdmissionOutcome> VerificationFrontEnd::Submit(
    const VerifyRequest& request) {
  if (request.service >= fleet_->num_services()) {
    return Error(ErrorCode::kNotFound, "no such service");
  }
  // Quota is charged at admission, before any other consideration: a
  // tenant's spend is its request RATE, whether answers come from cache or
  // wire. kQuotaExceeded is a per-tenant verdict — the shared queue may be
  // empty; retrying sooner will not help, waiting for refill will.
  if (quotas_.enabled()) {
    TenantMetrics& tm = EnsureTenantMetrics(request.tenant);
    if (!quotas_.TryAcquire(request.tenant, now())) {
      tm.quota_exceeded->Add();
      ++quota_rejected_total_;
      return Error(ErrorCode::kQuotaExceeded, "tenant quota exhausted");
    }
    tm.admitted->Add();
  }
  const bool forced_overflow = FaultFires(faults::kFleetQueueOverflow);
  // Shedding prefers work that needs no wire: a cache-servable request is
  // answered inline even when the queue is full.
  if (auto verdict = TryCache(request)) {
    verifications_cache_->Add();
    AdmissionOutcome outcome;
    outcome.verdict = *verdict;
    return outcome;
  }
  if (forced_overflow || queue_.size() >= opts_.queue_capacity) {
    shed_->Add();
    return Error(ErrorCode::kOverloaded, "admission queue full");
  }
  queue_.push_back(request);
  AdmissionOutcome outcome;
  outcome.enqueued = true;
  return outcome;
}

std::vector<VerificationFrontEnd::QueuedResult> VerificationFrontEnd::DrainQueue() {
  std::vector<QueuedResult> results;
  while (!queue_.empty()) {
    if (opts_.max_batch <= 1) {
      const VerifyRequest request = queue_.front();
      queue_.pop_front();
      results.push_back(QueuedResult{request, Verify(request)});
      continue;
    }
    // Group the head run of same-node requests: quotes signed by ONE
    // monitor key, verifiable as one batch.
    const uint32_t head_node = fleet_->service(queue_.front().service).node;
    std::vector<VerifyRequest> group;
    while (!queue_.empty() && group.size() < opts_.max_batch &&
           fleet_->service(queue_.front().service).node == head_node) {
      group.push_back(queue_.front());
      queue_.pop_front();
    }
    DrainBatch(head_node, group, &results);
  }
  return results;
}

void VerificationFrontEnd::DrainBatch(uint32_t node_id,
                                      const std::vector<VerifyRequest>& group,
                                      std::vector<QueuedResult>* results) {
  // Cache first, exactly like Verify() would.
  std::vector<VerifyRequest> live;
  for (const VerifyRequest& request : group) {
    if (auto verdict = TryCache(request)) {
      verifications_cache_->Add();
      results->push_back(QueuedResult{request, *verdict});
    } else {
      live.push_back(request);
    }
  }
  if (live.empty()) {
    return;
  }
  // The batched fast path is an accelerator, not a policy change: any
  // obstacle — breaker refusal, tier-1 failure, missing or refused
  // response, a quote the batch verification rejects — drops THAT request
  // back to the full Verify() composition (retries, backoff, failover), so
  // verdicts and typed errors are the same as the serial path's.
  const auto fall_back_all = [&] {
    for (const VerifyRequest& request : live) {
      results->push_back(QueuedResult{request, Verify(request)});
    }
  };
  if (live.size() == 1) {
    fall_back_all();
    return;
  }
  MonitorNode* node = fleet_->node(node_id);
  CircuitBreaker& breaker = breakers_[node_id];
  if (!breaker.Admit(now())) {
    fall_back_all();
    return;
  }
  const uint64_t overall_deadline = now() + opts_.default_deadline_ns;
  const auto monitor_key = EnsureMonitorVerified(node, overall_deadline);
  if (!monitor_key.ok()) {
    if (CountsAsNodeFailure(monitor_key.status().code())) {
      breaker.RecordFailure(now());
      MaybeDeclareDown(node_id);
    }
    fall_back_all();
    return;
  }
  // One wire round for the whole group: all attests go out back to back and
  // share one poll loop.
  std::vector<uint64_t> rids(live.size(), 0);
  std::vector<ServiceRecord> routes;
  routes.reserve(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    const ServiceRecord route = fleet_->service(live[i].service);
    routes.push_back(route);
    rids[i] = SendRequest(node, FleetRequestKind::kAttest, route.domain,
                          live[i].nonce);
  }
  std::vector<std::optional<FleetResponse>> responses(live.size());
  size_t pending = live.size();
  const uint64_t attempt_deadline =
      std::min(now() + opts_.attempt_timeout_ns, overall_deadline);
  while (pending > 0 && now() < attempt_deadline) {
    fleet_->clock().Advance(opts_.poll_step_ns);
    PumpAndDrain();
    for (size_t i = 0; i < live.size(); ++i) {
      if (responses[i].has_value()) {
        continue;
      }
      if (auto response = TakeResponse(rids[i])) {
        responses[i] = std::move(*response);
        --pending;
      }
    }
  }
  // Forgery attempt inside the batch: replace the first usable report's
  // signature response scalar with a near-miss. The defense under test is
  // that the batch verification's fallback attributes the forgery to THIS
  // quote — it is rejected (and retried clean) while the rest of the batch
  // is still served.
  if (FaultFires(faults::kFleetBatchForge)) {
    for (auto& response : responses) {
      if (!response.has_value() || response->code != ErrorCode::kOk) {
        continue;
      }
      auto report = DeserializeAttestation(response->payload);
      if (!report.ok()) {
        continue;
      }
      report->signature.s ^= 1;  // structurally sound, cryptographically not
      response->payload = SerializeAttestation(*report);
      break;
    }
  }
  // Assemble the batch from responses that LOOK like reports; everything
  // else (timeout, typed refusal) falls back per request.
  std::vector<BatchReportInput> inputs;
  std::vector<size_t> input_owner;  // batch slot -> live index
  bool node_failure = false;
  for (size_t i = 0; i < live.size(); ++i) {
    if (!responses[i].has_value()) {
      node_failure = true;  // silence within the window: availability-shaped
      continue;
    }
    if (responses[i]->code != ErrorCode::kOk) {
      node_failure = node_failure || CountsAsNodeFailure(responses[i]->code);
      continue;
    }
    inputs.push_back(BatchReportInput{responses[i]->payload, live[i].nonce,
                                      &routes[i].measurement});
    input_owner.push_back(i);
  }
  std::vector<bool> served(live.size(), false);
  if (!inputs.empty()) {
    batch_verifies_->Add();
    batch_quotes_->Add(inputs.size());
    const std::vector<BatchReportOutcome> outcomes =
        VerifySerializedReportBatch(inputs, *monitor_key);
    bool any_rejected = false;
    for (size_t b = 0; b < outcomes.size(); ++b) {
      const size_t i = input_owner[b];
      if (!outcomes[b].status.ok()) {
        any_rejected = true;
        if (outcomes[b].status.code() == ErrorCode::kSignatureInvalid) {
          batch_forged_->Add();
        }
        node_failure = node_failure || CountsAsNodeFailure(outcomes[b].status.code());
        continue;
      }
      VerifyVerdict verdict;
      verdict.measurement = outcomes[b].report->measurement;
      verdict.node = node_id;
      verdict.epoch = node->epoch();
      verdict.attempts = 1;
      cache_.Insert({node->pcr_prefix(), node_id, node->epoch(), live[i].service},
                    {verdict.measurement, now()});
      MaybeEstablishSession(verdict);
      verifications_ok_->Add();
      results->push_back(QueuedResult{live[i], verdict});
      served[i] = true;
    }
    if (any_rejected) {
      batch_fallback_->Add();
    }
  }
  if (node_failure) {
    breaker.RecordFailure(now());
    MaybeDeclareDown(node_id);
  } else {
    breaker.RecordSuccess(now());
  }
  for (size_t i = 0; i < live.size(); ++i) {
    if (!served[i]) {
      results->push_back(QueuedResult{live[i], Verify(live[i])});
    }
  }
}

}  // namespace tyche
