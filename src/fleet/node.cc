// Copyright 2026 The Tyche Reproduction Authors.

#include "src/fleet/node.h"

#include <algorithm>
#include <utility>

#include "src/crypto/encode.h"
#include "src/monitor/attestation.h"
#include "src/monitor/recovery.h"
#include "src/support/align.h"
#include "src/support/fault_hook.h"
#include "src/support/journal.h"
#include "src/support/snapshot.h"
#include "src/tyche/loader.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint32_t kRequestMagic = 0xF1E37001;
constexpr uint32_t kResponseMagic = 0xF1E37002;
// Spacing between service windows: fleet-wide unique bases so any domain
// can migrate to any replica without a range collision.
constexpr uint64_t kWindowStride = 2 * kMiB;

}  // namespace

namespace {

// Frame sizes: magic, request id and kind, then the fixed request fields or
// the response's code and length-prefixed payload.
constexpr size_t kRequestFrameSize = 4 + 8 + 1 + 4 + 8 + 8 + 32;
constexpr size_t kResponseHeaderSize = 4 + 8 + 1 + 4;
// The longest session MAC input: the ack's 19-byte label, four fields and
// the measurement.
constexpr size_t kSessionMacMax = 19 + 4 * 8 + 32;

Digest SessionMac(const HmacSha256Key& key, std::string_view label,
                  std::span<const uint64_t> fields, const Digest* trailer) {
  uint8_t message[kSessionMacMax];
  uint8_t* at = std::copy(label.begin(), label.end(), message);
  for (const uint64_t field : fields) {
    at = Put(at, field);
  }
  if (trailer != nullptr) {
    at = PutDigest(at, *trailer);
  }
  return key.Mac(std::span<const uint8_t>(message, at));
}

}  // namespace

Digest FleetSessionToken(const HmacSha256Key& key, uint32_t node, uint64_t epoch) {
  const uint64_t fields[] = {node, epoch};
  return SessionMac(key, "tyche-resume-v1", fields, nullptr);
}

Digest FleetSessionAck(const HmacSha256Key& key, uint32_t node, uint64_t epoch,
                       uint32_t domain, uint64_t nonce, const Digest& measurement) {
  const uint64_t fields[] = {node, epoch, domain, nonce};
  return SessionMac(key, "tyche-resume-ack-v1", fields, &measurement);
}

Digest FleetSessionToken(const Digest& secret, uint32_t node, uint64_t epoch) {
  return FleetSessionToken(HmacSha256Key(secret.bytes), node, epoch);
}

Digest FleetSessionAck(const Digest& secret, uint32_t node, uint64_t epoch,
                       uint32_t domain, uint64_t nonce, const Digest& measurement) {
  return FleetSessionAck(HmacSha256Key(secret.bytes), node, epoch, domain, nonce,
                         measurement);
}

std::vector<uint8_t> EncodeFleetRequest(const FleetRequest& request) {
  std::vector<uint8_t> frame(kRequestFrameSize);
  uint8_t* at = Put(Put(frame.data(), kRequestMagic), request.request_id);
  at = Put(Put(at, static_cast<uint8_t>(request.kind)), request.domain);
  at = Put(Put(at, request.nonce), request.client_pub);
  PutDigest(at, request.token);
  return frame;
}

bool DecodeFleetRequest(std::span<const uint8_t> bytes, FleetRequest* out) {
  SectionReader reader(bytes);
  uint32_t magic = 0;
  uint8_t kind = 0;
  if (!reader.Read(&magic) || magic != kRequestMagic ||
      !reader.Read(&out->request_id) || !reader.Read(&kind) ||
      !reader.Read(&out->domain) || !reader.Read(&out->nonce) ||
      !reader.Read(&out->client_pub) || !reader.ReadDigest(&out->token) ||
      reader.remaining() != 0 ||
      kind > static_cast<uint8_t>(FleetRequestKind::kResume)) {
    return false;
  }
  out->kind = static_cast<FleetRequestKind>(kind);
  return true;
}

std::vector<uint8_t> EncodeFleetResponse(const FleetResponse& response) {
  std::vector<uint8_t> frame(kResponseHeaderSize + response.payload.size());
  uint8_t* at = Put(Put(frame.data(), kResponseMagic), response.request_id);
  at = Put(Put(at, static_cast<uint8_t>(response.code)),
           static_cast<uint32_t>(response.payload.size()));
  std::copy(response.payload.begin(), response.payload.end(), at);
  return frame;
}

bool DecodeFleetResponse(std::span<const uint8_t> bytes, FleetResponse* out) {
  SectionReader reader(bytes);
  uint32_t magic = 0;
  uint8_t code = 0;
  uint32_t length = 0;
  // The payload is the rest of the frame, exactly `length` bytes of it.
  if (!reader.Read(&magic) || magic != kResponseMagic ||
      !reader.Read(&out->request_id) || !reader.Read(&code) || !reader.Read(&length) ||
      reader.remaining() != length) {
    return false;
  }
  out->code = static_cast<ErrorCode>(code);
  out->payload.assign(bytes.end() - length, bytes.end());
  return true;
}

std::unique_ptr<MonitorNode> MonitorNode::Boot(uint32_t id, IsaArch arch,
                                               uint32_t expected_services) {
  auto node = std::unique_ptr<MonitorNode>(new MonitorNode());
  node->id_ = id;
  MachineConfig config;
  config.arch = arch;
  config.memory_bytes = 64ull << 20;
  config.num_cores = 4;
  node->machine_ = std::make_unique<Machine>(config);
  node->firmware_image_ = DemoFirmwareImage();
  node->monitor_image_ = DemoMonitorImage();
  BootParams params;
  params.firmware_image = node->firmware_image_;
  params.monitor_image = node->monitor_image_;
  // Domain metadata (page tables, capability records) draws from the
  // monitor's reservation at roughly five frames per domain; grow it for
  // dense nodes but never past half the machine, leaving the rest for
  // service windows.
  const uint64_t metadata_need =
      (static_cast<uint64_t>(expected_services) + 64) * 6 * kPageSize;
  if (metadata_need > params.monitor_memory_bytes) {
    params.monitor_memory_bytes =
        std::min(AlignUp(metadata_need, 1ull << 20), config.memory_bytes / 2);
  }
  auto boot = MeasuredBoot(node->machine_.get(), params);
  if (!boot.ok()) {
    return nullptr;
  }
  node->monitor_ = std::move(boot->monitor);
  node->os_domain_ = boot->initial_domain;
  node->golden_firmware_ = boot->firmware_measurement;
  node->golden_monitor_ = boot->monitor_measurement;
  return node;
}

Result<MonitorNode::ServicePlacement> MonitorNode::InstallService(
    const std::string& name, uint64_t window_base, uint32_t pages) {
  TYCHE_ASSIGN_OR_RETURN(const CreateDomainResult created,
                         monitor_->CreateDomain(0, name));
  const AddrRange window{window_base, pages * kPageSize};
  std::vector<uint8_t> content(window.size);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(0x5A ^ (i * 29) ^ (id_ * 7) ^ name.size());
  }
  TYCHE_RETURN_IF_ERROR(machine_->memory().Write(window.base, content));
  TYCHE_ASSIGN_OR_RETURN(const CapId mem_cap,
                         FindMemoryCap(*monitor_, os_domain_, window));
  const auto granted = monitor_->GrantMemory(
      0, mem_cap, created.handle, window, Perms(Perms::kRWX),
      CapRights(CapRights::kAll), RevocationPolicy(RevocationPolicy::kZeroMemory));
  if (!granted.ok()) {
    return granted.status();
  }
  TYCHE_RETURN_IF_ERROR(monitor_->SetEntryPoint(0, created.handle, window.base));
  TYCHE_RETURN_IF_ERROR(monitor_->ExtendMeasurement(0, created.handle, window));
  TYCHE_RETURN_IF_ERROR(monitor_->Seal(0, created.handle));
  TYCHE_ASSIGN_OR_RETURN(const DomainAttestation report,
                         monitor_->AttestDomain(0, created.handle, 0x601D));
  return ServicePlacement{created.domain, report.measurement, window};
}

void MonitorNode::Pump() {
  if (crashed_) {
    return;  // silence: requests rot in the queue until failover
  }
  if (FaultFires(faults::kFleetNodeCrash)) {
    Crash();  // CONSUMED: the node dies mid-pump, clients see timeouts
    return;
  }
  while (true) {
    auto frame = requests_.Recv();
    if (!frame.ok()) {
      break;
    }
    HandleRequest(*frame);
  }
}

void MonitorNode::HandleRequest(std::span<const uint8_t> frame) {
  FleetRequest request;
  if (!DecodeFleetRequest(frame, &request)) {
    return;  // corrupt frame: indistinguishable from a drop, client retries
  }
  ++served_;
  if (recovering_) {
    // Mid-recovery: typed and retryable, never a stale answer.
    Respond(request.request_id, ErrorCode::kUnavailable, {});
    return;
  }
  std::vector<uint8_t> payload;
  if (request.kind == FleetRequestKind::kIdentity) {
    const auto identity = monitor_->Identity(request.nonce);
    if (!identity.ok()) {
      Respond(request.request_id, identity.status().code(), {});
      return;
    }
    payload = SerializeMonitorIdentity(*identity);
  } else if (request.kind == FleetRequestKind::kResume) {
    // Stateless token validation: derive the shared secret from the
    // client's public key and recompute the epoch-bound token. A stale
    // token (pre-failover epoch) is a typed precondition failure — the
    // client must fall back to the full chain walk, and the response says
    // nothing about this node's health.
    // Direct-mapped memo of the per-client key exchange: SessionSecret is a
    // modular exponentiation and the token HMAC is epoch-constant, so a warm
    // client costs a lookup instead of re-deriving both per request.
    ResumeSecret& slot =
        resume_secrets_[request.client_pub % kResumeSecretSlots];
    if (!slot.valid || slot.client_pub != request.client_pub ||
        slot.epoch != epoch_) {
      slot.valid = true;
      slot.client_pub = request.client_pub;
      slot.epoch = epoch_;
      slot.key = HmacSha256Key(
          monitor_->SessionSecret(SchnorrPublicKey{request.client_pub}).bytes);
      slot.expected_token = FleetSessionToken(slot.key, id_, epoch_);
    }
    if (request.token != slot.expected_token) {
      Respond(request.request_id, ErrorCode::kFailedPrecondition, {});
      return;
    }
    const auto domain = monitor_->GetDomain(request.domain);
    if (!domain.ok()) {
      Respond(request.request_id, ErrorCode::kNotFound, {});
      return;
    }
    if (!(*domain)->sealed()) {
      Respond(request.request_id, ErrorCode::kFailedPrecondition, {});
      return;
    }
    // Fast path: the sealed measurement plus a MAC binding it to (node,
    // epoch, domain, nonce) — no report serialization, no signature.
    const Digest& measurement = (*domain)->measurement;
    const Digest ack = FleetSessionAck(slot.key, id_, epoch_, request.domain,
                                       request.nonce, measurement);
    payload.resize(kResumePayloadSize);
    PutDigest(PutDigest(payload.data(), measurement), ack);
  } else {
    const auto handle =
        FindUnitCap(*monitor_, os_domain_, ResourceKind::kDomain, request.domain);
    if (!handle.ok()) {
      Respond(request.request_id, ErrorCode::kNotFound, {});
      return;
    }
    const auto report = monitor_->AttestDomain(0, *handle, request.nonce);
    if (!report.ok()) {
      // e.g. kMigrating while the domain drains to a replica: typed,
      // retryable, and the retry re-routes to the new home.
      Respond(request.request_id, report.status().code(), {});
      return;
    }
    payload = SerializeAttestation(*report);
  }
  // Poisoning attempt: flip one byte of the outbound report. The defense
  // under test is downstream — the tampered bytes must fail verification at
  // the front end and never enter the measurement cache.
  if (!payload.empty() && FaultFires(faults::kFleetCachePoison)) {
    payload[payload.size() / 2] ^= 0x01;
  }
  Respond(request.request_id, ErrorCode::kOk, std::move(payload));
}

void MonitorNode::Respond(uint64_t request_id, ErrorCode code,
                          std::vector<uint8_t> payload) {
  FleetResponse response;
  response.request_id = request_id;
  response.code = code;
  response.payload = std::move(payload);
  const Status sent = responses_.Send(EncodeFleetResponse(response));
  (void)sent;  // a lossy wire may eat the response; the client's retry owns it
}

Status MonitorNode::Recover() {
  // The journal is the durable medium: re-parse it raw (a crash left no
  // final checkpoint — Recover()'s relaxed tail rule handles that) and
  // rebuild via PR 4 measured recovery, genesis replay, no snapshot.
  const std::vector<uint8_t> wire = monitor_->audit().journal().Serialize();
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal parsed, Journal::Deserialize(wire));
  BootParams params;
  params.firmware_image = firmware_image_;
  params.monitor_image = monitor_image_;
  TYCHE_ASSIGN_OR_RETURN(BootOutcome outcome,
                         MeasuredRecovery(machine_.get(), params, {}, parsed));
  monitor_ = std::move(outcome.monitor);
  crashed_ = false;
  recovering_ = false;
  // Epoch bump: every measurement cached against the pre-crash instance is
  // now unreachable (epoch is part of the cache key) and gets purged.
  ++epoch_;
  return OkStatus();
}

std::unique_ptr<Fleet> Fleet::Create(const FleetOptions& options) {
  if (options.num_nodes == 0) {
    return nullptr;
  }
  auto fleet = std::unique_ptr<Fleet>(new Fleet());
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    auto node = MonitorNode::Boot(i, options.arch, options.services_per_node);
    if (node == nullptr) {
      return nullptr;
    }
    fleet->nodes_.push_back(std::move(node));
  }
  const uint64_t window_top = fleet->nodes_[0]->monitor()->monitor_range().end();
  uint64_t stride = options.window_stride;
  if (stride == 0) {
    // Auto: the roomy legacy stride when the whole fleet's windows fit in a
    // node's 64 MiB memory; otherwise pack windows back to back so
    // thousands of services per node still get fleet-wide unique bases.
    const uint64_t total_services =
        static_cast<uint64_t>(options.num_nodes) * options.services_per_node;
    const uint64_t memory_bytes = 64ull << 20;
    stride = kWindowStride;
    if (window_top + (total_services + 1) * stride > memory_bytes) {
      stride = static_cast<uint64_t>(options.pages_per_service) * kPageSize;
    }
  }
  uint64_t window_cursor = window_top + stride;
  uint32_t service_id = 0;
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    for (uint32_t s = 0; s < options.services_per_node; ++s) {
      const std::string name = "svc-" + std::to_string(service_id);
      const auto placed = fleet->nodes_[i]->InstallService(
          name, window_cursor, options.pages_per_service);
      if (!placed.ok()) {
        return nullptr;
      }
      ServiceRecord record;
      record.service = service_id;
      record.node = i;
      record.domain = placed->domain;
      record.measurement = placed->measurement;
      record.name = name;
      fleet->services_.push_back(std::move(record));
      window_cursor += stride;
      ++service_id;
    }
  }
  return fleet;
}

void Fleet::PumpAll() {
  for (auto& node : nodes_) {
    node->Pump();
  }
}

Status Fleet::FailoverNode(uint32_t node_id) {
  if (node_id >= nodes_.size()) {
    return Error(ErrorCode::kInvalidArgument, "no such node");
  }
  MonitorNode* down = nodes_[node_id].get();
  MonitorNode* replica = nodes_[replica_of(node_id)].get();
  if (nodes_.size() < 2 || replica->crashed()) {
    return Error(ErrorCode::kUnavailable, "no live replica to fail over to");
  }
  // Ladder step 1 (PR 4): measured recovery from the surviving journal.
  // While it runs the node answers kUnavailable, not stale state.
  down->BeginRecovery();
  TYCHE_RETURN_IF_ERROR(down->Recover());
  // Ladder step 2 (PR 8): drain every service homed here to the replica.
  // The recovered monitor signs the handoff; the journals must splice.
  for (ServiceRecord& svc : services_) {
    if (svc.node != node_id) {
      continue;
    }
    LossyChannel wire;
    const auto report = MigrateOver(down->monitor(), replica->monitor(), svc.domain, &wire,
                                    down->monitor()->public_key());
    if (!report.ok()) {
      return report.status();
    }
    svc.node = replica->id();
    svc.domain = report->migration.dest_domain;
    ++svc.failovers;
    ++migrations_;
  }
  ++failovers_;
  return OkStatus();
}

}  // namespace tyche
