// Session benchmark for the EnGarde provisioning front end.
//
// Every session runs through the public API a provider and its clients use:
// client::Client talks to a core::ProvisioningFrontend over an in-memory
// net::PipeTransport, from connect to a readable verdict. The main thread
// does the clients' work and turns the reactor; the only other threads are
// the inspection pool of workloads that ask for one.
//
// A run repeats rounds for --seconds of wall time. A round sets the
// deployment up anew (quoting enclave, device, front ends, library hash
// database, warm pool, verdict cache), drives a fixed closed loop of
// sessions, tears everything down and checks that nothing leaked. The first
// round is a warm-up and is not measured. Repeating the set-up is what gives
// setup_s a median; the session figures come from the fastest third of the
// measured rounds (see Summarize).
//
// Correctness gates, any of which fails the run (non-zero exit):
//  * every session's verdict and per-phase SGX-instruction counts equal a
//    serial ProvisioningServer::Drive of the same input, computed once per
//    distinct input before the first round;
//  * after each round: no live connection, no committed budget page, no
//    budget underflow, no enclave left on the device;
//  * each workload exercises the layer it was chosen for (no warm handout on
//    cold-epc; all-warm handouts and the fixed hit / partial-hit mix on
//    reupload-large).
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds: the traced ones record spans around every call the
// benchmark makes into a layer and give the per-layer metrics; comparing the
// two kinds of round gives the tracing overhead. The spans are written as
// Chrome trace-event JSON to --out-dir at exit.
//
// Usage: engarde_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                          [--out-dir DIR] [--commit ID] [--source-digest HEX]
#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/client.h"
#include "core/frontend.h"
#include "core/policy_ifcc.h"
#include "core/policy_liblink.h"
#include "core/policy_stackprot.h"
#include "core/server.h"
#include "core/verdict_cache.h"
#include "layers.h"
#include "net/transport.h"
#include "trace.h"
#include "workload/catalog.h"
#include "workload/mutate.h"
#include "workload/program_builder.h"

using namespace engarde;
using perfbench::NowNs;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

// The engarde-serve default key size.
constexpr size_t kRsaBits = 768;
// The device's attestation key is the provider's, not an input: it does not
// depend on the workload seed, so neither does its keygen time in set-up.
constexpr const char* kQuotingSeed = "perfbench-quoting-enclave";
constexpr size_t kPhases = static_cast<size_t>(sgx::Phase::kCount);
constexpr size_t kStages = static_cast<size_t>(core::StageId::kCount);
// A session that makes no progress for this long fails the run.
constexpr uint64_t kStallNs = 60'000'000'000ull;

using workload::BuildFlavor;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Seeded Fisher-Yates permutation of [0, n).
std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  uint64_t state = seed;
  for (size_t i = n; i > 1; --i) {
    state = SplitMix(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

// ---- Workloads --------------------------------------------------------------

struct WorkloadConfig {
  const char* name;
  size_t clients = 1;
  size_t inspection_threads = 1;  // 0 = nproc
  bool warm_pool = false;
  bool verdict_cache = false;
  // Enclave heap and load regions, in pages. cold-epc uses engarde-serve's
  // layout; reupload-large's is sized for the largest catalog program
  // (Nginx, a 1.2 MB image) with room to spare.
  uint64_t heap_pages = 768;
  uint64_t load_pages = 384;
  // Physical EPC, in enclaves; 0 = room for every enclave a round holds.
  size_t physical_enclaves = 0;
  double epc_oversub = 1.0;
};

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> kWorkloads = {
      {.name = "cold-epc", .clients = 4, .heap_pages = 128, .load_pages = 32,
       .physical_enclaves = 2, .epc_oversub = 2.0},
      {.name = "reupload-large", .clients = 1, .inspection_threads = 0,
       .warm_pool = true, .verdict_cache = true},
  };
  return kWorkloads;
}

// Everything the correctness gate compares per session.
struct Fingerprint {
  bool compliant = false;
  std::string reason;
  std::array<uint64_t, kPhases> sgx{};
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint MakeFingerprint(const core::Verdict& verdict,
                            const sgx::CycleAccountant& accountant) {
  Fingerprint fp;
  fp.compliant = verdict.compliant;
  fp.reason = verdict.reason;
  for (size_t p = 0; p < kPhases; ++p) {
    fp.sgx[p] =
        accountant.phase_cost(static_cast<sgx::Phase>(p)).sgx_instructions;
  }
  return fp;
}

struct Input {
  std::string label;
  size_t slot = 0;  // index into Inputs::slots
  Bytes image;
  size_t instructions = 0;
  Fingerprint expected;
};

// A policy set the provider deploys, with its own front end. The library
// linking policy is bound to the library build its hash database came from,
// so every libc build gets its own deployment.
struct Deployment {
  BuildFlavor flavor;
  workload::SynthLibcOptions libc;
};

// The generated inputs of one run. `order` is the session sequence of every
// round; `cache_seed` holds the images a round's verdict cache is seeded with.
struct Inputs {
  std::vector<Input> inputs;
  std::vector<Deployment> slots;
  std::vector<size_t> order;
  std::vector<size_t> cache_seed;  // indices into `inputs`
};

Result<workload::BuiltProgram> BuildCatalogProgram(
    const workload::CatalogEntry& entry, BuildFlavor flavor, uint64_t seed) {
  // Same shape as workload::BuildBenchmark (the paper's instruction counts
  // and instrumentation), with the base program drawn from the run's seed.
  workload::ProgramSpec spec;
  spec.name = entry.name;
  spec.seed = SplitMix(seed);
  for (const char* c = entry.name; *c != '\0'; ++c) {
    spec.seed = spec.seed * 131 + static_cast<uint64_t>(*c);
  }
  spec.target_instructions = entry.InstructionsFor(flavor);
  spec.stack_protection = flavor == BuildFlavor::kStackProtector;
  spec.ifcc = flavor == BuildFlavor::kIfcc;
  spec.indirect_call_sites = flavor == BuildFlavor::kIfcc ? 8 : 0;
  spec.data_bytes = 256 + spec.target_instructions / 64;
  spec.bss_bytes = 4096;
  return workload::BuildProgram(spec);
}

void AddInput(Inputs& out, std::string label, BuildFlavor flavor,
              const workload::BuiltProgram& program) {
  size_t slot = 0;
  while (slot < out.slots.size() &&
         !(out.slots[slot].flavor == flavor &&
           (flavor != BuildFlavor::kPlain ||
            out.slots[slot].libc == program.libc_options))) {
    ++slot;
  }
  if (slot == out.slots.size()) {
    out.slots.push_back(Deployment{flavor, program.libc_options});
  }
  out.inputs.push_back(Input{std::move(label), slot, program.image,
                             program.emitted_insn_count, {}});
}

Result<Inputs> GenerateInputs(const WorkloadConfig& config, uint64_t seed) {
  Inputs out;
  const std::string name = config.name;
  if (name == "cold-epc") {
    // 64 distinct ~2.5K-instruction programs; even ones carry stack
    // protectors (compliant), odd ones do not (rejected at PolicyCheck).
    constexpr size_t kPrograms = 64;
    for (size_t i = 0; i < kPrograms; ++i) {
      workload::ProgramSpec spec;
      spec.name = "small-" + std::to_string(i);
      spec.seed = SplitMix(seed * 1000 + i);
      spec.target_instructions = 2500;
      spec.stack_protection = i % 2 == 0;
      ASSIGN_OR_RETURN(const workload::BuiltProgram program,
                       workload::BuildProgram(spec));
      AddInput(out, spec.name, BuildFlavor::kStackProtector, program);
    }
  } else if (name == "reupload-large") {
    // Per catalog program: an exact copy of the original (full hit), 10% of
    // its application functions changed (partial hit, compliant), and one
    // library function changed (partial hit, rejected).
    for (const workload::CatalogEntry& entry : workload::PaperBenchmarks()) {
      ASSIGN_OR_RETURN(const workload::BuiltProgram program,
                       BuildCatalogProgram(entry, BuildFlavor::kPlain, seed));
      out.cache_seed.push_back(out.inputs.size());
      AddInput(out, std::string(entry.name) + "/exact", BuildFlavor::kPlain,
               program);

      workload::BuiltProgram app = program;
      ASSIGN_OR_RETURN(const size_t eligible,
                       workload::CountMutableFunctions(app.image, false));
      workload::MutationOptions app_mutation;
      app_mutation.count = std::max<size_t>(1, eligible / 10);
      RETURN_IF_ERROR(
          workload::MutateFunctions(app.image, app_mutation).status());
      AddInput(out, std::string(entry.name) + "/app10", BuildFlavor::kPlain,
               app);

      workload::BuiltProgram lib = program;
      workload::MutationOptions lib_mutation;
      lib_mutation.library_functions = true;
      RETURN_IF_ERROR(
          workload::MutateFunctions(lib.image, lib_mutation).status());
      AddInput(out, std::string(entry.name) + "/lib1", BuildFlavor::kPlain, lib);
    }
  } else {
    return InvalidArgumentError("unknown workload " + name);
  }
  out.order = Permutation(out.inputs.size(), SplitMix(seed ^ 0x5e55));
  return out;
}

core::PolicySet PoliciesFor(BuildFlavor flavor, const core::LibraryHashDb& db,
                            const std::string& library_name) {
  core::PolicySet policies;
  switch (flavor) {
    case BuildFlavor::kPlain:
      policies.push_back(
          std::make_unique<core::LibraryLinkingPolicy>(library_name, db));
      break;
    case BuildFlavor::kStackProtector:
      policies.push_back(std::make_unique<core::StackProtectionPolicy>());
      break;
    case BuildFlavor::kIfcc:
      policies.push_back(std::make_unique<core::IndirectCallPolicy>());
      break;
  }
  return policies;
}

core::EngardeOptions EnclaveOptionsFor(const WorkloadConfig& config) {
  core::EngardeOptions options;
  options.rsa_bits = kRsaBits;
  options.layout.heap_pages = config.heap_pages;
  options.layout.load_pages = config.load_pages;
  return options;
}

size_t InspectionThreads(const WorkloadConfig& config) {
  if (config.inspection_threads != 0) return config.inspection_threads;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

client::ClientOptions ClientOptionsFor(const sgx::QuotingEnclave& qe,
                                       const crypto::Sha256Digest& measurement,
                                       uint64_t entropy) {
  client::ClientOptions options;
  options.attestation_key = qe.attestation_public_key();
  options.expected_measurement = measurement;
  options.entropy.resize(8);
  for (size_t i = 0; i < 8; ++i) {
    options.entropy[i] = static_cast<uint8_t>(entropy >> (8 * i));
  }
  return options;
}

// One policy factory per deployment. Building the library hash databases is
// part of set-up.
struct Policies {
  std::vector<std::function<core::PolicySet()>> factories;
};

Result<Policies> MakePolicies(const Inputs& inputs) {
  Policies out;
  for (const Deployment& slot : inputs.slots) {
    auto db = std::make_shared<core::LibraryHashDb>();
    if (slot.flavor == BuildFlavor::kPlain) {
      ASSIGN_OR_RETURN(*db, workload::BuildLibcHashDb(slot.libc));
    }
    const std::string library_name = "synth-musl v" + slot.libc.version;
    out.factories.push_back([flavor = slot.flavor, db, library_name] {
      return PoliciesFor(flavor, *db, library_name);
    });
  }
  return out;
}

// Serial reference: each distinct input driven alone through
// ProvisioningServer::Drive on a fresh device, with serial inspection and no
// cache or pool.
Status ComputeReferences(const WorkloadConfig& config, Inputs& inputs,
                         const sgx::QuotingEnclave& qe,
                         const Policies& policies) {
  const core::EngardeOptions enclave_options = EnclaveOptionsFor(config);
  for (Input& input : inputs.inputs) {
    sgx::SgxDevice device(sgx::SgxDevice::Options{
        .epc_pages = enclave_options.layout.TotalPages() + 1 + 64});
    sgx::HostOs host(&device);
    core::ProvisioningServer::Options options;
    options.enclave_options = enclave_options;
    core::ProvisioningServer server(&host, &qe, policies.factories[input.slot],
                                    options);
    crypto::DuplexPipe pipe;
    ASSIGN_OR_RETURN(const size_t index, server.Accept(pipe.EndA()));
    client::ClientOptions client_options = ClientOptionsFor(qe, {}, 0);
    client_options.skip_measurement_check = true;
    client::Client client(client_options, input.image);
    RETURN_IF_ERROR(client.SendProgram(pipe.EndB()));
    ASSIGN_OR_RETURN(const core::ProvisionOutcome outcome, server.Drive(index));
    input.expected =
        MakeFingerprint(outcome.verdict, server.session_accountant(index));
  }
  return Status::Ok();
}

// ---- Measurements -----------------------------------------------------------

struct SessionRecord {
  uint64_t latency_ns = 0;
  size_t instructions = 0;
};

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double percent) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(percent / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

// Failure accounting over attempted sessions. A correct non-compliant
// verdict is a success.
struct Accounting {
  uint64_t attempted = 0;
  uint64_t compliant = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t timed_out = 0;
  uint64_t hard_failed = 0;
  uint64_t mismatched = 0;  // verdict or SGX counts differ from the reference

  uint64_t failed() const { return shed + timed_out + hard_failed + mismatched; }
};

// Per-layer sums over the traced rounds.
struct LayerSums {
  uint64_t sessions = 0;
  uint64_t send_program_ns = 0;
  uint64_t await_ns = 0;
  uint64_t accept_ns = 0;
  uint64_t accepts = 0;
  uint64_t poll_ns = 0;
  uint64_t polls = 0;
  uint64_t idle_polls = 0;
  uint64_t prefill_ns = 0;
  uint64_t prefilled = 0;
  std::array<uint64_t, kStages> stage_ns{};
  uint64_t rejected = 0;
  std::array<double, kPhases> modeled_cycles{};
  uint64_t fallback_sections = 0;
  // FrontendMetrics, summed (or maxed) over rounds and front ends.
  uint64_t accepted = 0, admitted = 0, admitted_warm = 0, queued = 0;
  uint64_t shed = 0, timed_out = 0;
  uint64_t admission_wait_count = 0, admission_wait_total_ns = 0;
  uint64_t admission_wait_max_ns = 0;
  uint64_t overlap_count = 0, overlap_sum_permille = 0;
  uint64_t epc_faults = 0, eldu_loads = 0, pages_reclaimed = 0;
  uint64_t pages_evicted_inline = 0, epc_resident_peak = 0;
  uint64_t max_committed_pages = 0, budget_underflows = 0;
  uint64_t cache_hits = 0, cache_partial = 0, cache_misses = 0;
  uint64_t cache_tamper = 0, cache_bytes_sealed = 0;
};

// One measured round.
struct RoundRecord {
  double setup_s = 0;
  uint64_t window_ns = 0;  // first connect to last verdict
  std::vector<SessionRecord> sessions;
};

struct Round {
  // Declaration order is teardown order in reverse: front ends go first,
  // then the client ends of finished sessions, which the front ends'
  // transports write into until the reaper retires them.
  std::vector<std::unique_ptr<crypto::DuplexPipe>> retired_pipes;
  std::unique_ptr<sgx::SgxDevice> device;
  std::unique_ptr<sgx::HostOs> host;
  std::optional<sgx::QuotingEnclave> qe;
  struct Frontend {
    std::unique_ptr<core::ProvisioningFrontend> frontend;
    crypto::Sha256Digest measurement{};
    std::shared_ptr<core::VerdictCache> cache;
    core::VerdictCacheStats seeded{};  // cache counters after seeding
  };
  std::vector<Frontend> frontends;
};

class Bench {
 public:
  Bench(const WorkloadConfig& config, Inputs inputs, uint64_t seed,
        std::string cache_dir)
      : config_(config),
        inputs_(std::move(inputs)),
        seed_(seed),
        cache_dir_(std::move(cache_dir)) {}

  Tracer& tracer() { return tracer_; }
  const Accounting& accounting() const { return accounting_; }
  const LayerSums& layers() const { return layers_; }
  // Set-up times of the measured rounds.
  std::vector<double> setup_s() const;
  // The measured rounds of one kind; the warm-up round is not among them.
  const std::vector<RoundRecord>& rounds(bool traced) const {
    return rounds_[traced ? 1 : 0];
  }
  const std::vector<std::string>& gate_failures() const { return gate_failures_; }
  const Policies& policies() const { return policies_; }
  const Inputs& inputs() const { return inputs_; }

  // One round: set-up, closed-loop sessions, teardown and leak gate. A
  // warm-up round is gated like any other but not measured.
  Status RunRound(size_t round_index, bool traced, bool warm_up);

 private:
  Status SetUp(Round& round, int64_t parent);
  Status SeedCache(Round::Frontend& fe, size_t slot,
                   const core::EngardeOptions& options,
                   const sgx::QuotingEnclave& qe);
  Status DriveSessions(Round& round, bool traced, int64_t parent,
                       RoundRecord& record);
  Status TearDown(Round& round, bool traced);
  void GateFailure(std::string what) { gate_failures_.push_back(std::move(what)); }

  const WorkloadConfig& config_;
  Inputs inputs_;
  uint64_t seed_;
  std::string cache_dir_;
  Policies policies_;
  Tracer tracer_;
  Accounting accounting_;
  LayerSums layers_;
  std::array<std::vector<RoundRecord>, 2> rounds_;  // untraced, traced
  std::vector<std::string> gate_failures_;
  size_t round_index_ = 0;
  uint64_t next_session_id_ = 1;
};

Status Bench::SetUp(Round& round, int64_t parent) {
  const core::EngardeOptions base = EnclaveOptionsFor(config_);
  const uint64_t per_enclave = base.layout.TotalPages() + 1;
  // Enclaves a round holds at once: the whole warm pool, or one per client.
  std::vector<size_t> per_slot(inputs_.slots.size(), 0);
  for (size_t index : inputs_.order) ++per_slot[inputs_.inputs[index].slot];
  size_t enclaves = config_.clients;
  if (config_.warm_pool) enclaves = std::max(enclaves, inputs_.order.size());
  if (config_.physical_enclaves != 0) enclaves = config_.physical_enclaves;

  {
    ScopedSpan span(tracer_, "setup.quoting_enclave", parent);
    ASSIGN_OR_RETURN(sgx::QuotingEnclave qe,
                     sgx::QuotingEnclave::Provision(ToBytes(kQuotingSeed),
                                                    kRsaBits));
    round.qe.emplace(std::move(qe));
  }
  round.device = std::make_unique<sgx::SgxDevice>(
      sgx::SgxDevice::Options{.epc_pages = enclaves * per_enclave + 64});
  round.host = std::make_unique<sgx::HostOs>(round.device.get());
  {
    ScopedSpan span(tracer_, "setup.library_db", parent);
    ASSIGN_OR_RETURN(policies_, MakePolicies(inputs_));
  }
  for (size_t slot = 0; slot < inputs_.slots.size(); ++slot) {
    Round::Frontend fe;
    core::EngardeOptions enclave_options = base;
    if (config_.verdict_cache) {
      ScopedSpan span(tracer_, "verdict_cache.seed", parent);
      RETURN_IF_ERROR(SeedCache(fe, slot, base, *round.qe));
      enclave_options.verdict_cache = fe.cache;
    }
    core::FrontendOptions options;
    options.enclave_options = enclave_options;
    options.inspection_threads = InspectionThreads(config_);
    options.epc_oversub = config_.epc_oversub;
    options.admission_queue_capacity = config_.clients;
    {
      ScopedSpan span(tracer_, "setup.frontend", parent);
      fe.frontend = std::make_unique<core::ProvisioningFrontend>(
          round.host.get(), &*round.qe, policies_.factories[slot], options);
      ASSIGN_OR_RETURN(fe.measurement,
                       core::EngardeEnclave::ExpectedMeasurement(
                           policies_.factories[slot](), enclave_options));
    }
    if (config_.warm_pool) {
      ScopedSpan span(tracer_, "enclave_pool.prefill", parent);
      const uint64_t start = NowNs();
      RETURN_IF_ERROR(fe.frontend->PrefillPool(per_slot[slot]));
      if (tracer_.enabled()) {
        layers_.prefill_ns += NowNs() - start;
        layers_.prefilled += per_slot[slot];
      }
    }
    round.frontends.push_back(std::move(fe));
  }
  return Status::Ok();
}

// Seeds a fresh sealed store with the original images, each inspected once
// through a serial server on a separate device that shares the cache object.
Status Bench::SeedCache(Round::Frontend& fe, size_t slot,
                        const core::EngardeOptions& options,
                        const sgx::QuotingEnclave& qe) {
  const std::string dir = cache_dir_ + "/round-" + std::to_string(round_index_) +
                          "-slot-" + std::to_string(slot);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  core::VerdictCacheOptions cache_options;
  cache_options.directory = dir;
  ASSIGN_OR_RETURN(fe.cache,
                   core::VerdictCache::Create(std::move(cache_options),
                                              policies_.factories[slot](),
                                              options.layout));
  core::ProvisioningServer::Options server_options;
  server_options.enclave_options = options;
  server_options.enclave_options.verdict_cache = fe.cache;
  server_options.inspection_threads = InspectionThreads(config_);
  for (size_t index : inputs_.cache_seed) {
    const Input& original = inputs_.inputs[index];
    if (original.slot != slot) continue;
    sgx::SgxDevice seed_device(sgx::SgxDevice::Options{
        .epc_pages = options.layout.TotalPages() + 1 + 64});
    sgx::HostOs seed_host(&seed_device);
    core::ProvisioningServer server(&seed_host, &qe, policies_.factories[slot],
                                    server_options);
    crypto::DuplexPipe pipe;
    ASSIGN_OR_RETURN(const size_t session, server.Accept(pipe.EndA()));
    client::ClientOptions client_options = ClientOptionsFor(qe, {}, 0);
    client_options.skip_measurement_check = true;
    client::Client client(client_options, original.image);
    RETURN_IF_ERROR(client.SendProgram(pipe.EndB()));
    RETURN_IF_ERROR(server.Drive(session).status());
  }
  fe.seeded = fe.cache->stats();
  return Status::Ok();
}

struct ClientSlot {
  enum class Phase : uint8_t { kIdle, kAwaitAdmission, kAwaitVerdict };
  Phase phase = Phase::kIdle;
  size_t input = 0;
  uint64_t session = 0;
  uint64_t conn = 0;
  uint64_t start_ns = 0;
  int64_t span = -1;
  std::unique_ptr<crypto::DuplexPipe> pipe;
  std::unique_ptr<client::Client> client;
};

Status Bench::DriveSessions(Round& round, bool traced, int64_t parent,
                            RoundRecord& record) {
  std::vector<ClientSlot> clients(config_.clients);
  size_t next = 0;
  size_t active = 0;
  uint64_t window_start = NowNs();
  uint64_t last_progress = window_start;
  int64_t idle_span = -1;  // coalesces back-to-back idle polls

  auto finish = [&](ClientSlot& c) {
    tracer_.End(c.span);
    c.phase = ClientSlot::Phase::kIdle;
    c.client.reset();
    round.retired_pipes.push_back(std::move(c.pipe));
    --active;
  };
  // Ends a session that the front end turned away or failed.
  auto fail = [&](ClientSlot& c, core::ConnectionState state) {
    if (state == core::ConnectionState::kShed) {
      ++accounting_.shed;
    } else if (state == core::ConnectionState::kTimedOut) {
      ++accounting_.timed_out;
    } else {
      ++accounting_.hard_failed;
    }
    finish(c);
  };

  while (next < inputs_.order.size() || active > 0) {
    bool acted = false;
    for (ClientSlot& c : clients) {
      if (c.phase == ClientSlot::Phase::kIdle) {
        if (next >= inputs_.order.size()) continue;
        c.input = inputs_.order[next++];
        const Input& input = inputs_.inputs[c.input];
        Round::Frontend& fe = round.frontends[input.slot];
        c.session = next_session_id_++;
        c.start_ns = NowNs();
        c.span = tracer_.Begin("session", parent, c.session);
        c.pipe = std::make_unique<crypto::DuplexPipe>();
        c.client = std::make_unique<client::Client>(
            ClientOptionsFor(*round.qe, fe.measurement,
                             SplitMix(seed_ ^ c.session)),
            input.image);
        ++accounting_.attempted;
        ++active;
        ScopedSpan span(tracer_, "frontend.accept", c.span, c.session);
        const uint64_t start = NowNs();
        auto conn = fe.frontend->Accept(
            std::make_unique<net::PipeTransport>(c.pipe->EndA()));
        if (traced) {
          layers_.accept_ns += NowNs() - start;
          ++layers_.accepts;
        }
        if (!conn.ok()) {
          fail(c, core::ConnectionState::kFailed);
          continue;
        }
        c.conn = *conn;
        c.phase = ClientSlot::Phase::kAwaitAdmission;
        acted = true;
      }
      const Input& input = inputs_.inputs[c.input];
      core::ProvisioningFrontend& frontend = *round.frontends[input.slot].frontend;
      const core::ConnectionState state = frontend.state(c.conn);
      if (state == core::ConnectionState::kFailed ||
          state == core::ConnectionState::kTimedOut ||
          state == core::ConnectionState::kReaped) {
        fail(c, state);
        acted = true;
        continue;
      }
      if (c.phase == ClientSlot::Phase::kAwaitAdmission) {
        if (!net::HasCompleteFrames(c.pipe->EndB(), 1)) continue;
        uint64_t start = NowNs();
        Result<std::optional<core::RetryAfter>> retry =
            [&]() -> Result<std::optional<core::RetryAfter>> {
          ScopedSpan span(tracer_, "client.await_admission", c.span, c.session);
          return c.client->AwaitAdmission(c.pipe->EndB());
        }();
        if (traced) layers_.await_ns += NowNs() - start;
        if (!retry.ok()) {
          fail(c, core::ConnectionState::kFailed);
          continue;
        }
        if (retry->has_value()) {
          fail(c, core::ConnectionState::kShed);
          continue;
        }
        start = NowNs();
        Status sent = [&] {
          ScopedSpan span(tracer_, "client.send_program", c.span, c.session);
          return c.client->SendProgram(c.pipe->EndB());
        }();
        if (traced) layers_.send_program_ns += NowNs() - start;
        if (!sent.ok()) {
          fail(c, core::ConnectionState::kFailed);
          continue;
        }
        c.phase = ClientSlot::Phase::kAwaitVerdict;
        acted = true;
        continue;
      }
      // kAwaitVerdict
      if (!net::HasCompleteSecureRecord(c.pipe->EndB())) continue;
      const uint64_t start = NowNs();
      Result<core::Verdict> verdict = [&] {
        ScopedSpan span(tracer_, "client.await_verdict", c.span, c.session);
        return c.client->AwaitVerdict();
      }();
      const uint64_t end = NowNs();
      if (traced) layers_.await_ns += end - start;
      if (!verdict.ok() || state != core::ConnectionState::kDone) {
        fail(c, core::ConnectionState::kFailed);
        continue;
      }
      ScopedSpan span(tracer_, "frontend.take_outcome", c.span, c.session);
      const Fingerprint fp =
          MakeFingerprint(*verdict, frontend.accountant(c.conn));
      auto outcome = frontend.TakeOutcome(c.conn);
      if (!outcome.ok()) {
        fail(c, core::ConnectionState::kFailed);
        continue;
      }
      if (!(fp == input.expected) ||
          outcome->verdict.compliant != verdict->compliant) {
        ++accounting_.mismatched;
        GateFailure("session " + input.label +
                    ": verdict or SGX counts differ from the serial reference");
      } else if (verdict->compliant) {
        ++accounting_.compliant;
      } else {
        ++accounting_.rejected;
      }
      record.sessions.push_back(SessionRecord{end - c.start_ns, input.instructions});
      if (traced) {
        ++layers_.sessions;
        for (const core::StageReport& report : outcome->stage_reports) {
          layers_.stage_ns[static_cast<size_t>(report.stage)] += report.wall_ns;
        }
        if (!verdict->compliant) ++layers_.rejected;
        for (size_t p = 0; p < kPhases; ++p) {
          layers_.modeled_cycles[p] += static_cast<double>(
              frontend.accountant(c.conn)
                  .phase_cost(static_cast<sgx::Phase>(p))
                  .Cycles());
        }
        layers_.fallback_sections += outcome->stats.streaming_fallback_sections;
      }
      finish(c);
      last_progress = end;
      acted = true;
    }

    if (acted) idle_span = -1;
    bool progressed = false;
    for (Round::Frontend& fe : round.frontends) {
      if (fe.frontend->connection_count() == 0) continue;
      const uint64_t start = NowNs();
      ASSIGN_OR_RETURN(const size_t progress, fe.frontend->PollOnce());
      const uint64_t end = NowNs();
      if (traced) {
        layers_.poll_ns += end - start;
        ++layers_.polls;
        if (progress == 0) ++layers_.idle_polls;
      }
      if (progress > 0) {
        progressed = true;
        idle_span = -1;
        tracer_.Record("frontend.poll", start, end, parent, 0);
      } else if (idle_span >= 0) {
        tracer_.Extend(idle_span, end);
      } else {
        idle_span = tracer_.Record("frontend.poll", start, end, parent, 0);
      }
    }
    if (!acted && !progressed) {
      if (NowNs() - last_progress > kStallNs) {
        return InternalError("no session progressed for 60 s");
      }
      std::this_thread::yield();
    }
  }
  record.window_ns = NowNs() - window_start;
  return Status::Ok();
}

std::vector<double> Bench::setup_s() const {
  std::vector<double> out;
  for (const auto& kind : rounds_) {
    for (const RoundRecord& r : kind) out.push_back(r.setup_s);
  }
  return out;
}

Status Bench::TearDown(Round& round, bool traced) {
  for (size_t i = 0; i < round.frontends.size(); ++i) {
    Round::Frontend& fe = round.frontends[i];
    // Every outcome was taken, so one more drain lets the reaper retire
    // every slot.
    RETURN_IF_ERROR(fe.frontend->DrainAll());
    const core::FrontendMetrics m = fe.frontend->metrics();
    if (m.live_connections != 0 || fe.frontend->connection_count() != 0) {
      GateFailure("leak: live connections after teardown");
    }
    if (m.committed_pages != 0) GateFailure("leak: committed budget pages");
    if (m.budget_underflows != 0) GateFailure("epc_budget underflow");
    if (config_.warm_pool && m.admitted_warm != m.admitted) {
      GateFailure("a session missed the warm pool");
    }
    if (!config_.warm_pool && m.admitted_warm != 0) {
      GateFailure("a cold workload was served from a pool");
    }
    uint64_t hits = 0, partial = 0, misses = 0;
    if (fe.cache != nullptr) {
      const core::VerdictCacheStats stats = fe.cache->stats();
      hits = stats.hits - fe.seeded.hits;
      partial = stats.partial_hits - fe.seeded.partial_hits;
      misses = stats.misses - fe.seeded.misses;
      // One exact copy (hit) and two mutated copies (partial hits) of every
      // seeded original.
      uint64_t originals = 0;
      for (size_t index : inputs_.cache_seed) {
        if (inputs_.inputs[index].slot == i) ++originals;
      }
      if (hits != originals || partial != 2 * originals || misses != 0) {
        GateFailure("verdict cache mix differs from its design: hits " +
                    std::to_string(hits) + " partial " + std::to_string(partial) +
                    " misses " + std::to_string(misses) + " for " +
                    std::to_string(originals) + " originals");
      }
    }
    if (!traced) continue;
    LayerSums& l = layers_;
    l.accepted += m.accepted;
    l.admitted += m.admitted;
    l.admitted_warm += m.admitted_warm;
    l.queued += m.queued;
    l.shed += m.shed;
    l.timed_out += m.timed_out;
    l.admission_wait_count += m.admission_wait_count;
    l.admission_wait_total_ns += m.admission_wait_total_ns;
    l.admission_wait_max_ns = std::max(l.admission_wait_max_ns,
                                       m.admission_wait_max_ns);
    l.overlap_count += m.decode_overlap_count;
    l.overlap_sum_permille += m.decode_overlap_sum_permille;
    l.max_committed_pages = std::max(l.max_committed_pages, m.max_committed_pages);
    l.budget_underflows += m.budget_underflows;
    l.cache_hits += hits;
    l.cache_partial += partial;
    l.cache_misses += misses;
    if (fe.cache != nullptr) {
      const core::VerdictCacheStats stats = fe.cache->stats();
      l.cache_tamper += stats.tamper_rejects - fe.seeded.tamper_rejects;
      l.cache_bytes_sealed = std::max(l.cache_bytes_sealed, stats.bytes_sealed);
    }
    if (i == 0) {  // paging counters belong to the shared device
      l.epc_faults += m.epc_faults;
      l.eldu_loads += m.eldu_loads;
      l.pages_reclaimed += m.pages_reclaimed;
      l.pages_evicted_inline += m.pages_evicted_inline;
      l.epc_resident_peak = std::max(l.epc_resident_peak, m.epc_resident_peak);
    }
  }
  round.frontends.clear();
  if (round.device->EnclaveCount() != 0 ||
      round.device->epc().pages_in_use() != 0) {
    GateFailure("leak: enclaves or EPC pages left on the device");
  }
  return Status::Ok();
}

Status Bench::RunRound(size_t round_index, bool traced, bool warm_up) {
  round_index_ = round_index;
  tracer_.set_enabled(traced);
  ScopedSpan round_span(tracer_, "round");
  Round round;
  RoundRecord record;
  {
    ScopedSpan span(tracer_, "setup", round_span.index());
    const uint64_t start = NowNs();
    RETURN_IF_ERROR(SetUp(round, span.index()));
    record.setup_s = static_cast<double>(NowNs() - start) / 1e9;
  }
  {
    ScopedSpan span(tracer_, "sessions", round_span.index());
    RETURN_IF_ERROR(DriveSessions(round, traced, span.index(), record));
  }
  std::vector<double> ms;
  for (const SessionRecord& r : record.sessions) {
    ms.push_back(static_cast<double>(r.latency_ns) / 1e6);
  }
  std::printf("round %zu warm_up=%d traced=%d setup_s=%.4f sessions=%zu "
              "window_s=%.4f p50_ms=%.4f p95_ms=%.4f\n",
              round_index, warm_up ? 1 : 0, traced ? 1 : 0, record.setup_s,
              record.sessions.size(),
              static_cast<double>(record.window_ns) / 1e9, Percentile(ms, 50),
              Percentile(ms, 95));
  if (!warm_up) rounds_[traced ? 1 : 0].push_back(std::move(record));
  {
    ScopedSpan span(tracer_, "teardown", round_span.index());
    RETURN_IF_ERROR(TearDown(round, traced));
  }
  if (config_.verdict_cache) {
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }
  return Status::Ok();
}

// ---- Reporting --------------------------------------------------------------

struct SessionSummary {
  size_t samples = 0;
  double p50_ms = 0, p95_ms = 0, sessions_per_s = 0, minsn_per_s = 0;
};

// Session figures of a run, over the fastest third of its measured rounds:
// the rounds with the shortest session windows, every session of each
// counted. Every round runs the same sessions on a freshly set-up
// deployment, so rounds differ only in what else the host does meanwhile,
// and that only ever slows a round: other tenants stretch some rounds by up
// to half, for seconds to minutes at a time, and how many of a run's
// rounds they hit varies from run to run. A mean or median over all
// rounds follows that share; the fastest rounds read the program's own
// speed. Pooling the sessions of several rounds keeps the latency
// percentiles steady where queueing makes their distribution lumpy.
SessionSummary Summarize(const std::vector<RoundRecord>& rounds) {
  std::vector<const RoundRecord*> kept;
  for (const RoundRecord& r : rounds) kept.push_back(&r);
  std::sort(kept.begin(), kept.end(),
            [](const RoundRecord* a, const RoundRecord* b) {
              return a->window_ns < b->window_ns;
            });
  kept.resize((kept.size() + 2) / 3);
  SessionSummary s;
  std::vector<double> ms;
  double instructions = 0;
  uint64_t window_ns = 0;
  for (const RoundRecord* round : kept) {
    window_ns += round->window_ns;
    for (const SessionRecord& r : round->sessions) {
      ms.push_back(static_cast<double>(r.latency_ns) / 1e6);
      instructions += static_cast<double>(r.instructions);
    }
  }
  const double window_s = static_cast<double>(window_ns) / 1e9;
  s.samples = ms.size();
  s.p50_ms = Percentile(ms, 50);
  s.p95_ms = Percentile(ms, 95);
  if (window_s > 0) {
    s.sessions_per_s = static_cast<double>(ms.size()) / window_s;
    s.minsn_per_s = instructions / 1e6 / window_s;
  }
  return s;
}

class MetricWriter {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(value) ? value : 0.0);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string CpuFlags() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  bool aes = false, pclmul = false, avx2 = false, sha = false;
  if (__get_cpuid(1, &a, &b, &c, &d)) {
    aes = (c & bit_AES) != 0;
    pclmul = (c & bit_PCLMUL) != 0;
  }
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    avx2 = (b & bit_AVX2) != 0;
    sha = (b & bit_SHA) != 0;
  }
  std::string out;
  for (const auto& [name, on] : {std::pair{"aes", aes}, {"sha_ni", sha},
                                 {"pclmulqdq", pclmul}, {"avx2", avx2}}) {
    if (!out.empty()) out += ", ";
    out += std::string("\"") + name + "\": " + (on ? "true" : "false");
  }
  return "{" + out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

std::string MetadataJson(const Args& args, const WorkloadConfig& config) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %u, \"cpu_flags\": %s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_commit\": \"%s\", "
      "\"source_digest\": \"%s\", \"rsa_bits\": %zu, "
      "\"transport\": \"in-memory (net::PipeTransport)\", \"clients\": %zu, "
      "\"inspection_threads\": %zu}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      CpuFlags().c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
      args.commit.c_str(), args.source_digest.c_str(), kRsaBits,
      config.clients, InspectionThreads(config));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void AddLayerMetrics(MetricWriter& w, const Bench& bench,
                     const perfbench::LayerReplay& replay, double coverage,
                     const SessionSummary& traced,
                     const SessionSummary& untraced) {
  const LayerSums& l = bench.layers();
  const double sessions = static_cast<double>(l.sessions);
  w.Add("client.send_program_ms", Ratio(Ms(l.send_program_ns), sessions), "ms");
  w.Add("client.await_ms", Ratio(Ms(l.await_ns), sessions), "ms");
  w.Add("frontend.accept_ms",
        Ratio(Ms(l.accept_ns), static_cast<double>(l.accepts)), "ms");
  w.Add("frontend.poll_ms_per_session", Ratio(Ms(l.poll_ns), sessions), "ms");
  w.Add("frontend.idle_poll_frac",
        Ratio(static_cast<double>(l.idle_polls), static_cast<double>(l.polls)),
        "fraction");
  w.Add("frontend.admission_wait_ms_mean",
        Ratio(Ms(l.admission_wait_total_ns),
              static_cast<double>(l.admission_wait_count)),
        "ms");
  w.Add("frontend.admission_wait_ms_max", Ms(l.admission_wait_max_ns), "ms");
  w.Add("frontend.queued_frac",
        Ratio(static_cast<double>(l.queued), static_cast<double>(l.accepted)),
        "fraction");
  w.Add("frontend.shed", static_cast<double>(l.shed), "count");
  w.Add("frontend.timed_out", static_cast<double>(l.timed_out), "count");
  w.Add("frontend.admitted_warm_frac",
        Ratio(static_cast<double>(l.admitted_warm),
              static_cast<double>(l.admitted)),
        "fraction");
  uint64_t stage_total = 0;
  for (uint64_t ns : l.stage_ns) stage_total += ns;
  w.Add("frontend.unattributed_ms_per_session",
        Ratio(Ms(l.poll_ns) - Ms(stage_total), sessions), "ms");
  w.Add("enclave_pool.prefill_ms_per_enclave",
        Ratio(Ms(l.prefill_ns), static_cast<double>(l.prefilled)), "ms");
  static const char* kStageMetric[kStages] = {
      "inspection.container_validate_ms", "inspection.page_separation_ms",
      "inspection.disassemble_ms",        "inspection.build_symbols_ms",
      "inspection.nacl_validate_ms",      "inspection.policy_check_ms",
      "inspection.load_and_lock_ms"};
  for (size_t i = 0; i < kStages; ++i) {
    w.Add(kStageMetric[i], Ratio(Ms(l.stage_ns[i]), sessions), "ms");
  }
  w.Add("inspection.rejected_frac",
        Ratio(static_cast<double>(l.rejected), sessions), "fraction");
  w.Add("streaming.overlap_permille",
        Ratio(static_cast<double>(l.overlap_sum_permille),
              static_cast<double>(l.overlap_count)),
        "permille");
  w.Add("streaming.fallback_sections", static_cast<double>(l.fallback_sections),
        "count");
  const double probes =
      static_cast<double>(l.cache_hits + l.cache_partial + l.cache_misses);
  w.Add("verdict_cache.hit_frac", Ratio(static_cast<double>(l.cache_hits), probes),
        "fraction");
  w.Add("verdict_cache.partial_hit_frac",
        Ratio(static_cast<double>(l.cache_partial), probes), "fraction");
  w.Add("verdict_cache.miss_frac",
        Ratio(static_cast<double>(l.cache_misses), probes), "fraction");
  w.Add("verdict_cache.tamper_rejects", static_cast<double>(l.cache_tamper),
        "count");
  w.Add("verdict_cache.bytes_sealed", static_cast<double>(l.cache_bytes_sealed),
        "bytes");
  // Exact per-phase SGX instruction counts: the mean over the distinct
  // inputs of the counts every session was gated against.
  static const char* kPhaseMetric[kPhases] = {
      "idle", "channel", "container", "disassembly", "policy_check", "loading",
      "wx_hardening"};
  const std::vector<Input>& inputs = bench.inputs().inputs;
  for (size_t p = 0; p < kPhases; ++p) {
    double sum = 0;
    for (const Input& input : inputs) sum += static_cast<double>(input.expected.sgx[p]);
    w.Add(std::string("sgx.insns.") + kPhaseMetric[p],
          Ratio(sum, static_cast<double>(inputs.size())), "count");
  }
  // Modeled cycles of the phases Figures 3-5 report, per session.
  for (sgx::Phase phase : {sgx::Phase::kChannel, sgx::Phase::kDisassembly,
                           sgx::Phase::kPolicyCheck, sgx::Phase::kLoading}) {
    const size_t p = static_cast<size_t>(phase);
    w.Add(std::string("sgx.modeled_mcycles.") + kPhaseMetric[p],
          Ratio(l.modeled_cycles[p] / 1e6, sessions), "Mcycles");
  }
  w.Add("sgx.epc_faults_per_session",
        Ratio(static_cast<double>(l.epc_faults), sessions), "count");
  w.Add("sgx.eldu_loads_per_session",
        Ratio(static_cast<double>(l.eldu_loads), sessions), "count");
  w.Add("sgx.pages_reclaimed_per_session",
        Ratio(static_cast<double>(l.pages_reclaimed), sessions), "count");
  w.Add("sgx.pages_evicted_inline_per_session",
        Ratio(static_cast<double>(l.pages_evicted_inline), sessions), "count");
  w.Add("sgx.epc_resident_peak", static_cast<double>(l.epc_resident_peak),
        "pages");
  w.Add("epc_budget.max_committed_pages",
        static_cast<double>(l.max_committed_pages), "pages");
  w.Add("epc_budget.underflows", static_cast<double>(l.budget_underflows),
        "count");
  w.Add("crypto.aes_ctr_mb_per_s", replay.aes_ctr_mb_per_s, "MB/s");
  w.Add("crypto.sha256_mb_per_s", replay.sha256_mb_per_s, "MB/s");
  w.Add("crypto.rsa_wrap_unwrap_ms", replay.rsa_wrap_unwrap_ms, "ms");
  w.Add("sgx.quote_create_verify_ms", replay.quote_create_verify_ms, "ms");
  w.Add("core.enclave_create_ms", replay.enclave_create_ms, "ms");
  w.Add("sgx.ewb_eldu_us_per_page", replay.ewb_eldu_us_per_page, "us");
  w.Add("ledger.coverage_frac", coverage, "fraction");
  w.Add("trace.overhead_verdict_p50_frac",
        Ratio(traced.p50_ms, untraced.p50_ms) - 1.0, "fraction");
  w.Add("trace.overhead_sessions_per_s_frac",
        Ratio(untraced.sessions_per_s, traced.sessions_per_s) - 1.0, "fraction");
  const Accounting& a = bench.accounting();
  w.Add("sessions.failed_frac",
        Ratio(static_cast<double>(a.failed()), static_cast<double>(a.attempted)),
        "fraction");
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return InvalidArgumentError("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0)) return InvalidArgumentError("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return InvalidArgumentError("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      return InvalidArgumentError("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') {
      return InvalidArgumentError("bad value for " + flag);
    }
  }
  if (!have_workload) return InvalidArgumentError("--workload is required");
  return args;
}

int Run(const Args& args) {
  const WorkloadConfig* config = nullptr;
  for (const WorkloadConfig& w : Workloads()) {
    if (args.workload == w.name) config = &w;
  }
  if (config == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::string meta = MetadataJson(args, *config);
  std::printf("meta %s\n", meta.c_str());

  // Inputs and the serial reference are the load generator's and the gate's
  // cost, outside both set-up and the measured window.
  auto inputs = GenerateInputs(*config, args.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  auto reference_qe =
      sgx::QuotingEnclave::Provision(ToBytes(kQuotingSeed), kRsaBits);
  if (!reference_qe.ok()) return 1;
  {
    auto policies = MakePolicies(*inputs);
    Status status = policies.status();
    if (status.ok()) {
      status = ComputeReferences(*config, *inputs, *reference_qe, *policies);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "reference: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  Bench bench(*config, std::move(inputs).value(), args.seed,
              args.out_dir + "/verdict-cache-" + args.workload);
  // Round 0 warms caches and the allocator up and is not measured. Rounds
  // then run while another one of the average length so far still fits in
  // the budget; a run measures at least three rounds, and a trace run
  // alternates untraced and traced rounds and measures at least one of each.
  const size_t min_rounds = args.trace ? 3 : 4;
  const uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t start = NowNs();
  for (size_t round = 0;; ++round) {
    const uint64_t elapsed = NowNs() - start;
    if (round >= min_rounds && elapsed + elapsed / round > budget_ns) break;
    const Status status =
        bench.RunRound(round, args.trace && round % 2 == 1, round == 0);
    if (!status.ok()) {
      std::fprintf(stderr, "round %zu: %s\n", round, status.ToString().c_str());
      return 1;
    }
  }

  const Accounting& a = bench.accounting();
  std::printf(
      "sessions attempted=%llu compliant=%llu rejected=%llu shed=%llu "
      "timed_out=%llu hard_failed=%llu mismatched=%llu failed_frac=%.6g\n",
      static_cast<unsigned long long>(a.attempted),
      static_cast<unsigned long long>(a.compliant),
      static_cast<unsigned long long>(a.rejected),
      static_cast<unsigned long long>(a.shed),
      static_cast<unsigned long long>(a.timed_out),
      static_cast<unsigned long long>(a.hard_failed),
      static_cast<unsigned long long>(a.mismatched),
      Ratio(static_cast<double>(a.failed()), static_cast<double>(a.attempted)));
  for (const std::string& failure : bench.gate_failures()) {
    std::printf("gate failed: %s\n", failure.c_str());
  }

  const SessionSummary untraced = Summarize(bench.rounds(false));
  MetricWriter metrics;
  if (!args.trace) {
    std::printf("samples sessions=%zu setups=%zu\n", untraced.samples,
                bench.setup_s().size());
    metrics.Add("sessions_per_s", untraced.sessions_per_s, "1/s");
    metrics.Add("verdict_ms_p50", untraced.p50_ms, "ms");
    metrics.Add("verdict_ms_p95", untraced.p95_ms, "ms");
    metrics.Add("minsn_per_s", untraced.minsn_per_s, "Minsn/s");
    metrics.Add("setup_s", Median(bench.setup_s()), "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const SessionSummary traced = Summarize(bench.rounds(true));
    std::printf("samples traced_sessions=%zu untraced_sessions=%zu\n",
                traced.samples, untraced.samples);
    std::vector<const Bytes*> images;
    for (const Input& input : bench.inputs().inputs) images.push_back(&input.image);
    auto qe = sgx::QuotingEnclave::Provision(ToBytes(kQuotingSeed),
                                             kRsaBits);
    if (!qe.ok()) return 1;
    auto replay = perfbench::ReplayLayers(images, *qe,
                                          bench.policies().factories[0],
                                          EnclaveOptionsFor(*config));
    if (!replay.ok()) {
      std::fprintf(stderr, "layer replay: %s\n",
                   replay.status().ToString().c_str());
      return 1;
    }
    const double coverage = bench.tracer().Coverage(
        "session", {"frontend.accept", "frontend.poll", "frontend.take_outcome",
                    "client.await_admission", "client.send_program",
                    "client.await_verdict"});
    AddLayerMetrics(metrics, bench, *replay, coverage, traced, untraced);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!bench.tracer().WriteChromeJson(path, meta)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", path.c_str());
  }
  const bool correct = a.mismatched == 0 && bench.gate_failures().empty() &&
                       a.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(a.attempted),
              static_cast<unsigned long long>(a.failed()),
              metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: engarde_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID] "
                 "[--source-digest HEX]\n",
                 args.status().ToString().c_str());
    return 2;
  }
  return Run(*args);
}
