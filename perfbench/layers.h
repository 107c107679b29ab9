// Layer replay: times the crypto and SGX primitives a provisioning session
// runs inside ProvisioningFrontend::PollOnce, where no span recorded from the
// benchmark can reach. Each primitive is called directly through its public
// API on the workload's own images and key size.
#ifndef ENGARDE_PERFBENCH_LAYERS_H_
#define ENGARDE_PERFBENCH_LAYERS_H_

#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/engarde.h"
#include "sgx/attestation.h"

namespace perfbench {

struct LayerReplay {
  double aes_ctr_mb_per_s = 0;
  double sha256_mb_per_s = 0;
  double rsa_wrap_unwrap_ms = 0;
  double quote_create_verify_ms = 0;
  double enclave_create_ms = 0;
  double ewb_eldu_us_per_page = 0;
};

// Each figure is the median of several timed repetitions.
engarde::Result<LayerReplay> ReplayLayers(
    const std::vector<const engarde::Bytes*>& images,
    const engarde::sgx::QuotingEnclave& quoting,
    const std::function<engarde::core::PolicySet()>& policies,
    const engarde::core::EngardeOptions& options);

}  // namespace perfbench

#endif  // ENGARDE_PERFBENCH_LAYERS_H_
