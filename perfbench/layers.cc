#include "layers.h"

#include <algorithm>

#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "sgx/device.h"
#include "sgx/hostos.h"
#include "trace.h"

namespace perfbench {

using namespace engarde;

namespace {

constexpr int kReps = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Median over kReps of `body`'s wall time in nanoseconds. `body` returns
// false on failure.
template <typename Body>
Result<double> MedianNs(Body body) {
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const uint64_t start = NowNs();
    if (!body()) return InternalError("layer replay step failed");
    samples.push_back(static_cast<double>(NowNs() - start));
  }
  return Median(samples);
}

}  // namespace

Result<LayerReplay> ReplayLayers(
    const std::vector<const Bytes*>& images,
    const sgx::QuotingEnclave& quoting,
    const std::function<core::PolicySet()>& policies,
    const core::EngardeOptions& options) {
  LayerReplay out;
  size_t total_bytes = 0;
  for (const Bytes* image : images) total_bytes += image->size();
  const double megabytes = static_cast<double>(total_bytes) / 1e6;

  crypto::Aes256Key key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  crypto::AesCtr ctr(key, {});
  Bytes buffer;
  ASSIGN_OR_RETURN(const double aes_ns, MedianNs([&] {
    uint64_t offset = 0;
    for (const Bytes* image : images) {
      buffer = *image;
      ctr.Crypt(offset, MutableByteView(buffer.data(), buffer.size()));
      offset += buffer.size();
    }
    return true;
  }));
  out.aes_ctr_mb_per_s = megabytes / (aes_ns / 1e9);

  ASSIGN_OR_RETURN(const double sha_ns, MedianNs([&] {
    for (const Bytes* image : images) (void)crypto::Sha256::Hash(ByteView(*image));
    return true;
  }));
  out.sha256_mb_per_s = megabytes / (sha_ns / 1e9);

  // The per-session key exchange: wrap and unwrap one 32-byte master key.
  crypto::HmacDrbg drbg(ToBytes("perfbench-wrap"));
  ASSIGN_OR_RETURN(const crypto::RsaKeyPair pair,
                   crypto::RsaGenerateKey(options.rsa_bits, drbg));
  const Bytes master(32, 0x42);
  ASSIGN_OR_RETURN(const double rsa_ns, MedianNs([&] {
    auto wrapped = crypto::RsaEncrypt(pair.public_key, master, drbg);
    return wrapped.ok() && crypto::RsaDecrypt(pair.private_key, *wrapped).ok();
  }));
  out.rsa_wrap_unwrap_ms = rsa_ns / 1e6;

  {
    sgx::SgxDevice device(sgx::SgxDevice::Options{.epc_pages = 64});
    ASSIGN_OR_RETURN(const uint64_t eid,
                     device.ECreate(0x10000000, 4 * sgx::kPageSize));
    RETURN_IF_ERROR(device.EAdd(eid, 0x10000000, Bytes(sgx::kPageSize, 1),
                                sgx::PagePerms::RX()));
    RETURN_IF_ERROR(device.ExtendPage(eid, 0x10000000));
    RETURN_IF_ERROR(device.EInit(eid));
    ASSIGN_OR_RETURN(const sgx::Report report, device.EReport(eid, {}));
    ASSIGN_OR_RETURN(const double quote_ns, MedianNs([&] {
      auto quote = quoting.CreateQuote(report);
      return quote.ok() &&
             sgx::VerifyQuote(*quote, quoting.attestation_public_key()).ok();
    }));
    out.quote_create_verify_ms = quote_ns / 1e6;
  }

  {
    // One EnGarde enclave build with the workload's layout, key size and
    // policy set: ECREATE/EADD/EEXTEND/EINIT, RSA keygen and quote.
    sgx::SgxDevice device(sgx::SgxDevice::Options{
        .epc_pages = options.layout.TotalPages() + 64});
    sgx::HostOs host(&device);
    ASSIGN_OR_RETURN(const double create_ns, MedianNs([&] {
      auto enclave =
          core::EngardeEnclave::Create(&host, quoting, policies(), options);
      return enclave.ok() && host.DestroyEnclave(enclave->enclave_id()).ok();
    }));
    out.enclave_create_ms = create_ns / 1e6;
  }

  {
    // EWB + ELDU of one page, repeated over a batch so one sample is long
    // enough to time.
    constexpr int kRoundTrips = 64;
    sgx::SgxDevice device(sgx::SgxDevice::Options{.epc_pages = 64});
    ASSIGN_OR_RETURN(const uint64_t eid,
                     device.ECreate(0x10000000, 16 * sgx::kPageSize));
    RETURN_IF_ERROR(device.EAdd(eid, 0x10000000, Bytes(sgx::kPageSize, 0x5a),
                                sgx::PagePerms::RW()));
    RETURN_IF_ERROR(device.EInit(eid));
    ASSIGN_OR_RETURN(const double paging_ns, MedianNs([&] {
      for (int i = 0; i < kRoundTrips; ++i) {
        if (!device.Ewb(eid, 0x10000000).ok() ||
            !device.Eldu(eid, 0x10000000).ok()) {
          return false;
        }
      }
      return true;
    }));
    out.ewb_eldu_us_per_page = paging_ns / 1e3 / kRoundTrips;
  }
  return out;
}

}  // namespace perfbench
