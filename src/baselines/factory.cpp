#include "baselines/comparators.hpp"
#include "baselines/fp16_gemm.hpp"
#include "baselines/ideal.hpp"
#include "baselines/kernel_model.hpp"
#include "baselines/marlin_model.hpp"
#include "util/error.hpp"

namespace marlin::baselines {

KernelModelPtr make_kernel_model(const std::string& name) {
  if (name == "fp16") return std::make_unique<Fp16CutlassModel>();
  if (name == "marlin") return std::make_unique<MarlinModel>();
  if (name == "sparse-marlin") return std::make_unique<SparseMarlinModel>();
  if (name == "marlin-w4a8") return std::make_unique<MarlinW4A8Model>();
  if (name == "torch-int4") {
    return std::make_unique<ComparatorModel>(torch_int4_params());
  }
  if (name == "exllamav2") {
    return std::make_unique<ComparatorModel>(exllamav2_params());
  }
  if (name == "awq") return std::make_unique<ComparatorModel>(awq_params());
  if (name == "bitsandbytes") {
    return std::make_unique<ComparatorModel>(bitsandbytes_params());
  }
  if (name == "ideal-dense") return ideal_dense_fp16();
  if (name == "ideal-int4") return ideal_int4_g128();
  if (name == "ideal-sparse") return ideal_sparse_int4_g128();
  MARLIN_CHECK(false, "unknown kernel model `" << name << "`");
  return nullptr;  // unreachable
}

}  // namespace marlin::baselines
