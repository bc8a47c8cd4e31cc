// Kernel registry and runtime dispatch: registration invariants, the
// SATD_KERNEL / set_active_kernel resolution rules with their
// warn-and-fall-back hardening, the s8 depth contract, and the
// geometry-checked packing scratch.
#include "tensor/kernel/microkernel.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/contract.h"

namespace satd::kernel {
namespace {

struct KernelGuard {
  ~KernelGuard() { set_active_kernel(""); }
};

/// Unsets SATD_KERNEL for a test's duration and restores the caller's
/// value afterwards, so a test that resolves the environment sees the
/// auto-detected default even under a pinned kernel (the scalar CI leg),
/// and leaves the pin in place for the tests after it. Declare it after
/// the KernelGuard so the pin is back before the kernel is re-resolved.
class KernelEnvGuard {
 public:
  KernelEnvGuard() {
    if (const char* v = std::getenv("SATD_KERNEL")) saved_ = v;
    unsetenv("SATD_KERNEL");
  }
  ~KernelEnvGuard() {
    if (saved_) {
      setenv("SATD_KERNEL", saved_->c_str(), 1);
    } else {
      unsetenv("SATD_KERNEL");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(KernelRegistry, ScalarIsCompiledFirstAndAlwaysAvailable) {
  const auto& all = compiled_kernels();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all[0]->name, "scalar");
  EXPECT_TRUE(all[0]->runtime_available());
  EXPECT_GE(all[0]->mr, 1u);
}

TEST(KernelRegistry, NamesAreUniqueAndWellFormed) {
  std::set<std::string> names;
  for (const MicroKernel* k : compiled_kernels()) {
    EXPECT_NE(k->name, nullptr);
    EXPECT_GE(k->mr, 1u);
    EXPECT_NE(k->gemm_panel_f32, nullptr) << k->name;
    EXPECT_NE(k->gemm_panel_s8, nullptr) << k->name;
    EXPECT_TRUE(names.insert(k->name).second) << "duplicate " << k->name;
  }
}

TEST(KernelRegistry, AvailableIsASubsetOfCompiled) {
  std::set<const MicroKernel*> compiled(compiled_kernels().begin(),
                                        compiled_kernels().end());
  for (const MicroKernel* k : available_kernels()) {
    EXPECT_TRUE(compiled.count(k)) << k->name;
    EXPECT_TRUE(k->runtime_available()) << k->name;
  }
}

TEST(KernelRegistry, FindKernelRoundTripsAndRejectsUnknown) {
  for (const MicroKernel* k : compiled_kernels()) {
    EXPECT_EQ(find_kernel(k->name), k);
  }
  EXPECT_EQ(find_kernel("definitely-not-a-kernel"), nullptr);
  EXPECT_EQ(find_kernel(""), nullptr);
}

TEST(KernelDispatch, AutoPickIsCompiledAndAvailable) {
  const MicroKernel* k = find_kernel(auto_kernel_name());
  ASSERT_NE(k, nullptr);
  EXPECT_TRUE(k->runtime_available());
}

TEST(KernelDispatch, SetActiveSelectsByName) {
  KernelGuard guard;
  for (const MicroKernel* k : available_kernels()) {
    EXPECT_TRUE(set_active_kernel(k->name));
    EXPECT_STREQ(active_kernel().name, k->name);
  }
}

TEST(KernelDispatch, UnknownNameWarnsAndFallsBackToAuto) {
  KernelGuard guard;
  // Same hardening shape as ThreadPool::parse_thread_env: a bad value
  // must never throw or abort — it logs one warning and auto-dispatches.
  EXPECT_FALSE(set_active_kernel("bogus-simd-9000"));
  EXPECT_EQ(std::string(active_kernel().name), auto_kernel_name());
}

TEST(KernelDispatch, EmptyNameRestoresEnvironmentResolution) {
  KernelGuard guard;
  KernelEnvGuard env;
  ASSERT_TRUE(set_active_kernel("scalar"));
  ASSERT_STREQ(active_kernel().name, "scalar");
  EXPECT_TRUE(set_active_kernel(""));
  EXPECT_EQ(std::string(active_kernel().name), auto_kernel_name());
}

TEST(KernelDispatch, EnvVariableSelectsAndHardensLikeTheSetter) {
  KernelGuard guard;
  KernelEnvGuard env;
  // set_active_kernel("") re-runs the SATD_KERNEL resolution, which lets
  // this test exercise the env path without a process restart.
  ASSERT_EQ(setenv("SATD_KERNEL", "scalar", 1), 0);
  ASSERT_TRUE(set_active_kernel(""));
  EXPECT_STREQ(active_kernel().name, "scalar");

  ASSERT_EQ(setenv("SATD_KERNEL", "not-a-kernel", 1), 0);
  ASSERT_TRUE(set_active_kernel(""));
  EXPECT_EQ(std::string(active_kernel().name), auto_kernel_name());

  ASSERT_EQ(unsetenv("SATD_KERNEL"), 0);
  ASSERT_TRUE(set_active_kernel(""));
  EXPECT_EQ(std::string(active_kernel().name), auto_kernel_name());
}

TEST(KernelDispatch, S8DepthBeyondAccumulatorBoundIsRejected) {
  const std::size_t k = kMaxS8Depth + 1;
  std::vector<std::int8_t> a(k, 1);
  std::vector<std::int8_t> b(k, 1);
  std::vector<std::int32_t> c(1);
  EXPECT_THROW(gemm_s8(a.data(), b.data(), 1, 1, k, c.data()),
               ContractViolation);
  // At the bound itself the call must succeed (127 * 127 * kMaxS8Depth
  // fits int32 by construction).
  std::vector<std::int8_t> a2(kMaxS8Depth, 1);
  std::vector<std::int8_t> b2(kMaxS8Depth, 1);
  gemm_s8(a2.data(), b2.data(), 1, 1, kMaxS8Depth, c.data());
  EXPECT_EQ(c[0], static_cast<std::int32_t>(kMaxS8Depth));
}

#ifndef NDEBUG
TEST(KernelDispatch, PackScratchRejectsForeignPanelGeometry) {
  KernelGuard guard;
  ASSERT_TRUE(set_active_kernel("scalar"));
  const std::size_t mr = active_kernel().mr;
  // The active kernel's own geometry is accepted...
  EXPECT_NE(acquire_pack_f32(mr, 8), nullptr);
  EXPECT_NE(acquire_pack_s8(mr, 8), nullptr);
  // ...but a mismatched panel width is a contract violation in debug
  // builds: a 4-row kernel must never reinterpret an 8-row pack layout.
  EXPECT_THROW(acquire_pack_f32(mr + 1, 8), ContractViolation);
  EXPECT_THROW(acquire_pack_s8(mr + 1, 8), ContractViolation);
}
#endif

TEST(KernelDispatch, KernelsDeclareDistinctPanelWidthsSafely) {
  // The dispatch layer must cope with kernels whose mr differ (the AVX2
  // kernel deliberately uses a wider panel). This is a structural pin:
  // if every kernel had one width, the per-kernel scratch geometry path
  // would be dead code.
  KernelGuard guard;
  for (const MicroKernel* k : available_kernels()) {
    ASSERT_TRUE(set_active_kernel(k->name));
    EXPECT_NE(acquire_pack_f32(k->mr, 16), nullptr) << k->name;
  }
}

}  // namespace
}  // namespace satd::kernel
