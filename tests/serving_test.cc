// Tests for deployments and the reconfiguration planner.
#include <gtest/gtest.h>

#include "common/check.h"
#include "serving/deployment.h"
#include "serving/reconfig_planner.h"

namespace clover::serving {
namespace {

using models::Application;
using models::DefaultZoo;

TEST(Deployment, BaseHostsLargestVariantUnpartitioned) {
  const Deployment base = MakeBase(Application::kClassification, 10);
  base.Validate(DefaultZoo());
  EXPECT_EQ(base.NumGpus(), 10);
  EXPECT_EQ(base.NumInstances(), 10);
  for (const GpuAssignment& gpu : base.gpus) {
    EXPECT_EQ(gpu.layout_id, 1);
    EXPECT_EQ(gpu.variant_ordinals.size(), 1u);
    EXPECT_EQ(gpu.variant_ordinals[0], 3);  // EfficientNet-B7
  }
}

TEST(Deployment, Co2OptHostsSmallestOnFinestPartition) {
  const Deployment co2 = MakeCo2Opt(Application::kDetection, 10, DefaultZoo());
  co2.Validate(DefaultZoo());
  EXPECT_EQ(co2.NumInstances(), 70);
  for (const GpuAssignment& gpu : co2.gpus) {
    EXPECT_EQ(gpu.layout_id, 19);
    for (int ordinal : gpu.variant_ordinals) EXPECT_EQ(ordinal, 0);
  }
}

TEST(Deployment, ValidateRejectsOomPlacement) {
  // EfficientNet-B7 (needs >5 GB) on a 1g slice must fail validation.
  Deployment bad = MakeUniform(Application::kClassification, 1, 19, 3);
  EXPECT_THROW(bad.Validate(DefaultZoo()), CheckError);
  EXPECT_FALSE(bad.IsFeasible(DefaultZoo()));
}

TEST(Deployment, ValidateRejectsArityMismatch) {
  Deployment d = MakeBase(Application::kLanguage, 2);
  d.gpus[0].variant_ordinals.push_back(0);  // layout 1 has a single slice
  EXPECT_THROW(d.Validate(DefaultZoo()), CheckError);
}

TEST(Deployment, EmptySlicesAreNotInstances) {
  Deployment d = MakeUniform(Application::kLanguage, 1, 19, 0);
  d.gpus[0].variant_ordinals[3] = kEmptySlice;
  d.gpus[0].variant_ordinals[5] = kEmptySlice;
  EXPECT_EQ(d.NumInstances(), 5);
  EXPECT_EQ(d.Instances().size(), 5u);
  d.Validate(DefaultZoo());
}

TEST(Deployment, AllEmptyIsInvalid) {
  Deployment d = MakeUniform(Application::kLanguage, 1, 1, 0);
  d.gpus[0].variant_ordinals[0] = kEmptySlice;
  EXPECT_THROW(d.Validate(DefaultZoo()), CheckError);
}

TEST(ReconfigPlanner, NoChangeNoCost) {
  const Deployment d = MakeBase(Application::kDetection, 4);
  const ReconfigPlan plan = PlanReconfiguration(d, d, DefaultZoo());
  EXPECT_TRUE(plan.Empty());
  EXPECT_DOUBLE_EQ(plan.MaxOfflineSeconds(), 0.0);
}

TEST(ReconfigPlanner, VariantSwapTouchesOnlyChangedGpu) {
  const Deployment from = MakeBase(Application::kClassification, 4);
  Deployment to = from;
  to.gpus[2].variant_ordinals[0] = 1;  // B7 -> B3 on gpu2 only
  const ReconfigPlan plan = PlanReconfiguration(from, to, DefaultZoo());
  ASSERT_EQ(plan.gpus.size(), 1u);
  EXPECT_EQ(plan.gpus[0].gpu_index, 2);
  EXPECT_FALSE(plan.gpus[0].layout_changed);
  EXPECT_EQ(plan.gpus[0].instances_restarted, 1);
  EXPECT_GT(plan.gpus[0].offline_seconds, 0.0);
}

TEST(ReconfigPlanner, LayoutChangeRestartsEverything) {
  const Deployment from = MakeBase(Application::kClassification, 2);
  const Deployment to =
      MakeCo2Opt(Application::kClassification, 2, DefaultZoo());
  const ReconfigPlan plan = PlanReconfiguration(from, to, DefaultZoo());
  ASSERT_EQ(plan.gpus.size(), 2u);
  for (const GpuReconfigPlan& gpu : plan.gpus) {
    EXPECT_TRUE(gpu.layout_changed);
    EXPECT_EQ(gpu.instances_restarted, 7);
  }
  // Larger models load slower: repartitioning to BASE (B7) costs more than
  // to CO2OPT (B1).
  const ReconfigPlan back = PlanReconfiguration(to, from, DefaultZoo());
  EXPECT_GT(back.MaxOfflineSeconds(), plan.MaxOfflineSeconds());
}

TEST(ReconfigPlanner, MismatchedClustersRejected) {
  const Deployment a = MakeBase(Application::kDetection, 2);
  const Deployment b = MakeBase(Application::kDetection, 3);
  EXPECT_THROW(PlanReconfiguration(a, b, DefaultZoo()), CheckError);
}

}  // namespace
}  // namespace clover::serving
