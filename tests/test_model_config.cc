/**
 * @file
 * Tests for the Table 2 model configurations and their derived size
 * arithmetic: parameter counts must land near the names, KV sizing must
 * reflect GQA, and MoE weight loading must scale with batch.
 */

#include <gtest/gtest.h>

#include "llm/model_config.h"

namespace hilos {
namespace {

TEST(ModelConfig, Table2Shapes)
{
    const ModelConfig m175 = opt175b();
    EXPECT_EQ(m175.layers, 96u);
    EXPECT_EQ(m175.hidden, 12288u);
    EXPECT_EQ(m175.heads, 96u);
    EXPECT_EQ(m175.kv_heads, 96u);
    EXPECT_EQ(m175.dGroup(), 1u);
    EXPECT_EQ(m175.headDim(), 128u);

    const ModelConfig qwen = qwen32b();
    EXPECT_EQ(qwen.kv_heads, 8u);
    EXPECT_EQ(qwen.dGroup(), 5u);

    const ModelConfig mix = mixtral8x7b();
    EXPECT_EQ(mix.dGroup(), 4u);
    EXPECT_EQ(mix.experts, 8u);
    EXPECT_EQ(mix.active_experts, 2u);

    const ModelConfig glam = glam143b();
    EXPECT_EQ(glam.experts, 64u);
    EXPECT_EQ(glam.dGroup(), 1u);
}

struct ParamExpectation {
    const char *name;
    double expected_params;
    double tolerance;
};

// Print the model name, not gtest's default byte dump: the dump holds the
// address of `name`, which moves with ASLR and so gave each run different
// test names.
void
PrintTo(const ParamExpectation &p, std::ostream *os)
{
    *os << p.name;
}

class ParamCounts : public ::testing::TestWithParam<ParamExpectation>
{
};

TEST_P(ParamCounts, MatchesModelName)
{
    const auto &[name, expected, tol] = GetParam();
    const ModelConfig m = modelByName(name);
    EXPECT_NEAR(static_cast<double>(m.paramCount()), expected,
                expected * tol)
        << name;
}

INSTANTIATE_TEST_SUITE_P(
    Table2, ParamCounts,
    ::testing::Values(ParamExpectation{"OPT-30B", 30e9, 0.12},
                      ParamExpectation{"OPT-66B", 66e9, 0.12},
                      ParamExpectation{"OPT-175B", 175e9, 0.12},
                      ParamExpectation{"Qwen2.5-32B", 32e9, 0.15},
                      ParamExpectation{"Mixtral-8x7B", 46e9, 0.15},
                      ParamExpectation{"GLaM-143B", 143e9, 0.15}));

TEST(ModelConfig, KvBytesReflectGqa)
{
    // Qwen's 8 KV heads vs 40 query heads: KV per token is 5x smaller
    // than an MHA model of the same width.
    const ModelConfig qwen = qwen32b();
    EXPECT_EQ(qwen.kvBytesPerTokenPerLayer(),
              2u * 8 * qwen.headDim() * 2);
    ModelConfig mha = qwen;
    mha.kv_heads = mha.heads;
    EXPECT_EQ(mha.kvBytesPerTokenPerLayer(),
              5 * qwen.kvBytesPerTokenPerLayer());
}

TEST(ModelConfig, KvTotalScalesLinearly)
{
    const ModelConfig m = opt66b();
    EXPECT_DOUBLE_EQ(m.kvBytesTotal(2, 1000), 2.0 * m.kvBytesTotal(1, 1000));
    EXPECT_DOUBLE_EQ(m.kvBytesTotal(1, 2000), 2.0 * m.kvBytesTotal(1, 1000));
}

TEST(ModelConfig, Opt175bKvReachesTerabytes)
{
    // Fig 2(a): bs 16 x 128K context exceeds host memory by far.
    const double kv = opt175b().kvBytesTotal(16, 131072);
    EXPECT_GT(kv, 8e12);
}

TEST(ModelConfig, XCacheIsHalfOfKv)
{
    const ModelConfig m = opt175b();  // MHA: kv width == hidden
    EXPECT_EQ(2 * m.xBytesPerTokenPerLayer(),
              m.kvBytesPerTokenPerLayer());
}

TEST(ModelConfig, MoeLoadingGrowsWithBatch)
{
    const ModelConfig mix = mixtral8x7b();
    const double b1 = mix.loadedWeightBytesPerLayer(1);
    const double b16 = mix.loadedWeightBytesPerLayer(16);
    EXPECT_GT(b16, b1);
    // Never exceeds the full layer.
    EXPECT_LE(b16, static_cast<double>(mix.weightBytesPerLayer()) * 1.001);
    // Batch 1 activates exactly active_experts of 8 experts (plus attn).
    const double expert_bytes =
        3.0 * mix.hidden * mix.intermediate * 2.0;
    EXPECT_NEAR(b1,
                static_cast<double>(mix.attnWeightBytesPerLayer()) +
                    2.0 * expert_bytes,
                expert_bytes * 0.05);
}

TEST(ModelConfig, DenseModelLoadsEverythingRegardlessOfBatch)
{
    const ModelConfig m = opt66b();
    EXPECT_DOUBLE_EQ(m.loadedWeightBytesPerLayer(1),
                     m.loadedWeightBytesPerLayer(64));
}

TEST(ModelConfig, AttentionFlopsLinearInContext)
{
    const ModelConfig m = opt66b();
    EXPECT_DOUBLE_EQ(m.attentionFlopsPerToken(2000),
                     2.0 * m.attentionFlopsPerToken(1000));
}

TEST(ModelConfig, UnknownNameIsFatal)
{
    EXPECT_THROW(modelByName("GPT-5"), std::runtime_error);
}

TEST(ModelConfig, AllModelsListIsPaperOrder)
{
    const auto models = allModels();
    ASSERT_EQ(models.size(), 6u);
    EXPECT_EQ(models[0].name, "OPT-30B");
    EXPECT_EQ(models[5].name, "GLaM-143B");
}

}  // namespace
}  // namespace hilos
