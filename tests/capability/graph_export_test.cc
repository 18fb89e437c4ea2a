// Copyright 2026 The Tyche Reproduction Authors.
// Graph-export tests: DOT/JSON escaping helpers, donated-ancestry rendering,
// and a JSON refcount round-trip over a deep lineage tree.

#include "src/capability/graph_export.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tyche {
namespace {

constexpr CapDomainId kOs = 0;
constexpr uint64_t kMiB = 1ull << 20;

TEST(GraphEscapeTest, DotLabelEscaping) {
  EXPECT_EQ(EscapeGraphLabel("plain"), "plain");
  EXPECT_EQ(EscapeGraphLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeGraphLabel("a\\b"), "a\\\\b");
  // Raw newlines become the two-character DOT line break; CR is dropped.
  EXPECT_EQ(EscapeGraphLabel("a\nb"), "a\\nb");
  EXPECT_EQ(EscapeGraphLabel("a\r\nb"), "a\\nb");
  // A label that already contains "\n" must not gain an unescaped backslash.
  EXPECT_EQ(EscapeGraphLabel("a\\nb"), "a\\\\nb");
}

TEST(GraphEscapeTest, JsonStringEscaping) {
  EXPECT_EQ(EscapeJsonString("plain"), "plain");
  EXPECT_EQ(EscapeJsonString("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(EscapeJsonString("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(EscapeJsonString(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(EscapeJsonString("\x1f"), "\\u001f");
}

class GraphExportTest : public ::testing::Test {
 protected:
  GraphExportTest() {
    engine_.RegisterDomain(kOs, CapabilityEngine::kNoCreator);
    root_ = *engine_.MintMemory(kOs, AddrRange{0, 64 * kMiB}, Perms(Perms::kRWX),
                                CapRights(CapRights::kAll));
  }

  CapabilityEngine engine_;
  CapId root_ = kInvalidCap;
};

TEST_F(GraphExportTest, DonatedAncestryRendersDashedAndIsOmittedWhenFiltered) {
  engine_.RegisterDomain(1, kOs);
  const auto grant = engine_.GrantMemory(kOs, root_, 1, AddrRange{0, kMiB},
                                         Perms(Perms::kRW), CapRights(CapRights::kAll),
                                         RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  const CapId shared =
      *engine_.ShareMemory(1, grant->granted, kOs, AddrRange{0, kMiB}, Perms(Perms::kRead),
                           CapRights{}, RevocationPolicy{}, nullptr);
  ASSERT_TRUE(engine_.Revoke(1, shared).ok());

  // The donated root stays (dashed) as the ancestor of the live pieces; the
  // revoked share is reclaimed and appears nowhere.
  const std::string with_ancestry = ExportCapabilityGraphDot(engine_);
  EXPECT_NE(with_ancestry.find("style=dashed"), std::string::npos);
  EXPECT_NE(with_ancestry.find("cap" + std::to_string(root_) + " -> cap" +
                               std::to_string(grant->granted)),
            std::string::npos);
  EXPECT_EQ(with_ancestry.find("cap" + std::to_string(shared) + " "), std::string::npos);

  GraphExportOptions live_only;
  live_only.include_inactive = false;
  const std::string live = ExportCapabilityGraphDot(engine_, live_only);
  EXPECT_EQ(live.find("style=dashed"), std::string::npos);
  EXPECT_EQ(live.find("cap" + std::to_string(root_) + " "), std::string::npos);
  // The granted piece itself is still there.
  EXPECT_NE(live.find("cap" + std::to_string(grant->granted) + " "), std::string::npos);
}

// Extracts `"key":<number>` occurrences from a JSON export. Enough structure
// for round-trip assertions without a JSON parser in the test.
std::vector<uint64_t> NumbersFor(const std::string& json, const std::string& key) {
  std::vector<uint64_t> out;
  const std::string needle = "\"" + key + "\":";
  for (size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    out.push_back(std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10));
  }
  return out;
}

TEST_F(GraphExportTest, JsonRefcountsRoundTripOnDeepLineage) {
  // Chain: root -> d1 -> d2 -> ... -> d8, every share over the same MiB, so
  // the memory refcount of that range counts all nine distinct domains.
  constexpr int kDepth = 8;
  CapId prev = root_;
  for (int d = 1; d <= kDepth; ++d) {
    engine_.RegisterDomain(d, d - 1);
    prev = *engine_.ShareMemory(d - 1, prev, d, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                CapRights(CapRights::kAll), RevocationPolicy{}, nullptr);
  }
  EXPECT_EQ(engine_.MemoryRefCount(AddrRange{0, kMiB}), kDepth + 1);

  const std::string json = ExportCapabilityGraphJson(engine_);
  // Every node carrying the shared MiB reports the same refcount the engine
  // computes; the lineage chain appears as kDepth edges.
  const std::vector<uint64_t> refcounts = NumbersFor(json, "ref_count");
  ASSERT_EQ(refcounts.size(), static_cast<size_t>(kDepth + 1));
  for (size_t i = 1; i < refcounts.size(); ++i) {  // node 0 is the 64 MiB root
    EXPECT_EQ(refcounts[i], static_cast<uint64_t>(kDepth + 1));
  }
  EXPECT_EQ(NumbersFor(json, "parent").size(), static_cast<size_t>(kDepth));

  // Revoke the first share: the whole chain cascades away and the JSON
  // refcounts drop back to the owner alone, in lockstep with the engine.
  const std::vector<uint64_t> ids = NumbersFor(json, "id");
  ASSERT_GE(ids.size(), 2u);
  ASSERT_TRUE(engine_.Revoke(kOs, ids[1]).ok());
  GraphExportOptions live_only;
  live_only.include_inactive = false;
  const std::string after = ExportCapabilityGraphJson(engine_, live_only);
  const std::vector<uint64_t> after_refcounts = NumbersFor(after, "ref_count");
  ASSERT_EQ(after_refcounts.size(), 1u);
  EXPECT_EQ(after_refcounts[0], 1u);
  EXPECT_TRUE(NumbersFor(after, "parent").empty());
}

}  // namespace
}  // namespace tyche
