// The protocol registry: one row per protocol, and every protocol it builds
// comes out under its row's name. core_facade_test builds the facades' 11
// protocols by name.
#include <cctype>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/registry.h"

namespace dmt {
namespace {

constexpr size_t kDim = 6;
constexpr size_t kRank = 3;

TEST(RegistryTest, NamesAreUniqueLowerCaseAndEachRowHasOneFactory) {
  std::set<std::string> names;
  for (const ProtocolInfo& row : Protocols()) {
    const std::string name = row.name;
    EXPECT_TRUE(names.insert(name).second) << name;
    for (char c : name) {
      EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c))) << name;
    }
    EXPECT_NE(row.make_hh == nullptr, row.make_matrix == nullptr) << name;
    EXPECT_EQ(FindProtocol(name), &row);
  }
  EXPECT_EQ(names.size(), 13u);
}

TEST(RegistryTest, EveryBuiltProtocolIsNamedAfterItsRow) {
  const TrackerConfig config{4, 0.1, 7};
  for (const ProtocolInfo& row : Protocols()) {
    if (row.make_hh != nullptr) {
      auto protocol = MakeHhProtocol(row.name, config);
      ASSERT_NE(protocol, nullptr) << row.name;
      EXPECT_EQ(protocol->name(), row.name);
    } else {
      auto protocol = MakeMatrixProtocol(row.name, config, kDim, kRank);
      ASSERT_NE(protocol, nullptr) << row.name;
      EXPECT_EQ(protocol->name(), row.name);
    }
  }
}

TEST(RegistryTest, FactoriesRefuseWhatTheyCannotBuild) {
  const TrackerConfig config;
  EXPECT_EQ(FindProtocol("P3"), nullptr);
  EXPECT_EQ(MakeHhProtocol("P1", config), nullptr);
  EXPECT_EQ(MakeMatrixProtocol("", config, kDim, kRank), nullptr);
  // The other family's name.
  EXPECT_EQ(MakeHhProtocol("mp1", config), nullptr);
  EXPECT_EQ(MakeMatrixProtocol("p1", config, kDim, kRank), nullptr);
  // The baselines need a rank, and svd the row dimension too.
  EXPECT_EQ(MakeMatrixProtocol("fd", config, kDim, 0), nullptr);
  EXPECT_EQ(MakeMatrixProtocol("svd", config, kDim, 0), nullptr);
  EXPECT_NE(MakeMatrixProtocol("fd", config, 0, kRank), nullptr);
  EXPECT_EQ(MakeMatrixProtocol("svd", config, 0, kRank), nullptr);
}

}  // namespace
}  // namespace dmt
