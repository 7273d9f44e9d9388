// Byte pin of the kit writer: the built-in registry's registry_json must
// equal the committed tests/kits/golden/builtin_registry.json byte for
// byte.  The round-trip tests compare the writer with itself, so only this
// file catches a format change that is consistent within one build.  The
// serve-churn benchmark builds its inline-kit requests with kit_json, so
// these bytes also define that workload.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "kits/kit_json.hpp"

namespace ipass::kits {
namespace {

std::string committed_registry() {
  const std::string path = std::string(IPASS_KIT_GOLDEN_DIR) + "/builtin_registry.json";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(KitGolden, BuiltinRegistryMatchesCommittedBytes) {
  const std::string golden = committed_registry();
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(registry_json(builtin_kit_registry()), golden);
}

TEST(KitGolden, CommittedRegistryReserializesToItself) {
  const std::string golden = committed_registry();
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(registry_json(parse_registry_json(golden)), golden);
}

TEST(KitGolden, AppendKitJsonAppendsTheSameBytesAsKitJson) {
  const KitRegistry registry = builtin_kit_registry();
  std::string out = "prefix:";
  for (const ProcessKit& kit : registry.kits()) {
    const std::size_t start = out.size();
    append_kit_json(out, kit);
    EXPECT_EQ(out.substr(start), kit_json(kit)) << kit.name;
  }
  EXPECT_EQ(out.rfind("prefix:", 0), 0U);
}

}  // namespace
}  // namespace ipass::kits
