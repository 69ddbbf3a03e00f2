// Result-cache semantics: disk persistence across instances (the
// cross-process story), space-bearing keys, damage tolerance, and the
// disabled mode.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "src/service/cache.h"
#include "src/support/file_lock.h"

namespace dynbcast {
namespace {

class ServiceCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "dynbcast_cache_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from prior runs
    makeDirectories(dir_);
  }

  std::string dir_;
};

TEST_F(ServiceCacheTest, EmptyDirectoryDisablesTheCache) {
  ResultCache cache("");
  EXPECT_FALSE(cache.enabled());
  cache.put("some key", {5, true});
  EXPECT_FALSE(cache.get("some key").has_value());
}

TEST_F(ServiceCacheTest, PutGetRoundTrip) {
  ResultCache cache(dir_);
  ASSERT_TRUE(cache.enabled());
  EXPECT_FALSE(cache.get("row/1 n=8 seed=42").has_value());

  cache.put("row/1 n=8 seed=42", {13, true});
  cache.put("row/1 n=8 seed=43", {0, false});

  const auto hit = cache.get("row/1 n=8 seed=42");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rounds, 13u);
  EXPECT_TRUE(hit->completed);

  const auto incomplete = cache.get("row/1 n=8 seed=43");
  ASSERT_TRUE(incomplete.has_value());
  EXPECT_EQ(incomplete->rounds, 0u);
  EXPECT_FALSE(incomplete->completed);
}

TEST_F(ServiceCacheTest, AFreshInstanceReadsWhatAnotherWrote) {
  // Two ResultCache objects over one directory model two processes: the
  // reader never saw the put, so a hit proves the bucket files carry it.
  {
    ResultCache writer(dir_);
    writer.put("beam/1 n=16 seed=7 width=256 moves=8 div=40 searched=1",
               {29, true});
  }
  ResultCache reader(dir_);
  const auto hit =
      reader.get("beam/1 n=16 seed=7 width=256 moves=8 div=40 searched=1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rounds, 29u);
}

TEST_F(ServiceCacheTest, KeysWithManySpacesSurviveVerbatim) {
  ResultCache cache(dir_);
  const std::string key =
      "row/1 obj=broadcast dyn=rooted-tree cap=0 backend=dense "
      "member=freeze-path:depth=3 n=8 seed=99 mpos=2";
  cache.put(key, {4, true});
  // Near-miss keys must not alias.
  EXPECT_FALSE(cache.get(key + " extra").has_value());
  const auto hit = ResultCache(dir_).get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rounds, 4u);
}

TEST_F(ServiceCacheTest, DuplicateAppendsAreIdempotent) {
  ResultCache cache(dir_);
  cache.put("dup", {8, true});
  cache.put("dup", {8, true});
  const auto hit = ResultCache(dir_).get("dup");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rounds, 8u);
}

TEST_F(ServiceCacheTest, DamagedLinesBeforeTheEntryAreSkipped) {
  const std::string key = "row/1 n=8 seed=5";
  {
    ResultCache writer(dir_);
    writer.put(key, {11, true});
  }
  // Rewrite the key's bucket: in front of the real entry, a torn copy of
  // it (a writer killed mid-append, later newline-terminated), copies
  // with a damaged rounds or completed field, a near-miss key under the
  // same hash, and garbage.
  std::string bucketPath;
  for (const auto& file : std::filesystem::directory_iterator(dir_)) {
    bucketPath = file.path().string();
  }
  ASSERT_FALSE(bucketPath.empty());
  const auto original = readFileIfExists(bucketPath);
  ASSERT_TRUE(original.has_value());
  const std::string entry = original->substr(0, original->size() - 1);
  const std::string hash = entry.substr(0, 16);
  std::string damaged;
  damaged += entry.substr(0, entry.size() - 4) + '\n';  // torn key
  damaged += hash + " 1x 1 " + key + '\n';              // bad rounds
  damaged += hash + " 99 2 " + key + '\n';              // bad completed
  damaged += hash + " 99 1 " + key + " extra\n";        // near-miss key
  damaged += hash + '\n';
  damaged += "garbage\n";
  damaged += *original;
  damaged += hash + " 12";  // a torn tail after it
  writeFileDurable(bucketPath, damaged);

  const auto hit = ResultCache(dir_).get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rounds, 11u);
  EXPECT_TRUE(hit->completed);
}

}  // namespace
}  // namespace dynbcast
