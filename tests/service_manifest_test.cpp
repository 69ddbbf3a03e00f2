// Manifest durability semantics: round-trip, torn-tail tolerance,
// duplicate tolerance, and corruption detection — the exact damage
// model an interrupted writer can produce, and nothing laxer.

#include <gtest/gtest.h>

#include <filesystem>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/service/manifest.h"
#include "src/support/file_lock.h"

namespace dynbcast {
namespace {

class ServiceManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "dynbcast_manifest_test";
    std::filesystem::remove_all(dir_);  // stale state from prior runs
    makeDirectories(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

constexpr char kRequest[] = "seed=1 seeds=2 sizes=4,8";

TEST_F(ServiceManifestTest, MissingFileIsNullopt) {
  EXPECT_FALSE(loadManifest(path("absent.manifest")).has_value());
}

TEST_F(ServiceManifestTest, HeaderAndRecordsRoundTrip) {
  const std::string manifest = path("roundtrip.manifest");
  initManifest(manifest, kRequest, 4);

  auto fresh = loadManifest(manifest);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->canonicalRequest, kRequest);
  EXPECT_EQ(fresh->taskCount, 4u);
  EXPECT_EQ(fresh->doneCount, 0u);
  EXPECT_FALSE(fresh->complete());
  EXPECT_EQ(fresh->pending(0, 4), (std::vector<std::size_t>{0, 1, 2, 3}));

  appendTaskRecord(manifest, {2, 17, true});
  appendTaskRecord(manifest, {0, 5, false});

  auto partial = loadManifest(manifest);
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->doneCount, 2u);
  ASSERT_TRUE(partial->records[2].has_value());
  EXPECT_EQ(partial->records[2]->rounds, 17u);
  EXPECT_TRUE(partial->records[2]->completed);
  ASSERT_TRUE(partial->records[0].has_value());
  EXPECT_EQ(partial->records[0]->rounds, 5u);
  EXPECT_FALSE(partial->records[0]->completed);
  EXPECT_EQ(partial->pending(0, 4), (std::vector<std::size_t>{1, 3}));
  // Range views clamp and restrict.
  EXPECT_EQ(partial->pending(2, 100), (std::vector<std::size_t>{3}));

  appendTaskRecord(manifest, {1, 3, true});
  appendTaskRecord(manifest, {3, 9, true});
  auto done = loadManifest(manifest);
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->complete());
}

TEST_F(ServiceManifestTest, TornTailLineIsSkipped) {
  const std::string manifest = path("torn.manifest");
  initManifest(manifest, kRequest, 3);
  appendTaskRecord(manifest, {0, 7, true});

  // A writer killed mid-write leaves a partial final line with no
  // terminator; the record must simply not count.
  auto content = readFileIfExists(manifest);
  ASSERT_TRUE(content.has_value());
  writeFileDurable(manifest, *content + "done 1 4");

  auto state = loadManifest(manifest);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->doneCount, 1u);
  EXPECT_FALSE(state->records[1].has_value());
  EXPECT_EQ(state->pending(0, 3), (std::vector<std::size_t>{1, 2}));
}

TEST_F(ServiceManifestTest, AGroupCommitsAllItsRecordsInOneAppend) {
  const std::string manifest = path("group.manifest");
  initManifest(manifest, kRequest, 5);
  appendTaskRecords(manifest, {});  // an empty group writes nothing
  appendTaskRecords(manifest, {{3, 8, true}, {0, 2, false}, {4, 11, true}});

  const auto state = loadManifest(manifest);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->doneCount, 3u);
  EXPECT_EQ(state->pending(0, 5), (std::vector<std::size_t>{1, 2}));
  ASSERT_TRUE(state->records[4].has_value());
  EXPECT_EQ(state->records[4]->rounds, 11u);
  EXPECT_EQ(*readFileIfExists(manifest),
            std::string(kManifestVersion) + "\nrequest " + kRequest +
                "\ntasks 5\ndone 3 8 1\ndone 0 2 0\ndone 4 11 1\n");
}

TEST_F(ServiceManifestTest, AGroupCutAtAnyByteKeepsExactlyItsWholeRecords) {
  // A crash during a group commit can leave any prefix of the group on
  // disk. Cut the group at every byte: loading must return exactly the
  // records whose text is wholly before the cut, and a later group
  // appended after the torn tail must keep all of them plus its own.
  const std::vector<TaskRecord> group = {
      {4, 120, true}, {0, 7, false}, {9, 33, true}, {2, 1, true}};
  const std::vector<TaskRecord> later = {{1, 5, true}, {7, 64, false}};
  const std::string built = path("built.manifest");
  initManifest(built, kRequest, 10);
  appendTaskRecord(built, {6, 3, true});  // an earlier, committed group
  const std::string before = *readFileIfExists(built);
  appendTaskRecords(built, group);
  const std::string full = *readFileIfExists(built);
  ASSERT_GT(full.size(), before.size());

  // Where each record's text ends within the group (its '\n' excluded).
  std::vector<std::size_t> recordEnds;
  for (std::size_t i = before.size(); i < full.size(); ++i) {
    if (full[i] == '\n') recordEnds.push_back(i);
  }
  ASSERT_EQ(recordEnds.size(), group.size());

  const std::string cut = path("cut.manifest");
  for (std::size_t size = before.size(); size < full.size(); ++size) {
    writeFileDurable(cut, full.substr(0, size));
    std::size_t whole = 0;
    while (whole < group.size() && recordEnds[whole] <= size) ++whole;

    const auto state = loadManifest(cut);
    ASSERT_TRUE(state.has_value()) << "cut at " << size;
    EXPECT_EQ(state->doneCount, 1 + whole) << "cut at " << size;
    ASSERT_TRUE(state->records[6].has_value()) << "cut at " << size;
    for (std::size_t i = 0; i < group.size(); ++i) {
      const auto& record = state->records[group[i].position];
      ASSERT_EQ(record.has_value(), i < whole)
          << "cut at " << size << ", record " << i;
      if (i < whole) {
        EXPECT_EQ(record->rounds, group[i].rounds) << "cut at " << size;
        EXPECT_EQ(record->completed, group[i].completed) << "cut at " << size;
      }
    }

    appendTaskRecords(cut, later);
    const auto resumed = loadManifest(cut);
    ASSERT_TRUE(resumed.has_value()) << "cut at " << size;
    EXPECT_EQ(resumed->doneCount, 1 + whole + later.size())
        << "cut at " << size;
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_TRUE(resumed->records[group[i].position].has_value())
          << "cut at " << size << ", record " << i;
    }
    for (const TaskRecord& record : later) {
      ASSERT_TRUE(resumed->records[record.position].has_value())
          << "cut at " << size;
      EXPECT_EQ(resumed->records[record.position]->rounds, record.rounds);
    }
  }
}

TEST_F(ServiceManifestTest, DuplicateAndOutOfRangeRecordsAreTolerated) {
  const std::string manifest = path("dup.manifest");
  initManifest(manifest, kRequest, 2);
  appendTaskRecord(manifest, {1, 6, true});
  appendTaskRecord(manifest, {1, 6, true});   // duplicate (idempotent)
  appendTaskRecord(manifest, {9, 1, true});   // out of range → ignored

  auto state = loadManifest(manifest);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->doneCount, 1u);
  ASSERT_TRUE(state->records[1].has_value());
  EXPECT_EQ(state->records[1]->rounds, 6u);
}

TEST_F(ServiceManifestTest, CorruptHeaderThrows) {
  const std::string wrongVersion = path("wrong_version.manifest");
  writeFileDurable(wrongVersion, "DYNBCAST-MANIFEST/99\nrequest x\ntasks 1\n");
  EXPECT_THROW((void)loadManifest(wrongVersion), std::runtime_error);

  const std::string truncated = path("truncated.manifest");
  writeFileDurable(truncated, std::string(kManifestVersion) + "\n");
  EXPECT_THROW((void)loadManifest(truncated), std::runtime_error);
}

TEST_F(ServiceManifestTest, InitTruncatesAnExistingManifest) {
  const std::string manifest = path("reinit.manifest");
  initManifest(manifest, kRequest, 2);
  appendTaskRecord(manifest, {0, 4, true});
  initManifest(manifest, kRequest, 2);  // fresh job, same identity

  auto state = loadManifest(manifest);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->doneCount, 0u);
}

}  // namespace
}  // namespace dynbcast
