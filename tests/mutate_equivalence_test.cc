// Differential tests for online mutation: an index grown by Insert (and
// pruned by Delete) then compacted must be indistinguishable from one built
// fresh over the final dataset — same derived parameters, same collision
// counts, same answers with same distances. This is the strongest statement
// that the mutation path implements the paper's structure and not an
// approximation of it.
//
// The options pin beta explicitly: with beta given, every derived parameter
// (z, alpha, m, l) is independent of n, so build(A) and build(A ∪ B) draw
// the same hash family from the same seed — the precondition for
// equivalence.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/disk_index.h"
#include "src/core/index.h"
#include "src/obs/export.h"
#include "src/obs/registry.h"
#include "src/vector/synthetic.h"

namespace c2lsh {
namespace {

constexpr size_t kA = 120;     // built dataset
constexpr size_t kFull = 160;  // after inserts
constexpr size_t kQueries = 4;
constexpr size_t kK = 10;

class MutateEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pd = MakeProfileDataset(DatasetProfile::kColor, kFull, kQueries, 211);
    ASSERT_TRUE(pd.ok());
    pd_ = std::make_unique<ProfileData>(std::move(pd).value());
    const size_t dim = pd_->data.dim();
    std::vector<float> head;
    for (size_t i = 0; i < kA; ++i) {
      const float* v = pd_->data.object(static_cast<ObjectId>(i));
      head.insert(head.end(), v, v + dim);
    }
    auto m = FloatMatrix::FromVector(kA, dim, std::move(head));
    ASSERT_TRUE(m.ok());
    auto a = Dataset::Create("A", std::move(m).value());
    ASSERT_TRUE(a.ok());
    a_ = std::make_unique<Dataset>(std::move(a).value());

    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_mutate_equiv_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  static C2lshOptions Options() {
    C2lshOptions o;
    o.seed = 223;
    o.beta = 0.1;  // n-independent derived params — see file comment
    o.page_bytes = 1024;
    return o;
  }

  static void ExpectSameAnswers(const NeighborList& got, const NeighborList& want,
                                const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
      EXPECT_EQ(got[i].dist, want[i].dist) << what << " rank " << i;
    }
  }

  std::unique_ptr<ProfileData> pd_;
  std::unique_ptr<Dataset> a_;
  std::filesystem::path dir_;
};

TEST_F(MutateEquivalenceTest, MemoryInsertCompactMatchesFreshBuild) {
  const C2lshOptions o = Options();
  auto grown = C2lshIndex::Build(*a_, o);
  ASSERT_TRUE(grown.ok());
  for (size_t i = kA; i < kFull; ++i) {
    ASSERT_TRUE(
        grown->Insert(static_cast<ObjectId>(i), pd_->data.object(static_cast<ObjectId>(i)))
            .ok());
  }
  grown->Compact();

  auto fresh = C2lshIndex::Build(pd_->data, o);
  ASSERT_TRUE(fresh.ok());

  EXPECT_EQ(grown->num_objects(), fresh->num_objects());
  EXPECT_EQ(grown->derived().m, fresh->derived().m);
  EXPECT_EQ(grown->derived().l, fresh->derived().l);

  // The paper's core quantity first: identical collision counts at the
  // first rehashing radii mean the folded tables hold exactly the entries a
  // fresh build produces.
  const long long c = static_cast<long long>(o.c);
  for (size_t q = 0; q < kQueries; ++q) {
    for (const long long radius : {1ll, c, c * c}) {
      EXPECT_EQ(grown->CollisionCountsAtRadius(pd_->queries.row(q), radius),
                fresh->CollisionCountsAtRadius(pd_->queries.row(q), radius))
          << "q=" << q << " R=" << radius;
    }
  }
  for (size_t q = 0; q < kQueries; ++q) {
    auto got = grown->Query(pd_->data, pd_->queries.row(q), kK);
    auto want = fresh->Query(pd_->data, pd_->queries.row(q), kK);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswers(*got, *want, "insert-equiv q=" + std::to_string(q));
  }
}

TEST_F(MutateEquivalenceTest, MemoryDeleteCompactMatchesBuildWithoutDeleted) {
  const C2lshOptions o = Options();
  auto pruned = C2lshIndex::Build(pd_->data, o);
  ASSERT_TRUE(pruned.ok());
  for (size_t i = kA; i < kFull; ++i) {
    ASSERT_TRUE(pruned->Delete(static_cast<ObjectId>(i)).ok());
  }
  pruned->Compact();

  auto fresh = C2lshIndex::Build(*a_, o);
  ASSERT_TRUE(fresh.ok());

  // Trailing deletes shrink the high-water back to |A|.
  EXPECT_EQ(pruned->num_objects(), kA);
  EXPECT_EQ(pruned->num_objects(), fresh->num_objects());
  for (size_t q = 0; q < kQueries; ++q) {
    EXPECT_EQ(pruned->CollisionCountsAtRadius(pd_->queries.row(q), 1),
              fresh->CollisionCountsAtRadius(pd_->queries.row(q), 1))
        << "q=" << q;
    auto got = pruned->Query(pd_->data, pd_->queries.row(q), kK);
    auto want = fresh->Query(*a_, pd_->queries.row(q), kK);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswers(*got, *want, "delete-equiv q=" + std::to_string(q));
    for (const Neighbor& nb : *got) ASSERT_LT(nb.id, kA);
  }
}

TEST_F(MutateEquivalenceTest, DiskInsertDeleteCompactMatchesFreshBuild) {
  const C2lshOptions o = Options();
  const std::string grown_path = Path("grown.pf");
  const std::string fresh_path = Path("fresh.pf");

  auto grown = DiskC2lshIndex::Build(*a_, o, grown_path, 64, /*store_vectors=*/true);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  for (size_t i = kA; i < kFull; ++i) {
    ASSERT_TRUE(
        grown->Insert(static_cast<ObjectId>(i), pd_->data.object(static_cast<ObjectId>(i)))
            .ok());
  }
  // Answers must already match BEFORE compaction (overlay path)...
  auto fresh = DiskC2lshIndex::Build(pd_->data, o, fresh_path, 64, true);
  ASSERT_TRUE(fresh.ok());
  for (size_t q = 0; q < kQueries; ++q) {
    auto got = grown->Query(pd_->queries.row(q), kK);
    auto want = fresh->Query(pd_->queries.row(q), kK);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswers(*got, *want, "disk overlay q=" + std::to_string(q));
  }
  // ...and after (folded into rewritten runs + data segment).
  ASSERT_TRUE(grown->Compact().ok());
  EXPECT_EQ(grown->OverlayEntries(), 0u);
  EXPECT_EQ(grown->NumTombstones(), 0u);
  for (size_t q = 0; q < kQueries; ++q) {
    auto got = grown->Query(pd_->queries.row(q), kK);
    auto want = fresh->Query(pd_->queries.row(q), kK);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswers(*got, *want, "disk compacted q=" + std::to_string(q));
  }
  // ...and across a reopen of the compacted image.
  auto reopened = DiskC2lshIndex::Open(grown_path, 64);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_objects(), kFull);
  for (size_t q = 0; q < kQueries; ++q) {
    auto got = reopened->Query(pd_->queries.row(q), kK);
    auto want = fresh->Query(pd_->queries.row(q), kK);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswers(*got, *want, "disk reopened q=" + std::to_string(q));
  }

  // Delete the inserted tail again: back to answers over A.
  for (size_t i = kA; i < kFull; ++i) {
    ASSERT_TRUE(reopened->Delete(static_cast<ObjectId>(i)).ok());
  }
  ASSERT_TRUE(reopened->Compact().ok());
  const std::string a_path = Path("a.pf");
  auto fresh_a = DiskC2lshIndex::Build(*a_, o, a_path, 64, true);
  ASSERT_TRUE(fresh_a.ok());
  EXPECT_EQ(reopened->num_objects(), fresh_a->num_objects());
  for (size_t q = 0; q < kQueries; ++q) {
    auto got = reopened->Query(pd_->queries.row(q), kK);
    auto want = fresh_a->Query(pd_->queries.row(q), kK);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswers(*got, *want, "disk delete-equiv q=" + std::to_string(q));
  }
}

// Delete-then-reinsert is the churn pattern that exercises the upsert
// semantics of Insert: the tombstone must lift, the stale flat-run entries
// must stay dead (no double counting), and the reinserted object must be
// visible exactly once — before and after compaction.
TEST_F(MutateEquivalenceTest, MemoryDeleteReinsertCompactMatchesFreshBuild) {
  const C2lshOptions o = Options();
  auto churned = C2lshIndex::Build(pd_->data, o);
  ASSERT_TRUE(churned.ok());
  for (size_t i = kA; i < kFull; ++i) {
    ASSERT_TRUE(churned->Delete(static_cast<ObjectId>(i)).ok());
  }
  for (size_t i = kA; i < kFull; ++i) {
    ASSERT_TRUE(
        churned
            ->Insert(static_cast<ObjectId>(i), pd_->data.object(static_cast<ObjectId>(i)))
            .ok());
  }

  auto fresh = C2lshIndex::Build(pd_->data, o);
  ASSERT_TRUE(fresh.ok());

  // Identical collision counts BEFORE compaction: the reinserted ids are
  // counted once (overlay), not zero times (lost to the tombstone) and not
  // twice (resurrected flat entries plus overlay).
  const long long c = static_cast<long long>(o.c);
  for (size_t q = 0; q < kQueries; ++q) {
    for (const long long radius : {1ll, c}) {
      EXPECT_EQ(churned->CollisionCountsAtRadius(pd_->queries.row(q), radius),
                fresh->CollisionCountsAtRadius(pd_->queries.row(q), radius))
          << "pre-compact q=" << q << " R=" << radius;
    }
  }
  churned->Compact();
  EXPECT_EQ(churned->num_objects(), fresh->num_objects());
  for (size_t q = 0; q < kQueries; ++q) {
    EXPECT_EQ(churned->CollisionCountsAtRadius(pd_->queries.row(q), 1),
              fresh->CollisionCountsAtRadius(pd_->queries.row(q), 1))
        << "post-compact q=" << q;
    auto got = churned->Query(pd_->data, pd_->queries.row(q), kK);
    auto want = fresh->Query(pd_->data, pd_->queries.row(q), kK);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswers(*got, *want, "reinsert-equiv q=" + std::to_string(q));
  }
}

// The disk-mode twin, additionally crossing a reopen so the delete and
// reinsert records flow through WAL replay (ApplyRecord) rather than only
// the live mutation path.
TEST_F(MutateEquivalenceTest, DiskDeleteReinsertSurvivesReplayAndCompact) {
  const C2lshOptions o = Options();
  const std::string path = Path("churn.pf");
  const std::string fresh_path = Path("churn_fresh.pf");
  auto fresh = DiskC2lshIndex::Build(pd_->data, o, fresh_path, 64, true);
  ASSERT_TRUE(fresh.ok());

  {
    auto idx = DiskC2lshIndex::Build(pd_->data, o, path, 64, /*store_vectors=*/true);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    for (size_t i = kA; i < kFull; ++i) {
      ASSERT_TRUE(idx->Delete(static_cast<ObjectId>(i)).ok());
    }
    for (size_t i = kA; i < kFull; ++i) {
      ASSERT_TRUE(
          idx->Insert(static_cast<ObjectId>(i), pd_->data.object(static_cast<ObjectId>(i)))
              .ok());
    }
    // The reinserts lift the tombstones immediately (live mutation path).
    EXPECT_EQ(idx->NumTombstones(), 0u);
    for (size_t q = 0; q < kQueries; ++q) {
      auto got = idx->Query(pd_->queries.row(q), kK);
      auto want = fresh->Query(pd_->queries.row(q), kK);
      ASSERT_TRUE(got.ok() && want.ok());
      ExpectSameAnswers(*got, *want, "disk reinsert overlay q=" + std::to_string(q));
    }
  }

  // Reopen: the whole churn replays from the WAL. A replayed reinsert must
  // be visible exactly once too.
  auto reopened = DiskC2lshIndex::Open(path, 64);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->NumTombstones(), 0u);
  for (size_t q = 0; q < kQueries; ++q) {
    auto got = reopened->Query(pd_->queries.row(q), kK);
    auto want = fresh->Query(pd_->queries.row(q), kK);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswers(*got, *want, "disk reinsert replayed q=" + std::to_string(q));
  }

  // Compact folds the churn; the reinserted ids survive (they are live, not
  // tombstoned) and appear exactly once in the rewritten runs.
  ASSERT_TRUE(reopened->Compact().ok());
  EXPECT_EQ(reopened->OverlayEntries(), 0u);
  EXPECT_EQ(reopened->NumTombstones(), 0u);
  EXPECT_EQ(reopened->num_objects(), kFull);
  for (size_t q = 0; q < kQueries; ++q) {
    auto got = reopened->Query(pd_->queries.row(q), kK);
    auto want = fresh->Query(pd_->queries.row(q), kK);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameAnswers(*got, *want, "disk reinsert compacted q=" + std::to_string(q));
  }
}

// One file, two residencies: a disk index mutated through its WAL and never
// compacted, opened into memory, must equal a fresh in-memory Build over the
// live set — the WAL tail replays into overlays and tombstones, and the
// materialized tables drop exactly what the overlays hide. A trailing delete
// lowers the opened high-water; a delete-then-reinsert of a middle id leaves
// it live once. The same holds once the disk index compacts.
TEST_F(MutateEquivalenceTest, OpenedDiskFileWithWalTailMatchesBuildOverLiveSet) {
  const C2lshOptions o = Options();
  const std::string path = Path("wal_tail.pf");
  constexpr size_t kLive = kFull - 2;  // ids kFull-2 and kFull-1 end deleted
  {
    auto disk = DiskC2lshIndex::Build(*a_, o, path, 64, /*store_vectors=*/false);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    for (size_t i = kA; i < kFull; ++i) {
      ASSERT_TRUE(
          disk->Insert(static_cast<ObjectId>(i), pd_->data.object(static_cast<ObjectId>(i)))
              .ok());
    }
    ASSERT_TRUE(disk->Delete(7).ok());
    ASSERT_TRUE(disk->Insert(7, pd_->data.object(7)).ok());
    ASSERT_TRUE(disk->Delete(static_cast<ObjectId>(kFull - 1)).ok());
    ASSERT_TRUE(disk->Delete(static_cast<ObjectId>(kFull - 2)).ok());
    EXPECT_GT(disk->wal_last_lsn(), disk->applied_lsn());  // a WAL tail, uncompacted
  }

  std::vector<float> live_rows;
  for (size_t i = 0; i < kLive; ++i) {
    const float* v = pd_->data.object(static_cast<ObjectId>(i));
    live_rows.insert(live_rows.end(), v, v + pd_->data.dim());
  }
  auto live_matrix = FloatMatrix::FromVector(kLive, pd_->data.dim(), std::move(live_rows));
  ASSERT_TRUE(live_matrix.ok());
  auto live = Dataset::Create("live", std::move(live_matrix).value());
  ASSERT_TRUE(live.ok());
  auto fresh = C2lshIndex::Build(live.value(), o);
  ASSERT_TRUE(fresh.ok());

  const long long c = static_cast<long long>(o.c);
  auto expect_equal = [&](const C2lshIndex& opened, const std::string& what) {
    EXPECT_EQ(opened.num_objects(), kLive) << what;
    EXPECT_EQ(opened.num_objects(), fresh->num_objects()) << what;
    for (size_t q = 0; q < kQueries; ++q) {
      for (const long long radius : {1ll, c, c * c}) {
        EXPECT_EQ(opened.CollisionCountsAtRadius(pd_->queries.row(q), radius),
                  fresh->CollisionCountsAtRadius(pd_->queries.row(q), radius))
            << what << " q=" << q << " R=" << radius;
      }
      auto got = opened.Query(live.value(), pd_->queries.row(q), kK);
      auto want = fresh->Query(live.value(), pd_->queries.row(q), kK);
      ASSERT_TRUE(got.ok() && want.ok());
      ExpectSameAnswers(*got, *want, what + " q=" + std::to_string(q));
    }
  };

  auto opened = C2lshIndex::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  expect_equal(opened.value(), "wal tail");

  {
    auto disk = DiskC2lshIndex::Open(path, 64);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    ASSERT_TRUE(disk->Compact().ok());
  }
  auto compacted = C2lshIndex::Open(path);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  expect_equal(compacted.value(), "compacted");
}

// The mutability gauges and counters surface through the registry and both
// exporters (the ISSUE's observability satellite).
TEST_F(MutateEquivalenceTest, MutationMetricsSurfaceInExporters) {
  const C2lshOptions o = Options();
  auto idx = C2lshIndex::Build(*a_, o);
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(
      idx->Insert(static_cast<ObjectId>(kA), pd_->data.object(static_cast<ObjectId>(kA)))
          .ok());
  ASSERT_TRUE(idx->Delete(0).ok());
  idx->Compact();

  const std::string disk_path = Path("metrics.pf");
  auto disk = DiskC2lshIndex::Build(*a_, o, disk_path, 64, true);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(
      disk->Insert(static_cast<ObjectId>(kA), pd_->data.object(static_cast<ObjectId>(kA)))
          .ok());
  ASSERT_TRUE(disk->Compact().ok());

  const auto snap = obs::MetricsRegistry::Global().Snapshot();
  const std::string prom = obs::FormatPrometheus(snap);
  ASSERT_TRUE(obs::ValidatePrometheusText(prom).ok());
  const std::string json = obs::FormatJson(snap);
  for (const char* name :
       {"wal_records_appended_total", "wal_replay_applied_total",
        "wal_replay_truncated_total", "c2lsh_overlay_entries", "c2lsh_tombstones",
        "c2lsh_compaction_runs_total", "c2lsh_compaction_millis",
        "disk_c2lsh_overlay_entries", "disk_c2lsh_tombstones",
        "disk_c2lsh_compaction_runs_total", "disk_c2lsh_compaction_millis"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace c2lsh
