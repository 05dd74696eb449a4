#include "src/core/index.h"

#include <algorithm>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "src/baselines/linear_scan.h"
#include "src/vector/ground_truth.h"
#include "src/vector/synthetic.h"

namespace c2lsh {
namespace {

struct TestWorld {
  Dataset data;
  FloatMatrix queries;
  std::vector<NeighborList> gt;
};

TestWorld MakeWorld(size_t n, size_t num_queries, size_t k, uint64_t seed,
                    DatasetProfile profile = DatasetProfile::kColor) {
  auto pd = MakeProfileDataset(profile, n, num_queries, seed);
  EXPECT_TRUE(pd.ok());
  auto gt = ComputeGroundTruth(pd->data, pd->queries, k);
  EXPECT_TRUE(gt.ok());
  return TestWorld{std::move(pd->data), std::move(pd->queries), std::move(gt.value())};
}

C2lshOptions SmallOptions() {
  C2lshOptions o;
  o.w = 1.0;
  o.c = 2.0;
  o.delta = 0.1;
  o.seed = 7;
  return o;
}

TEST(C2lshIndexTest, BuildReportsDerivedParams) {
  TestWorld world = MakeWorld(2000, 4, 10, 1);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_tables(), index->derived().m);
  EXPECT_EQ(index->num_objects(), 2000u);
  EXPECT_GT(index->MemoryBytes(), 0u);
}

TEST(C2lshIndexTest, QueryValidation) {
  TestWorld world = MakeWorld(500, 2, 5, 2);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(
      index->Query(world.data, world.queries.row(0), 0).status().IsInvalidArgument());
}

TEST(C2lshIndexTest, FindsPlantedNearDuplicate) {
  TestWorld world = MakeWorld(3000, 16, 1, 3);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  // Query with data points themselves: the exact NN at distance 0 must be
  // found (a distance-0 point collides in every table at every radius).
  for (size_t i = 0; i < 16; ++i) {
    const ObjectId target = static_cast<ObjectId>(i * 37);
    auto r = index->Query(world.data, world.data.object(target), 1);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 1u);
    EXPECT_EQ((*r)[0].id, target);
    EXPECT_EQ((*r)[0].dist, 0.0f);
  }
}

TEST(C2lshIndexTest, ResultsSortedAndUnique) {
  TestWorld world = MakeWorld(3000, 8, 10, 4);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  for (size_t q = 0; q < world.queries.num_rows(); ++q) {
    auto r = index->Query(world.data, world.queries.row(q), 10);
    ASSERT_TRUE(r.ok());
    std::set<ObjectId> ids;
    for (size_t i = 0; i < r->size(); ++i) {
      ids.insert((*r)[i].id);
      if (i > 0) { EXPECT_LE((*r)[i - 1].dist, (*r)[i].dist); }
    }
    EXPECT_EQ(ids.size(), r->size());  // no duplicates
  }
}

TEST(C2lshIndexTest, ReportedDistancesAreExact) {
  TestWorld world = MakeWorld(1500, 6, 5, 5);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  for (size_t q = 0; q < world.queries.num_rows(); ++q) {
    auto r = index->Query(world.data, world.queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    for (const Neighbor& nb : *r) {
      const double exact =
          L2(world.queries.row(q), world.data.object(nb.id), world.data.dim());
      EXPECT_NEAR(nb.dist, exact, 1e-4);
    }
  }
}

TEST(C2lshIndexTest, HighRecallAtPaperParameters) {
  TestWorld world = MakeWorld(5000, 24, 10, 6);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  double recall_sum = 0.0;
  for (size_t q = 0; q < world.queries.num_rows(); ++q) {
    auto r = index->Query(world.data, world.queries.row(q), 10);
    ASSERT_TRUE(r.ok());
    std::set<ObjectId> truth;
    for (size_t i = 0; i < 10; ++i) truth.insert(world.gt[q][i].id);
    size_t hits = 0;
    for (const Neighbor& nb : *r) hits += truth.count(nb.id);
    recall_sum += static_cast<double>(hits) / 10.0;
  }
  EXPECT_GT(recall_sum / 24.0, 0.6);  // typically ~0.9+; bound is conservative
}

TEST(C2lshIndexTest, C2ApproximationGuaranteeHolds) {
  // The paper's guarantee: returned NN is within c^2 of the exact NN with
  // constant probability. Averaged over queries the ratio must be far below
  // c^2 = 4 and the per-query ratio essentially always below it.
  TestWorld world = MakeWorld(4000, 32, 1, 7);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  size_t violations = 0;
  for (size_t q = 0; q < world.queries.num_rows(); ++q) {
    auto r = index->Query(world.data, world.queries.row(q), 1);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->empty());
    const double exact = world.gt[q][0].dist;
    if (exact > 0 && (*r)[0].dist > 4.0 * exact) ++violations;
  }
  EXPECT_LE(violations, 32u / 4);  // failure prob is ~delta, not 25%
}

TEST(C2lshIndexTest, StatsPopulated) {
  TestWorld world = MakeWorld(2000, 2, 5, 8);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  C2lshQueryStats stats;
  auto r = index->Query(world.data, world.queries.row(0), 5, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.final_radius, 0);
  EXPECT_GT(stats.collision_increments, 0u);
  EXPECT_GT(stats.candidates_verified, 0u);
  EXPECT_GT(stats.index_pages, 0u);
  EXPECT_GT(stats.data_pages, 0u);
  EXPECT_TRUE(stats.termination == Termination::kT1 ||
              stats.termination == Termination::kT2);
  EXPECT_GE(stats.candidates_verified, r->size());
}

TEST(C2lshIndexTest, T2CapsVerifications) {
  // With the default beta = 100/n budget, candidate verifications must stay
  // around k + beta*n + per-round overshoot, far below n.
  TestWorld world = MakeWorld(6000, 8, 10, 9);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  for (size_t q = 0; q < world.queries.num_rows(); ++q) {
    C2lshQueryStats stats;
    auto r = index->Query(world.data, world.queries.row(q), 10, &stats);
    ASSERT_TRUE(r.ok());
    // Budget 10 + 100 plus one round of slack; candidates within a round can
    // overshoot because T2 is checked at round end.
    EXPECT_LT(stats.candidates_verified, 6000u / 2);
  }
}

TEST(C2lshIndexTest, DeterministicAcrossRebuilds) {
  TestWorld world = MakeWorld(1000, 4, 5, 10);
  auto a = C2lshIndex::Build(world.data, SmallOptions());
  auto b = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t q = 0; q < 4; ++q) {
    auto ra = a->Query(world.data, world.queries.row(q), 5);
    auto rb = b->Query(world.data, world.queries.row(q), 5);
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_EQ(ra->size(), rb->size());
    for (size_t i = 0; i < ra->size(); ++i) {
      EXPECT_EQ((*ra)[i].id, (*rb)[i].id);
    }
  }
}

TEST(C2lshIndexTest, RepeatedQueriesGiveSameAnswer) {
  TestWorld world = MakeWorld(1000, 1, 5, 11);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  auto first = index->Query(world.data, world.queries.row(0), 5);
  ASSERT_TRUE(first.ok());
  for (int rep = 0; rep < 5; ++rep) {
    auto again = index->Query(world.data, world.queries.row(0), 5);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->size(), first->size());
    for (size_t i = 0; i < first->size(); ++i) {
      EXPECT_EQ((*again)[i].id, (*first)[i].id);
    }
  }
}

TEST(C2lshIndexTest, DecisionQueryFindsCloseObject) {
  TestWorld world = MakeWorld(2000, 8, 1, 12);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  // At a radius comfortably above the NN distance the decision query must
  // return an object within c*R.
  size_t found = 0;
  for (size_t q = 0; q < 8; ++q) {
    const double nn = world.gt[q][0].dist;
    long long R = 1;
    while (static_cast<double>(R) < nn) R *= 2;
    auto r = index->DecisionQuery(world.data, world.queries.row(q), R);
    if (r.ok()) {
      EXPECT_LE(r->dist, 2.0 * static_cast<double>(R) + 1e-3);
      ++found;
    }
  }
  EXPECT_GE(found, 6u);  // success probability is high, not certain
}

TEST(C2lshIndexTest, DecisionQueryValidation) {
  TestWorld world = MakeWorld(500, 1, 1, 13);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->DecisionQuery(world.data, world.queries.row(0), 0)
                  .status()
                  .IsInvalidArgument());
}

TEST(C2lshIndexTest, KLargerThanNReturnsEverythingEventually) {
  TestWorld world = MakeWorld(200, 1, 1, 14);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  auto r = index->Query(world.data, world.queries.row(0), 500);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 200u);  // full coverage verifies every object
}

TEST(C2lshIndexTest, MatchesLinearScanWhenExhaustive) {
  // Force exhaustion (k = n): C2LSH must equal the exact scan.
  TestWorld world = MakeWorld(300, 4, 1, 15);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  LinearScan scan;
  for (size_t q = 0; q < 4; ++q) {
    auto approx = index->Query(world.data, world.queries.row(q), 300);
    auto exact = scan.Search(world.data, world.queries.row(q), 300);
    ASSERT_TRUE(approx.ok() && exact.ok());
    ASSERT_EQ(approx->size(), exact->size());
    for (size_t i = 0; i < approx->size(); ++i) {
      EXPECT_EQ((*approx)[i].id, (*exact)[i].id) << "q=" << q << " i=" << i;
    }
  }
}

TEST(C2lshIndexTest, IndexStatsConsistent) {
  TestWorld world = MakeWorld(1500, 1, 1, 47);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  const auto stats = index->ComputeStats();
  EXPECT_EQ(stats.num_tables, index->derived().m);
  EXPECT_EQ(stats.entries_per_table, 1500u);
  EXPECT_GE(stats.max_buckets, stats.min_buckets);
  EXPECT_GT(stats.mean_buckets_per_table, 1.0);
  EXPECT_GE(static_cast<double>(stats.max_bucket_size), stats.mean_bucket_size);
  EXPECT_EQ(stats.overlay_entries, 0u);

  // Dynamic inserts show up as overlay pressure until compaction.
  ASSERT_TRUE(index->Insert(1500, world.data.object(0)).ok());
  EXPECT_EQ(index->ComputeStats().overlay_entries, index->derived().m);
  index->Compact();
  EXPECT_EQ(index->ComputeStats().overlay_entries, 0u);
}

TEST(C2lshIndexTest, FilteredQueryExcludesRejectedIds) {
  TestWorld world = MakeWorld(2000, 8, 10, 44);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  // Tenant filter: only even ids are visible.
  auto even_only = [](ObjectId id) { return id % 2 == 0; };
  for (size_t q = 0; q < 8; ++q) {
    auto r = index->FilteredQuery(world.data, world.queries.row(q), 10, even_only);
    ASSERT_TRUE(r.ok());
    for (const Neighbor& nb : *r) {
      EXPECT_EQ(nb.id % 2, 0u);
    }
  }
}

TEST(C2lshIndexTest, FilteredQueryMatchesUnfilteredWhenAllPass) {
  TestWorld world = MakeWorld(1500, 4, 5, 45);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  auto accept_all = [](ObjectId) { return true; };
  for (size_t q = 0; q < 4; ++q) {
    auto plain = index->Query(world.data, world.queries.row(q), 5);
    auto filtered = index->FilteredQuery(world.data, world.queries.row(q), 5, accept_all);
    ASSERT_TRUE(plain.ok() && filtered.ok());
    ASSERT_EQ(filtered->size(), plain->size());
    for (size_t i = 0; i < plain->size(); ++i) {
      EXPECT_EQ((*filtered)[i].id, (*plain)[i].id);
    }
  }
}

TEST(C2lshIndexTest, FilteredQuerySkipsDistanceWorkForRejected) {
  TestWorld world = MakeWorld(2000, 2, 10, 46);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  auto reject_all = [](ObjectId) { return false; };
  C2lshQueryStats stats;
  auto r = index->FilteredQuery(world.data, world.queries.row(0), 10, reject_all, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(stats.candidates_verified, 0u);  // no distances computed
  EXPECT_EQ(stats.data_pages, 0u);
}

TEST(C2lshIndexTest, RangeQueryValidation) {
  TestWorld world = MakeWorld(300, 1, 1, 40);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->RangeQuery(world.data, world.queries.row(0), 0.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(index->RangeQuery(world.data, world.queries.row(0), -1.0)
                  .status()
                  .IsInvalidArgument());
}

TEST(C2lshIndexTest, RangeQueryPrecisionExactAndSorted) {
  TestWorld world = MakeWorld(2000, 8, 1, 41);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  for (size_t q = 0; q < 8; ++q) {
    const double radius = 10.0;
    auto r = index->RangeQuery(world.data, world.queries.row(q), radius);
    ASSERT_TRUE(r.ok());
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_LE((*r)[i].dist, radius);
      if (i > 0) {
        EXPECT_LE((*r)[i - 1].dist, (*r)[i].dist);
      }
    }
  }
}

TEST(C2lshIndexTest, RangeQueryHighRecallAgainstScan) {
  TestWorld world = MakeWorld(3000, 8, 1, 42);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  size_t truth_total = 0;
  size_t hits = 0;
  for (size_t q = 0; q < 8; ++q) {
    const double radius = 12.0;
    auto r = index->RangeQuery(world.data, world.queries.row(q), radius);
    ASSERT_TRUE(r.ok());
    std::set<ObjectId> returned;
    for (const Neighbor& nb : *r) returned.insert(nb.id);
    for (size_t i = 0; i < world.data.size(); ++i) {
      const double d = L2(world.queries.row(q), world.data.object(static_cast<ObjectId>(i)),
                          world.data.dim());
      if (d <= radius) {
        ++truth_total;
        hits += returned.count(static_cast<ObjectId>(i));
      }
    }
  }
  ASSERT_GT(truth_total, 0u);
  // P1 gives per-object recall >= 1 - delta = 0.9.
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(truth_total), 0.8);
}

TEST(C2lshIndexTest, RangeQueryEmptyWhenNothingInRange) {
  TestWorld world = MakeWorld(500, 4, 1, 43);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  // Radius far below the normalized NN distance (~8).
  size_t nonempty = 0;
  for (size_t q = 0; q < 4; ++q) {
    auto r = index->RangeQuery(world.data, world.queries.row(q), 1e-4);
    ASSERT_TRUE(r.ok());
    nonempty += r->empty() ? 0 : 1;
  }
  EXPECT_EQ(nonempty, 0u);
}

// The counting loop against an independent oracle: CollisionCountsAtRadius
// recounts every table's interval at the query's final radius. Intervals
// nest across rounds, so a query that ran its last round to the end has
// counted exactly those collisions, and its candidates are exactly the ids
// whose count reached l. Checked on the flat tables, then again after
// deletes and re-inserts put tombstones and overlay entries in the scans.
TEST(C2lshIndexTest, CountingMatchesCollisionCountOracle) {
  TestWorld world = MakeWorld(2000, 6, 10, 47);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  const uint32_t l = static_cast<uint32_t>(index->derived().l);
  const size_t dim = world.data.dim();
  auto odd_only = [](ObjectId id) { return id % 2 == 1; };

  auto check_all = [&](const char* phase) {
    SCOPED_TRACE(phase);
    for (size_t q = 0; q < world.queries.num_rows(); ++q) {
      SCOPED_TRACE(q);
      const float* query = world.queries.row(q);

      C2lshQueryStats st;
      ASSERT_TRUE(index->Query(world.data, query, 10, &st).ok());
      ASSERT_FALSE(IsEarlyStop(st.termination));
      ASSERT_NE(st.termination, Termination::kNone);
      std::vector<uint32_t> counts = index->CollisionCountsAtRadius(query, st.final_radius);
      uint64_t sum = 0;
      uint64_t frequent = 0;
      for (uint32_t cnt : counts) {
        sum += cnt;
        frequent += cnt >= l ? 1 : 0;
      }
      EXPECT_EQ(st.candidates_verified, frequent);
      EXPECT_EQ(st.collision_increments, sum);

      C2lshQueryStats fst;
      ASSERT_TRUE(index->FilteredQuery(world.data, query, 10, odd_only, &fst).ok());
      ASSERT_FALSE(IsEarlyStop(fst.termination));
      counts = index->CollisionCountsAtRadius(query, fst.final_radius);
      uint64_t accepted = 0;
      for (size_t id = 0; id < counts.size(); ++id) {
        if (counts[id] >= l && odd_only(static_cast<ObjectId>(id))) ++accepted;
      }
      EXPECT_EQ(fst.candidates_verified, accepted);

      const double radius = 10.0;
      C2lshQueryStats rst;
      auto range = index->RangeQuery(world.data, query, radius, &rst);
      ASSERT_TRUE(range.ok());
      counts = index->CollisionCountsAtRadius(query, rst.final_radius);
      NeighborList expected;
      for (size_t id = 0; id < counts.size(); ++id) {
        if (counts[id] < l) continue;
        const double d = L2(query, world.data.object(static_cast<ObjectId>(id)), dim);
        if (d <= radius) {
          expected.push_back(Neighbor{static_cast<ObjectId>(id), static_cast<float>(d)});
        }
      }
      std::sort(expected.begin(), expected.end(), NeighborLess());
      ASSERT_EQ(range->size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ((*range)[i].id, expected[i].id);
        EXPECT_EQ((*range)[i].dist, expected[i].dist);
      }
    }
  };

  check_all("flat tables");
  for (ObjectId id = 0; id < 2000; id += 7) ASSERT_TRUE(index->Delete(id).ok());
  for (ObjectId id = 0; id < 2000; id += 21) {
    ASSERT_TRUE(index->Insert(id, world.data.object(id)).ok());
  }
  check_all("tombstones and overlay");
}

TEST(C2lshIndexTest, InsertedObjectBecomesFindable) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 1000, 1, 16);
  ASSERT_TRUE(pd.ok());
  // Build over the first 900 rows by creating a prefix dataset.
  auto prefix_m = FloatMatrix::Create(900, pd->data.dim());
  ASSERT_TRUE(prefix_m.ok());
  for (size_t i = 0; i < 900; ++i) {
    std::copy(pd->data.object(static_cast<ObjectId>(i)),
              pd->data.object(static_cast<ObjectId>(i)) + pd->data.dim(),
              prefix_m->mutable_row(i));
  }
  auto prefix = Dataset::Create("prefix", std::move(prefix_m.value()));
  ASSERT_TRUE(prefix.ok());

  auto index = C2lshIndex::Build(prefix.value(), SmallOptions());
  ASSERT_TRUE(index.ok());
  // Insert rows 900..999.
  for (ObjectId id = 900; id < 1000; ++id) {
    ASSERT_TRUE(index->Insert(id, pd->data.object(id)).ok());
  }
  EXPECT_EQ(index->num_objects(), 1000u);
  // Query with an inserted vector: it must come back at distance 0.
  auto r = index->Query(pd->data, pd->data.object(950), 1);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].id, 950u);
  EXPECT_EQ((*r)[0].dist, 0.0f);
}

TEST(C2lshIndexTest, DeletedObjectDisappears) {
  TestWorld world = MakeWorld(800, 1, 1, 17);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  const ObjectId victim = 123;
  // Before: querying the victim's own vector returns it.
  auto before = index->Query(world.data, world.data.object(victim), 1);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)[0].id, victim);

  ASSERT_TRUE(index->Delete(victim).ok());
  auto after = index->Query(world.data, world.data.object(victim), 1);
  ASSERT_TRUE(after.ok());
  ASSERT_FALSE(after->empty());
  EXPECT_NE((*after)[0].id, victim);
}

TEST(C2lshIndexTest, DeleteUnknownIdRejected) {
  TestWorld world = MakeWorld(100, 1, 1, 18);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->Delete(5000).IsNotFound());
}

TEST(C2lshIndexTest, CompactPreservesAnswers) {
  TestWorld world = MakeWorld(800, 4, 5, 19);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Delete(7).ok());
  ASSERT_TRUE(index->Delete(11).ok());

  std::vector<NeighborList> before;
  for (size_t q = 0; q < 4; ++q) {
    auto r = index->Query(world.data, world.queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    before.push_back(std::move(r).value());
  }
  index->Compact();
  for (size_t q = 0; q < 4; ++q) {
    auto r = index->Query(world.data, world.queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), before[q].size());
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*r)[i].id, before[q][i].id);
    }
  }
}

TEST(C2lshIndexTest, MismatchedDatasetRejected) {
  TestWorld world = MakeWorld(500, 1, 1, 20);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  auto other = MakeProfileDataset(DatasetProfile::kMnist, 500, 1, 21);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(index->Query(other->data, world.queries.row(0), 1)
                  .status()
                  .IsInvalidArgument());  // dim mismatch
}

TEST(C2lshIndexTest, SmallerDatasetThanIndexRejected) {
  TestWorld world = MakeWorld(500, 1, 1, 22);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  auto tiny = MakeProfileDataset(DatasetProfile::kColor, 100, 1, 23);
  ASSERT_TRUE(tiny.ok());
  EXPECT_TRUE(index->Query(tiny->data, world.queries.row(0), 1)
                  .status()
                  .IsInvalidArgument());
}

TEST(C2lshIndexTest, DecisionQueryRejectsDatasetOneRowShort) {
  TestWorld world = MakeWorld(500, 1, 1, 24);
  auto index = C2lshIndex::Build(world.data, SmallOptions());
  ASSERT_TRUE(index.ok());
  const size_t rows = world.data.size() - 1;
  auto vectors = FloatMatrix::Create(rows, world.data.dim());
  ASSERT_TRUE(vectors.ok());
  for (size_t i = 0; i < rows; ++i) {
    std::memcpy(vectors->mutable_row(i), world.data.object(i),
                world.data.dim() * sizeof(float));
  }
  auto short_data = Dataset::Create("one_row_short", std::move(vectors).value());
  ASSERT_TRUE(short_data.ok());
  // A radius wide enough that every id, the missing last row included, is
  // frequent: without the size check the round would read past the dataset.
  EXPECT_TRUE(index->DecisionQuery(*short_data, world.queries.row(0), 1LL << 20)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace c2lsh
