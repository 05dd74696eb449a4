// Virtual rehashing: mapping base buckets to level-R buckets without
// rebuilding anything.
//
// A base function hashes to h(o) = floor((a.o + b)/w). For an integer radius
// R, the level-R hash is h^R(o) = floor(h(o) / R) — exact by the nested-floor
// identity floor(floor(x/w) / R) = floor(x / (wR)) — so the level-R bucket of
// a query is the run of R consecutive base buckets
//
//     [ t*R , t*R + R - 1 ],   t = floor(h(q) / R).
//
// Because R grows by integer factors c, level intervals are *nested* across
// rounds, which is what makes C2LSH's incremental collision counting exact:
// a round at radius R only has to count the base buckets newly uncovered on
// each side of the previous round's interval.
//
// Fidelity note: with b drawn from [0, w), the level-R grid offset is uniform
// only modulo w rather than modulo wR; this matches the authors' released
// implementation, and the paper's analysis treats h^R as (R, cR, p1, p2)-
// sensitive under exactly this construction.

#pragma once
#ifndef C2LSH_CORE_VIRTUAL_REHASH_H_
#define C2LSH_CORE_VIRTUAL_REHASH_H_

#include <cmath>
#include <limits>

#include "src/storage/bucket_table.h"
#include "src/util/math.h"

namespace c2lsh {

/// An inclusive range of base bucket ids.
struct BucketRange {
  BucketId lo = 0;
  BucketId hi = -1;  // default-constructed range is empty

  bool empty() const { return lo > hi; }
  long long width() const { return empty() ? 0 : hi - lo + 1; }

  bool Contains(const BucketRange& inner) const {
    return inner.empty() || (lo <= inner.lo && inner.hi <= hi);
  }

  friend bool operator==(const BucketRange& a, const BucketRange& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// Level-R bucket id of a base bucket.
inline BucketId LevelBucket(BucketId base, long long R) { return FloorDiv(base, R); }

/// The run of base buckets forming the query's level-R bucket.
inline BucketRange QueryIntervalAtRadius(BucketId query_base_bucket, long long R) {
  const BucketId t = LevelBucket(query_base_bucket, R);
  return BucketRange{t * R, t * R + R - 1};
}

/// The last radius of the schedule, c^max_radius_exponent (c rounded to an
/// integer, as the nested level intervals require). Offsets are drawn over
/// w * RadiusCap(...), and a round past it probes the whole table.
inline long long RadiusCap(double c, int max_radius_exponent) {
  const long long c_int = static_cast<long long>(std::llround(c));
  long long cap = 1;
  for (int i = 0; i < max_radius_exponent; ++i) cap *= c_int;
  return cap;
}

/// The probe interval at radius R, falling back to a full-table range once R
/// exceeds `radius_cap`: past the radius schedule the offsets no longer
/// randomize the grid anchor, so the round probes everything, raising every
/// object's count to m and terminating the query. Every query loop (serial,
/// batched, disk) takes its intervals from here, which is what keeps their
/// answers bitwise equal.
inline BucketRange QueryIntervalAtRadiusCapped(BucketId query_base_bucket, long long R,
                                               long long radius_cap) {
  if (R > radius_cap) {
    constexpr BucketId kLo = std::numeric_limits<BucketId>::min() / 4;
    constexpr BucketId kHi = std::numeric_limits<BucketId>::max() / 4;
    return BucketRange{kLo, kHi};
  }
  return QueryIntervalAtRadius(query_base_bucket, R);
}

/// The two side-ranges uncovered when the interval grows from `prev` to
/// `next` (both centered on the same query bucket, `next` containing `prev`).
struct RangeDelta {
  BucketRange left;   // [next.lo, prev.lo - 1], possibly empty
  BucketRange right;  // [prev.hi + 1, next.hi], possibly empty
};

inline RangeDelta ComputeRangeDelta(const BucketRange& prev, const BucketRange& next) {
  RangeDelta d;
  if (prev.empty()) {
    d.left = next;
    d.right = BucketRange{};  // everything is "left"; right stays empty
    return d;
  }
  d.left = BucketRange{next.lo, prev.lo - 1};
  d.right = BucketRange{prev.hi + 1, next.hi};
  return d;
}

}  // namespace c2lsh

#endif  // C2LSH_CORE_VIRTUAL_REHASH_H_
