#include <gtest/gtest.h>

#include "core/global_checkpoint.hpp"
#include "core/rdt_checker.hpp"
#include "core/tdv.hpp"
#include "fixtures.hpp"
#include "recovery/domino.hpp"
#include "util/rng.hpp"

namespace rdt {
namespace {

using test::Figure1;

TEST(MinMax, TopAndBottomAreConsistent) {
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 80);
    EXPECT_TRUE(consistent(p, bottom_global_ckpt(p)));
    EXPECT_TRUE(consistent(p, top_global_ckpt(p)));
  }
}

TEST(MinMax, MinGeqReturnsLeastConsistentAbove) {
  Rng rng(2);
  for (int round = 0; round < 20; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 50);
    GlobalCkpt lower;
    for (ProcessId i = 0; i < p.num_processes(); ++i)
      lower.indices.push_back(static_cast<CkptIndex>(
          rng.below(static_cast<std::uint64_t>(p.last_ckpt(i) + 1))));
    const GlobalCkpt g = min_consistent_geq(p, lower);
    EXPECT_TRUE(consistent(p, g));
    EXPECT_TRUE(leq(lower, g));
    // Least: no consistent global checkpoint >= lower is strictly below g
    // in any component — check via exhaustive enumeration.
    GlobalCkpt cur = lower;
    while (true) {
      if (consistent(p, cur)) {
        EXPECT_TRUE(leq(g, cur)) << "g=" << g << " cur=" << cur;
      }
      ProcessId i = 0;
      for (; i < p.num_processes(); ++i) {
        auto& x = cur.indices[static_cast<std::size_t>(i)];
        if (x < p.last_ckpt(i)) {
          ++x;
          break;
        }
        x = lower.indices[static_cast<std::size_t>(i)];
      }
      if (i == p.num_processes()) break;
    }
  }
}

TEST(MinMax, MaxLeqIsGreatestConsistentBelow) {
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 50);
    GlobalCkpt upper;
    for (ProcessId i = 0; i < p.num_processes(); ++i)
      upper.indices.push_back(static_cast<CkptIndex>(
          rng.below(static_cast<std::uint64_t>(p.last_ckpt(i) + 1))));
    const GlobalCkpt g = max_consistent_leq(p, upper);
    EXPECT_TRUE(consistent(p, g));
    EXPECT_TRUE(leq(g, upper));
    GlobalCkpt cur = bottom_global_ckpt(p);
    while (true) {
      if (consistent(p, cur) && leq(cur, upper)) {
        EXPECT_TRUE(leq(cur, g)) << "g=" << g << " cur=" << cur;
      }
      ProcessId i = 0;
      for (; i < p.num_processes(); ++i) {
        auto& x = cur.indices[static_cast<std::size_t>(i)];
        if (x < upper.indices[static_cast<std::size_t>(i)]) {
          ++x;
          break;
        }
        x = 0;
      }
      if (i == p.num_processes()) break;
    }
  }
}

TEST(Containing, MatchesBruteForce) {
  Rng rng(4);
  for (int round = 0; round < 25; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 40);
    for (ProcessId i = 0; i < p.num_processes(); ++i)
      for (CkptIndex x = 0; x <= p.last_ckpt(i); ++x) {
        const std::vector<CkptId> pins{{i, x}};
        EXPECT_EQ(min_consistent_containing(p, pins),
                  brute_force_min_consistent_containing(p, pins))
            << "pin C(" << i << ',' << x << ") round " << round;
      }
  }
}

TEST(Containing, TwoPins) {
  Rng rng(5);
  for (int round = 0; round < 15; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 40);
    for (CkptIndex a = 0; a <= p.last_ckpt(0); ++a)
      for (CkptIndex b = 0; b <= p.last_ckpt(1); ++b) {
        const std::vector<CkptId> pins{{0, a}, {1, b}};
        EXPECT_EQ(min_consistent_containing(p, pins),
                  brute_force_min_consistent_containing(p, pins));
      }
  }
}

TEST(Containing, PinnedComponentsAreHonoured) {
  const auto f = test::figure1();
  const std::vector<CkptId> pins{{Figure1::j, 2}};
  const auto g = min_consistent_containing(f.pattern, pins);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->indices[Figure1::j], 2);
  EXPECT_TRUE(consistent(f.pattern, *g));
  // Figure 1: the minimum consistent global checkpoint containing C_j2 is
  // {C_i3, C_j2, C_k1} — exactly TDV_{j,2}.
  EXPECT_EQ(*g, (GlobalCkpt{{3, 2, 1}}));
}

TEST(Containing, RejectsDuplicatePins) {
  const auto f = test::figure1();
  const std::vector<CkptId> pins{{0, 1}, {0, 2}};
  EXPECT_THROW(min_consistent_containing(f.pattern, pins),
               std::invalid_argument);
}

TEST(Containing, UnsatisfiablePinsReturnNullopt) {
  // In the domino pattern, C_{0,r} and C_{1,r} cannot coexist.
  const Pattern p = domino_pattern(3);
  const std::vector<CkptId> pins{{0, 2}, {1, 2}};
  EXPECT_EQ(min_consistent_containing(p, pins), std::nullopt);
  EXPECT_EQ(max_consistent_containing(p, pins), std::nullopt);
  EXPECT_EQ(brute_force_min_consistent_containing(p, pins), std::nullopt);
}

TEST(Containing, MaxContainingIsConsistentAndPinned) {
  Rng rng(6);
  for (int round = 0; round < 20; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 40);
    for (ProcessId i = 0; i < p.num_processes(); ++i)
      for (CkptIndex x = 0; x <= p.last_ckpt(i); ++x) {
        const std::vector<CkptId> pins{{i, x}};
        const auto g = max_consistent_containing(p, pins);
        const auto m = min_consistent_containing(p, pins);
        // Both exist or neither (same membership condition).
        EXPECT_EQ(g.has_value(), m.has_value());
        if (g) {
          EXPECT_TRUE(consistent(p, *g));
          EXPECT_EQ(g->indices[static_cast<std::size_t>(i)], x);
          EXPECT_TRUE(leq(*m, *g));
        }
      }
  }
}

// Both worklist fixpoints against exhaustive search on random patterns of
// four processes: every global checkpoint of the lattice is enumerated,
// and the least / greatest consistent ones honouring the pins (or none)
// must be what the containing variants return. Random pin sets of one to
// three processes include many unsatisfiable ones (zigzag paths between
// pins), where both fixpoints must fail.
TEST(Containing, BothFixpointsMatchExhaustiveSearch) {
  Rng rng(8);
  int satisfiable = 0;
  int unsatisfiable = 0;
  for (int round = 0; round < 40; ++round) {
    const Pattern p = test::random_pattern(rng, 4, 36);
    std::vector<GlobalCkpt> lattice;  // every consistent global checkpoint
    GlobalCkpt cur = bottom_global_ckpt(p);
    while (true) {
      if (consistent(p, cur)) lattice.push_back(cur);
      ProcessId i = 0;
      for (; i < p.num_processes(); ++i) {
        auto& x = cur.indices[static_cast<std::size_t>(i)];
        if (x < p.last_ckpt(i)) {
          ++x;
          break;
        }
        x = 0;
      }
      if (i == p.num_processes()) break;
    }
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<CkptId> pins;
      for (ProcessId i = 0; i < p.num_processes(); ++i)
        if (rng.uniform() < 0.5 && pins.size() < 3)
          pins.push_back({i, static_cast<CkptIndex>(rng.below(
                                 static_cast<std::uint64_t>(p.last_ckpt(i) + 1)))});
      std::optional<GlobalCkpt> least;
      std::optional<GlobalCkpt> greatest;
      for (const GlobalCkpt& g : lattice) {
        bool honours = true;
        for (const CkptId& c : pins)
          honours = honours && g.indices[static_cast<std::size_t>(c.process)] == c.index;
        if (!honours) continue;
        least = least ? componentwise_min(*least, g) : g;
        greatest = greatest ? componentwise_max(*greatest, g) : g;
      }
      (least ? satisfiable : unsatisfiable) += 1;
      EXPECT_EQ(min_consistent_containing(p, pins), least) << "round " << round;
      EXPECT_EQ(max_consistent_containing(p, pins), greatest) << "round " << round;
      EXPECT_EQ(brute_force_min_consistent_containing(p, pins), least);
    }
    // The unpinned duals from a random bound.
    GlobalCkpt bound;
    for (ProcessId i = 0; i < p.num_processes(); ++i)
      bound.indices.push_back(static_cast<CkptIndex>(
          rng.below(static_cast<std::uint64_t>(p.last_ckpt(i) + 1))));
    std::optional<GlobalCkpt> above;
    std::optional<GlobalCkpt> below;
    for (const GlobalCkpt& g : lattice) {
      if (leq(bound, g)) above = above ? componentwise_min(*above, g) : g;
      if (leq(g, bound)) below = below ? componentwise_max(*below, g) : g;
    }
    EXPECT_EQ(min_consistent_geq(p, bound), above);
    EXPECT_EQ(max_consistent_leq(p, bound), below);
  }
  EXPECT_GT(satisfiable, 100);
  EXPECT_GT(unsatisfiable, 20);
}

TEST(Corollary45, TdvIsMinContainingUnderRdt) {
  // On RDT patterns, the TDV saved at a checkpoint IS the minimum
  // consistent global checkpoint containing it (the paper's Corollary 4.5).
  Rng rng(7);
  int rdt_patterns = 0;
  for (int round = 0; round < 200 && rdt_patterns < 12; ++round) {
    const Pattern p = test::random_pattern(rng, 3, 50);
    if (!satisfies_rdt(p)) continue;
    ++rdt_patterns;
    const TdvAnalysis tdv(p);
    for (ProcessId i = 0; i < p.num_processes(); ++i)
      for (CkptIndex x = 0; x <= p.last_ckpt(i); ++x) {
        const std::vector<CkptId> pins{{i, x}};
        const auto offline = min_consistent_containing(p, pins);
        ASSERT_TRUE(offline.has_value());
        EXPECT_EQ(tdv.min_global_ckpt({i, x}), *offline)
            << "C(" << i << ',' << x << ")";
      }
  }
  EXPECT_GE(rdt_patterns, 12);
}

TEST(Corollary45, CanFailWithoutRdt) {
  // Figure 1 violates RDT through the hidden dependency C_k1 -> C_i2, and
  // exactly there Corollary 4.5 breaks: TDV_{i,2} misses the dependency on
  // C_k1... yet the minimum consistent global checkpoint containing C_i2
  // must account for it.
  const auto f = test::figure1();
  const TdvAnalysis tdv(f.pattern);
  const std::vector<CkptId> pins{{Figure1::i, 2}};
  const auto offline = min_consistent_containing(f.pattern, pins);
  ASSERT_TRUE(offline.has_value());
  // The TDV claims {C_i2, C_j1, C_k0} suffices — but that set is not even
  // consistent (m3 is orphaned against C_k0/C_j1): the hidden dependency on
  // C_k1 is exactly what the vector cannot see.
  const GlobalCkpt claimed = tdv.min_global_ckpt({Figure1::i, 2});
  EXPECT_EQ(claimed, (GlobalCkpt{{2, 1, 0}}));
  EXPECT_FALSE(consistent(f.pattern, claimed));
  // The true minimum includes C_k1.
  EXPECT_EQ(*offline, (GlobalCkpt{{2, 1, 1}}));
}

}  // namespace
}  // namespace rdt
