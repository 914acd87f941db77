// Tests for the N-terminal contact layer: ContactSet geometry/routing
// helpers, the lead content hash, and the per-contact partitioning of the
// BoundaryCache (dissimilar leads must cache independently).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/matrix.hpp"
#include "obc/boundary_cache.hpp"
#include "transport/contacts.hpp"
#include "transport/transmission.hpp"

namespace df = omenx::dft;
namespace nm = omenx::numeric;
namespace ob = omenx::obc;
namespace tr = omenx::transport;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

df::LeadBlocks chain_lead(double t = -1.0, double onsite = 0.0) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  lead.h[0] = CMatrix{{cplx{onsite}}};
  lead.h[1] = CMatrix{{cplx{t}}};
  lead.s[0] = CMatrix::identity(1);
  lead.s[1] = CMatrix(1, 1);
  return lead;
}

}  // namespace

TEST(ContactSet, PairFactoryIsTheClassicLayout) {
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  const auto set = tr::ContactSet::pair(lead, folded, 0.1, -0.1);
  ASSERT_EQ(set.size(), 2);
  EXPECT_TRUE(set.classic_pair(5));
  EXPECT_EQ(set.left(5), 0);
  EXPECT_EQ(set.right(5), 1);
  EXPECT_EQ(set.resolve_block(0, 5), 0);
  EXPECT_EQ(set.resolve_block(1, 5), 4);  // kLastBlock resolves to nb - 1
  EXPECT_DOUBLE_EQ(set[0].mu, 0.1);
  EXPECT_DOUBLE_EQ(set[1].mu, -0.1);
  // One lead serves both ends: the contacts share boundary data, so the
  // right contact caches under the left contact's canonical id.
  EXPECT_TRUE(set.same_boundary(0, 1));
  EXPECT_EQ(set.representative(0), 0);
  EXPECT_EQ(set.representative(1), 0);
  EXPECT_NO_THROW(set.validate(5));
}

TEST(ContactSet, ReversedPairNormalizesLeftRight) {
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  std::vector<tr::Contact> cs(2);
  cs[0].lead = &lead;
  cs[0].folded = &folded;
  cs[0].block = tr::kLastBlock;
  cs[1].lead = &lead;
  cs[1].folded = &folded;
  cs[1].block = 0;
  const tr::ContactSet set(std::move(cs));
  EXPECT_TRUE(set.classic_pair(4));
  EXPECT_EQ(set.left(4), 1);
  EXPECT_EQ(set.right(4), 0);
}

TEST(ContactSet, ValidateRejectsBadLayouts) {
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  // Fewer than two terminals.
  {
    std::vector<tr::Contact> cs(1);
    cs[0].lead = &lead;
    cs[0].folded = &folded;
    cs[0].block = 0;
    EXPECT_THROW(tr::ContactSet(std::move(cs)).validate(4),
                 std::invalid_argument);
  }
  // Duplicate attachment blocks (kLastBlock aliases nb - 1).
  {
    std::vector<tr::Contact> cs(2);
    for (auto& c : cs) {
      c.lead = &lead;
      c.folded = &folded;
    }
    cs[0].block = 3;
    cs[1].block = tr::kLastBlock;
    EXPECT_THROW(tr::ContactSet(std::move(cs)).validate(4),
                 std::invalid_argument);
  }
  // Out-of-range block.
  {
    std::vector<tr::Contact> cs(2);
    for (auto& c : cs) {
      c.lead = &lead;
      c.folded = &folded;
    }
    cs[0].block = 0;
    cs[1].block = 9;
    EXPECT_THROW(tr::ContactSet(std::move(cs)).validate(4),
                 std::invalid_argument);
  }
  // Null lead.
  {
    std::vector<tr::Contact> cs(2);
    cs[0].lead = &lead;
    cs[0].folded = &folded;
    cs[0].block = 0;
    cs[1].block = tr::kLastBlock;
    EXPECT_THROW(tr::ContactSet(std::move(cs)).validate(4),
                 std::invalid_argument);
  }
}

TEST(ContactSet, DissimilarContactsGetDistinctRepresentatives) {
  const auto lead_a = chain_lead(-1.0);
  const auto lead_b = chain_lead(-1.4);
  const auto folded_a = df::fold_lead(lead_a);
  const auto folded_b = df::fold_lead(lead_b);
  std::vector<tr::Contact> cs(3);
  cs[0].lead = &lead_a;
  cs[0].folded = &folded_a;
  cs[0].block = 0;
  cs[1].lead = &lead_b;
  cs[1].folded = &folded_b;
  cs[1].block = 1;
  cs[2].lead = &lead_a;
  cs[2].folded = &folded_a;
  cs[2].block = tr::kLastBlock;
  const tr::ContactSet set(std::move(cs));
  EXPECT_FALSE(set.classic_pair(4));
  EXPECT_FALSE(set.same_boundary(0, 1));
  EXPECT_TRUE(set.same_boundary(0, 2));
  EXPECT_EQ(set.representative(1), 1);
  EXPECT_EQ(set.representative(2), 0);
  // A per-contact shift splits otherwise identical contacts: the boundary
  // at energy E depends on the shift.
  auto shifted = set.contacts();
  shifted[2].shift = 0.2;
  const tr::ContactSet split(std::move(shifted));
  EXPECT_FALSE(split.same_boundary(0, 2));
  EXPECT_EQ(split.representative(2), 2);
}

TEST(ContactSet, LeadContentHashTracksTheMatrixBits) {
  const auto lead = chain_lead(-1.0, 0.2);
  auto copy = lead;
  EXPECT_EQ(tr::lead_content_hash(lead), tr::lead_content_hash(copy));
  copy.h[1](0, 0) += cplx{1e-15};  // any bit change must re-key the cache
  EXPECT_NE(tr::lead_content_hash(lead), tr::lead_content_hash(copy));
  EXPECT_NE(tr::lead_content_hash(lead),
            tr::lead_content_hash(chain_lead(-1.2, 0.2)));
}

TEST(BoundaryCache, ContactsPartitionTheKeySpace) {
  ob::BoundaryCache cache;
  ob::Boundary bnd;
  bnd.sigma_l = CMatrix::identity(1);
  ob::BoundaryKey key0{/*k=*/0, /*energy=*/0.5, /*contact_shift=*/0.0,
                       /*algorithm=*/1};
  ob::BoundaryKey key1 = key0;
  key1.contact = 1;
  key1.lead_hash = 77;
  // Same (k, E, shift, algorithm) under different contact ids are distinct
  // entries.
  EXPECT_EQ(cache.find(key0), nullptr);
  cache.insert(key0, bnd);
  EXPECT_EQ(cache.find(key1), nullptr);
  cache.insert(key1, bnd);
  EXPECT_NE(cache.find(key0), nullptr);
  EXPECT_NE(cache.find(key1), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  // Per-contact counters saw exactly their own traffic.
  const auto s0 = cache.contact_stats(0);
  const auto s1 = cache.contact_stats(1);
  EXPECT_EQ(s0.hits, 1u);
  EXPECT_EQ(s0.misses, 1u);
  EXPECT_EQ(s1.hits, 1u);
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(cache.contacts_seen(), (std::vector<int>{0, 1}));
}

TEST(BoundaryCache, LeadHashKeysDissimilarMaterials) {
  // A swapped lead material under a *reused* contact id must still miss:
  // the content hash is part of the key.
  ob::BoundaryCache cache;
  ob::Boundary bnd;
  ob::BoundaryKey a{/*k=*/0, /*energy=*/1.0, /*contact_shift=*/0.0,
                    /*algorithm=*/0};
  a.contact = 1;
  a.lead_hash = tr::lead_content_hash(chain_lead(-1.0));
  ob::BoundaryKey b = a;
  b.lead_hash = tr::lead_content_hash(chain_lead(-1.3));
  cache.insert(a, bnd);
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_EQ(cache.find(b), nullptr);
}

// ----------------------------------------- Buettiker current edge cases --

namespace {

// Constant-in-energy pairwise table replicated over `ne` energies.
std::vector<std::vector<double>> constant_table(std::size_t ne,
                                                std::vector<double> t) {
  return std::vector<std::vector<double>>(ne, std::move(t));
}

}  // namespace

TEST(ButtikerCurrents, AllZeroTransmissionYieldsExactZeros) {
  // A terminal with every T_pq == 0 (all rows *and* columns) carries
  // exactly zero current — not a rounding-sized residue — because every
  // accumulated product has a literal 0.0 factor.  And with the whole
  // table zero, every terminal's current is exactly 0.0 whatever the bias.
  const std::vector<double> energies{-0.5, 0.0, 0.5, 1.0};
  const auto t = constant_table(energies.size(),
                                {0.0, 0.0, 0.0,  //
                                 0.0, 0.0, 0.7,  //
                                 0.0, 0.7, 0.0});
  const auto currents = tr::buttiker_currents(
      energies, t, {0.3, 0.1, -0.2}, 0.025);
  ASSERT_EQ(currents.size(), 3u);
  EXPECT_EQ(currents[0], 0.0);  // decoupled terminal: exact zero
  EXPECT_NE(currents[1], 0.0);  // the coupled pair still conducts
  EXPECT_EQ(currents[1], -currents[2]);

  const auto dead = tr::buttiker_currents(
      energies, constant_table(energies.size(), std::vector<double>(9, 0.0)),
      {0.3, 0.1, -0.2}, 0.025);
  for (const double i : dead) EXPECT_EQ(i, 0.0);
}

TEST(ButtikerCurrents, TwoTerminalDegeneratesToLandauer) {
  // For nc = 2 with a symmetric table the Buettiker sum reduces to the
  // Landauer integral term by term: EXPECT_EQ, not a tolerance.
  std::vector<double> energies;
  std::vector<std::vector<double>> table;
  for (double e = -1.0; e <= 1.0; e += 0.05) {
    energies.push_back(e);
    const double t = 0.8 / (1.0 + e * e);  // smooth Lorentzian-ish T(E)
    table.push_back({0.0, t, t, 0.0});
  }
  std::vector<double> transmission;
  for (const auto& row : table) transmission.push_back(row[1]);

  const double mu_l = 0.22, mu_r = -0.13, kt = 0.025;
  const double landauer =
      tr::landauer_current(energies, transmission, mu_l, mu_r, kt);
  const auto currents =
      tr::buttiker_currents(energies, table, {mu_l, mu_r}, kt);
  ASSERT_EQ(currents.size(), 2u);
  EXPECT_EQ(currents[0], landauer);
  EXPECT_EQ(currents[1], -landauer);
}

TEST(ButtikerCurrents, EquivariantUnderContactPermutation) {
  // Relabeling the terminals permutes the currents — no hidden dependence
  // on terminal order — and each current flips sign when the bias table is
  // transposed (reciprocal T) with the potentials negated.
  const std::vector<double> energies{-0.4, 0.0, 0.4};
  const std::vector<double> t{0.0, 0.6, 0.2,  //
                              0.6, 0.0, 0.4,  //
                              0.2, 0.4, 0.0};
  const std::vector<double> mu{0.2, 0.05, -0.15};
  const double kt = 0.025;
  const auto base =
      tr::buttiker_currents(energies, constant_table(3, t), mu, kt);

  // Cyclic permutation p -> (p + 1) % 3 of the labels.
  const std::size_t perm[3] = {1, 2, 0};
  std::vector<double> t_perm(9, 0.0), mu_perm(3, 0.0);
  for (std::size_t p = 0; p < 3; ++p) {
    mu_perm[perm[p]] = mu[p];
    for (std::size_t q = 0; q < 3; ++q)
      t_perm[perm[p] * 3 + perm[q]] = t[p * 3 + q];
  }
  const auto permuted = tr::buttiker_currents(
      energies, constant_table(3, t_perm), mu_perm, kt);
  // To rounding, not bitwise: relabeling reorders the q-accumulation.
  for (std::size_t p = 0; p < 3; ++p)
    EXPECT_NEAR(permuted[perm[p]], base[p], 1e-14) << "terminal " << p;

  // Antisymmetry under bias reversal: on a symmetric energy grid with an
  // energy-independent symmetric table, f(E, -mu) = 1 - f(-E, mu) mirrors
  // every Fermi difference, so negating all potentials reverses every
  // current (to rounding — the trapezoid visits the mirrored points in the
  // opposite order).
  const auto reversed = tr::buttiker_currents(
      energies, constant_table(3, t), {-mu[0], -mu[1], -mu[2]}, kt);
  for (std::size_t p = 0; p < 3; ++p)
    EXPECT_NEAR(reversed[p], -base[p], 1e-12) << "terminal " << p;
}
