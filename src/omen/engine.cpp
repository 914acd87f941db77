#include "omen/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "numeric/backend.hpp"
#include "numeric/device_backend.hpp"
#include "omen/scheduler.hpp"
#include "parallel/comm.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/machine.hpp"
#include "solvers/solver.hpp"
#include "solvers/spike.hpp"
#include "transport/batch.hpp"

namespace omenx::omen {

namespace {

using parallel::Comm;

// Engine protocol tags (user tag space).  All queue traffic converges on
// the coordinator through kTagRequest with an any-source recv; requesters
// are identified by Comm::Status, not by per-rank magic tags.
constexpr int kTagRequest = 901;  ///< {kind, arg}: kind 0 = task (arg =
                                  ///< color), kind 1 = fetch (arg = k)
constexpr int kTagAssign = 902;   ///< {ik, ie, stolen}; ik < 0 means done
constexpr int kTagBlocks = 903;   ///< lead-block streams (init + fetch)

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Momentum-level rank layout, computed identically on every rank: which
/// world ranks form which k group, and which k points each group owns.
struct Layout {
  int world = 1;
  int width = 1;  ///< energy-group width (ranks per energy group)
  int num_groups = 1;
  int num_leaders = 0;
  std::vector<int> color_of_rank;
  std::vector<int> group_first_rank;
  std::vector<int> group_size;
  std::vector<std::vector<idx>> owned;  ///< k points per color
  std::vector<idx> e_prefix;            ///< flat-task-index base per k
  /// Real-axis task count per k: within a k's flat range, local indices
  /// ie < n_real[k] are wave-function energy points and ie >= n_real[k]
  /// are Green's-function contour nodes (node index ie - n_real[k]).
  std::vector<idx> n_real;
  idx total_tasks = 0;

  Layout(const SweepRequest& req, int world_size, int width_in)
      : world(world_size), width(std::max(1, width_in)) {
    const int nk = static_cast<int>(req.energies.size());
    e_prefix.assign(static_cast<std::size_t>(nk) + 1, 0);
    n_real.assign(static_cast<std::size_t>(nk), 0);
    std::vector<idx> counts(static_cast<std::size_t>(nk), 0);
    for (int k = 0; k < nk; ++k) {
      const auto sk = static_cast<std::size_t>(k);
      n_real[sk] = static_cast<idx>(req.energies[sk].size());
      counts[sk] = n_real[sk];
      if (!req.gf_nodes.empty())
        counts[sk] += static_cast<idx>(req.gf_nodes[sk].size());
      e_prefix[sk + 1] = e_prefix[sk] + counts[sk];
    }
    total_tasks = e_prefix.back();

    color_of_rank.assign(static_cast<std::size_t>(world), 0);
    if (world >= nk) {
      // One momentum group per k point, sized by the dynamic allocation.
      num_groups = nk;
      const auto per_k = allocate_groups(counts, world);
      owned.resize(static_cast<std::size_t>(nk));
      int r = 0;
      for (int c = 0; c < nk; ++c) {
        group_first_rank.push_back(r);
        group_size.push_back(per_k[static_cast<std::size_t>(c)]);
        owned[static_cast<std::size_t>(c)] = {static_cast<idx>(c)};
        for (int i = 0; i < per_k[static_cast<std::size_t>(c)]; ++i)
          color_of_rank[static_cast<std::size_t>(r++)] = c;
      }
    } else {
      // Fewer ranks than k points: every rank is a group owning a round-
      // robin share of the momenta.
      num_groups = world;
      owned.resize(static_cast<std::size_t>(world));
      for (int r = 0; r < world; ++r) {
        color_of_rank[static_cast<std::size_t>(r)] = r;
        group_first_rank.push_back(r);
        group_size.push_back(1);
      }
      for (int k = 0; k < nk; ++k)
        owned[static_cast<std::size_t>(k % world)].push_back(
            static_cast<idx>(k));
    }
    for (int c = 0; c < num_groups; ++c)
      num_leaders += leaders_in_group(c);
  }

  int color(int rank) const {
    return color_of_rank[static_cast<std::size_t>(rank)];
  }
  int leaders_in_group(int c) const {
    return (group_size[static_cast<std::size_t>(c)] + width - 1) / width;
  }
  /// Global index of energy group `egroup` of color `c` (device slicing).
  int leader_index(int c, int egroup) const {
    int base = 0;
    for (int i = 0; i < c; ++i) base += leaders_in_group(i);
    return base + egroup;
  }
  /// Map a flat task index back to (ik, ie).
  std::pair<idx, idx> unflatten(idx flat) const {
    const auto it =
        std::upper_bound(e_prefix.begin(), e_prefix.end(), flat) - 1;
    const idx ik = static_cast<idx>(it - e_prefix.begin());
    return {ik, flat - *it};
  }
  /// Is local task index `ie` of momentum `ik` a Green's-function node?
  bool is_greens(idx ik, idx ie) const {
    return ie >= n_real[static_cast<std::size_t>(ik)];
  }
};

/// The shared work queue (coordinator side): per-k deques drained by the
/// energy-group leaders' pull requests, with stealing from the most-loaded
/// k once a group's own momenta run dry.
struct Coordinator {
  const Layout& lay;
  bool stealing;
  std::vector<std::deque<idx>> queue;  ///< remaining ie per k
  idx stolen = 0;

  Coordinator(const Layout& layout, const SweepRequest& req, bool steal)
      : lay(layout), stealing(steal) {
    // Real-axis tasks first, then the k's Green's-function nodes — the
    // local index space the Layout defines (is_greens).
    queue.resize(req.energies.size());
    for (std::size_t k = 0; k < req.energies.size(); ++k) {
      const idx count = lay.e_prefix[k + 1] - lay.e_prefix[k];
      for (idx ie = 0; ie < count; ++ie) queue[k].push_back(ie);
    }
  }

  bool pick(int color, idx& ik, idx& ie, bool& was_stolen) {
    for (const idx k : lay.owned[static_cast<std::size_t>(color)]) {
      auto& q = queue[static_cast<std::size_t>(k)];
      if (!q.empty()) {
        ik = k;
        ie = q.front();
        q.pop_front();
        was_stolen = false;
        return true;
      }
    }
    if (!stealing) return false;
    int best = -1;
    std::size_t most = 0;
    for (std::size_t k = 0; k < queue.size(); ++k)
      if (queue[k].size() > most) {
        most = queue[k].size();
        best = static_cast<int>(k);
      }
    if (best < 0) return false;
    auto& q = queue[static_cast<std::size_t>(best)];
    ik = static_cast<idx>(best);
    ie = q.back();  // steal from the tail: the owner keeps draining the head
    q.pop_back();
    was_stolen = true;
    return true;
  }
};

void send_lead_blocks(Comm& comm, int dst, const dft::LeadBlocks& lead) {
  comm.send({static_cast<double>(lead.h.size())}, dst, kTagBlocks);
  for (std::size_t i = 0; i < lead.h.size(); ++i) {
    comm.send_matrix(lead.h[i], dst, kTagBlocks);
    comm.send_matrix(lead.s[i], dst, kTagBlocks);
  }
}

dft::LeadBlocks recv_lead_blocks(Comm& comm, int src) {
  const auto meta = comm.recv(src, kTagBlocks);
  const auto n = static_cast<std::size_t>(meta.at(0));
  dft::LeadBlocks lead;
  lead.h.resize(n);
  lead.s.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lead.h[i] = comm.recv_matrix(src, kTagBlocks);
    lead.s[i] = comm.recv_matrix(src, kTagBlocks);
  }
  return lead;
}

/// Sends the blocks of every lead material at momentum k (root side), one
/// stream per material in material order.
void send_materials(Comm& comm, int dst, const SweepRequest& req,
                    std::size_t k) {
  for (const auto* row : req.materials) send_lead_blocks(comm, dst, (*row)[k]);
}

/// Receives what send_materials sent: `count` streams, material order.
std::vector<dft::LeadBlocks> recv_materials(Comm& comm, int src,
                                            std::size_t count) {
  std::vector<dft::LeadBlocks> leads;
  for (std::size_t m = 0; m < count; ++m)
    leads.push_back(recv_lead_blocks(comm, src));
  return leads;
}

/// The root's own copy of every material at momentum k.
std::vector<dft::LeadBlocks> material_column(const SweepRequest& req,
                                             std::size_t k) {
  std::vector<dft::LeadBlocks> leads;
  for (const auto* row : req.materials) leads.push_back((*row)[k]);
  return leads;
}

/// The request's pre-folds of every material at momentum k — empty when
/// the request carries none.  Only the root may read them.
std::vector<const dft::FoldedLead*> pre_folds(const SweepRequest& req,
                                              std::size_t k) {
  std::vector<const dft::FoldedLead*> out;
  for (const auto* row : req.folded) out.push_back(&(*row)[k]);
  return out;
}

/// The terminal layout of one k over its materials (`leads`/`folded`,
/// indexed by SweepContact::material).  Lead content hashes are computed
/// here, once per (k, material) per run, never per fetch.  Every referenced
/// object must outlive the set.
transport::ContactSet build_contact_set(
    const SweepRequest& req, const std::vector<dft::LeadBlocks>& leads,
    const std::vector<dft::FoldedLead>& folded) {
  std::vector<std::uint64_t> hashes;
  for (const dft::LeadBlocks& lead : leads)
    hashes.push_back(transport::lead_content_hash(lead));
  std::vector<transport::Contact> cs;
  cs.reserve(req.contacts.size());
  for (const SweepContact& sc : req.contacts) {
    transport::Contact c;
    if (sc.probe_eta > 0.0) {
      // Büttiker probe: no lead material travels or caches for this
      // terminal — its self-energy is the local -i*eta*I.
      c.probe_eta = sc.probe_eta;
    } else {
      const auto m = static_cast<std::size_t>(sc.material);
      c.lead = &leads[m];
      c.folded = &folded[m];
      c.lead_hash = hashes[m];
    }
    c.mu = sc.mu;
    c.shift = sc.shift;
    c.block = sc.block;
    cs.push_back(c);
  }
  return transport::ContactSet(std::move(cs));
}

/// Coordinator service loop: runs on a helper thread next to rank 0's own
/// worker (point-to-point only — collectives stay on the rank thread).  On
/// an internal error every leader gets a done marker so the world drains
/// and rethrows instead of hanging in recv.
void serve_queue(Comm comm, Coordinator& co, const SweepRequest& req,
                 std::exception_ptr& error) {
  const Layout& lay = co.lay;
  int done_sent = 0;
  try {
    while (done_sent < lay.num_leaders) {
      Comm::Status status;
      const auto msg = comm.recv(Comm::kAnySource, kTagRequest, status);
      const int kind = static_cast<int>(msg.at(0));
      if (kind == 1) {  // a thief fetching the blocks of a k it never owned
        send_materials(comm, status.source, req,
                       static_cast<std::size_t>(msg.at(1)));
        continue;
      }
      const int color = static_cast<int>(msg.at(1));
      idx ik = 0, ie = 0;
      bool was_stolen = false;
      if (co.pick(color, ik, ie, was_stolen)) {
        if (was_stolen) ++co.stolen;
        comm.send({static_cast<double>(ik), static_cast<double>(ie),
                   was_stolen ? 1.0 : 0.0},
                  status.source, kTagAssign);
      } else {
        comm.send({-1.0, -1.0, 0.0}, status.source, kTagAssign);
        ++done_sent;
      }
    }
  } catch (...) {
    error = std::current_exception();
    // Sends are buffered, so unsolicited markers are safe: a leader that
    // already finished simply never consumes its extra messages.
    for (int r = 0; r < lay.world; ++r) {
      const int c = lay.color(r);
      const int in_group =
          r - lay.group_first_rank[static_cast<std::size_t>(c)];
      if (in_group % lay.width != 0) continue;
      comm.send({-1.0, -1.0, 0.0}, r, kTagAssign);
      // A thief mid-fetch waits on kTagBlocks, not kTagAssign: an
      // empty-lead poison wakes it, its KData build refuses the empty
      // lead, and the leader's stage handler degrades to the drain path.
      // (A stream truncated mid-matrix still surfaces as an unpack error
      // rather than a hang for the same reason.)  Thieves read one stream
      // per material, so the poison matches that count.
      for (std::size_t m = 0; m < req.materials.size(); ++m)
        comm.send({0.0}, r, kTagBlocks);
    }
  }
}

/// Everything one rank holds for a k point it solves: the lead materials it
/// received and the device assembled from material 0; on energy-group
/// leaders also the folds and the k's terminals.
struct KData {
  /// The k's lead materials, indexed by SweepContact::material.  Spatial
  /// members of a stolen k hold material 0 only.
  std::vector<dft::LeadBlocks> leads;
  /// One fold per material — leaders only; members never run the OBCs.
  std::vector<dft::FoldedLead> folded;
  dft::DeviceMatrices dm;
  /// The k's terminals (leaders only), pointing at the members above: the
  /// engine holds KData by unique_ptr, so they never move.
  transport::ContactSet contacts;
  /// The k's wave-function tasks may fuse into batched calls
  /// (TaskRunner::load sets it from the one per-k rule).
  bool batchable = false;

  /// `leader` = false is the spatial-member variant: members only need the
  /// assembled device matrices to compute SPIKE partitions of A, so the
  /// lead folding, hashing and the terminals are skipped.  `pre_folded`
  /// (empty, or one fold per material) replaces folding the materials.
  KData(std::vector<dft::LeadBlocks> l, const SweepRequest& req, bool leader,
        const std::vector<const dft::FoldedLead*>& pre_folded = {})
      : leads(checked(std::move(l))),
        dm(dft::assemble_device(leads[0], req.cells, req.potential)) {
    if (!leader) return;
    folded.reserve(leads.size());
    for (std::size_t m = 0; m < leads.size(); ++m)
      folded.push_back(pre_folded.empty() ? dft::fold_lead(leads[m])
                                          : *pre_folded[m]);
    contacts = build_contact_set(req, leads, folded);
  }
  KData(const KData&) = delete;
  KData& operator=(const KData&) = delete;

 private:
  /// An empty material (a failed root's poison stream) throws here
  /// instead of reaching the assembly or the fold.
  static std::vector<dft::LeadBlocks> checked(
      std::vector<dft::LeadBlocks> leads) {
    for (const dft::LeadBlocks& lead : leads)
      if (lead.h.empty())
        throw std::runtime_error("Engine: a lead material arrived empty");
    return leads;
  }
};

struct RankLocal {
  std::vector<double> samples;  ///< {flat, T, T_caroli, propagating} each
  /// {flat, weighted per-cell density...} per charge-carrying task.  Kept
  /// per task (not accumulated per rank) so the root can sum contributions
  /// in flat task order — work stealing moves tasks between ranks run to
  /// run, and a rank-order reduce would make the charge rounding depend on
  /// the race.
  std::vector<double> charge_samples;
  double busy_seconds = 0.0;
  idx tasks = 0;
  idx greens_tasks = 0;  ///< contour-node solves among `tasks`
  /// Batched-execution accounting (stays zero when the leader ran the
  /// unbatched scalar path, a spatial group, or a non-batchable solver).
  transport::BatchStats batch;
};

/// Doubles per real-axis sample on the gather wire: the classic 4 plus, for
/// >= 3-terminal requests, the row-major nc x nc pairwise T matrix.
/// Identical on every rank (all read the same request object).
std::size_t sample_stride(const SweepRequest& req) {
  const std::size_t nc = req.contacts.size();
  return 4 + (nc >= 3 ? nc * nc : 0);
}

/// Per-cell charge of one task: every terminal's injected density times
/// its own weight.  Terminal p's density is contact_density[p] on the
/// N-terminal route; the pair route solves the contact at block 0 into
/// orbital_density and the other end into orbital_density_r.  The contact
/// at block 0 is summed first, then the others in terminal order — the
/// source-first order of the two-contact charge, so a reversed pair rounds
/// exactly like the default one.  Empty result = no charge.
std::vector<double> weighted_task_charge(
    const SweepRequest& req, idx block_dim, idx ik, idx ie,
    const transport::EnergyPointResult& res) {
  const auto sk = static_cast<std::size_t>(ik);
  const auto se = static_cast<std::size_t>(ie);
  std::vector<double> out;
  const auto add = [&](std::size_t p) {
    const bool at_source = req.contacts[p].block == 0;
    const std::vector<double>& injected =
        !res.contact_density.empty()
            ? res.contact_density.at(p)
            : (at_source ? res.orbital_density : res.orbital_density_r);
    if (injected.empty()) return;
    const auto per_cell =
        transport::density_per_cell(injected, block_dim, req.cells);
    const double w = req.density_weight[p][sk][se];
    if (out.empty()) out.assign(static_cast<std::size_t>(req.cells), 0.0);
    for (std::size_t c = 0; c < per_cell.size(); ++c)
      out[c] += w * per_cell[c];
  };
  const std::size_t nw = req.density_weight.size();
  std::size_t first = 0;
  while (first < nw && req.contacts[first].block != 0) ++first;
  if (first < nw) add(first);
  for (std::size_t p = 0; p < nw; ++p)
    if (p != first) add(p);
  return out;
}

/// Appends the per-cell charge of one Green's-function node to `out`:
/// Im(w * G_ii) summed onto physical cells.  The node weight w (contour
/// jacobian * gauss weight * Fermi factor, or a pole residue) already
/// carries the -2 spectral normalization, so this is the GF-side twin of
/// weighted_task_charge.
void append_greens_charge(std::vector<double>& out, const SweepRequest& req,
                          idx block_dim, numeric::cplx weight,
                          const std::vector<numeric::cplx>& diag) {
  const std::size_t base = out.size();
  out.resize(base + static_cast<std::size_t>(req.cells), 0.0);
  for (std::size_t i = 0; i < diag.size(); ++i)
    out[base + i / static_cast<std::size_t>(block_dim)] +=
        (weight * diag[i]).imag();
}

/// Does the request carry any Green's-function nodes?  Drives charge
/// allocation/gather symmetrically on every rank (all ranks read the same
/// request object).
bool request_has_greens(const SweepRequest& req) {
  for (const auto& nodes : req.gf_nodes)
    if (!nodes.empty()) return true;
  return false;
}

}  // namespace

Engine::Engine(EngineConfig config, parallel::DevicePool* pool)
    : config_(std::move(config)), pool_(pool) {
  if (config_.num_ranks < 1)
    throw std::invalid_argument("Engine: num_ranks must be >= 1");
  if (config_.ranks_per_energy_group < 1)
    throw std::invalid_argument(
        "Engine: ranks_per_energy_group must be >= 1");
  if (config_.cache_boundaries) {
    caches_.resize(static_cast<std::size_t>(config_.num_ranks));
    for (auto& c : caches_) c = std::make_unique<obc::BoundaryCache>();
  }
  if (pool_ != nullptr) {
    residency_.resize(static_cast<std::size_t>(config_.num_ranks));
    for (auto& r : residency_)
      r = std::make_unique<numeric::ResidencyCache>();
  }
}

obc::BoundaryCache* Engine::rank_cache(int rank) const {
  if (caches_.empty()) return nullptr;
  return caches_[static_cast<std::size_t>(rank)].get();
}

numeric::ResidencyCache* Engine::rank_residency(int rank) const {
  if (residency_.empty()) return nullptr;
  return residency_[static_cast<std::size_t>(rank)].get();
}

void Engine::invalidate_boundary_caches() {
  for (auto& c : caches_) c->invalidate();
  // Device-resident operands share the boundary caches' validity domain:
  // both replay lead-derived products keyed on (k, E).
  for (auto& r : residency_) r->invalidate();
}

obc::BoundaryCache::Stats Engine::boundary_cache_stats() const {
  obc::BoundaryCache::Stats total;
  for (const auto& c : caches_) {
    const auto s = c->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.invalidations += s.invalidations;
  }
  return total;
}

obc::BoundaryCache::Stats Engine::contact_boundary_cache_stats(
    int contact) const {
  obc::BoundaryCache::Stats total;
  for (const auto& c : caches_) {
    const auto s = c->contact_stats(contact);
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.invalidations += s.invalidations;
  }
  return total;
}

namespace {

void validate_request(const SweepRequest& req) {
  if (req.materials.empty())
    throw std::invalid_argument("Engine: request has no lead materials");
  if (req.energies.empty())
    throw std::invalid_argument("Engine: request has no k points");
  for (const auto* row : req.materials)
    if (row == nullptr || row->size() < req.energies.size())
      throw std::invalid_argument(
          "Engine: a lead-material row is null or shorter than the k grids");
  if (!req.folded.empty() && req.folded.size() != req.materials.size())
    throw std::invalid_argument("Engine: folded needs one row per material");
  for (const auto* row : req.folded)
    if (row == nullptr || row->size() < req.energies.size())
      throw std::invalid_argument(
          "Engine: a folded row is null or shorter than the k grids");
  if (!req.gf_nodes.empty()) {
    if (req.gf_nodes.size() != req.energies.size())
      throw std::invalid_argument("Engine: gf_nodes k-shape mismatch");
    if (req.gf_weights.size() != req.gf_nodes.size())
      throw std::invalid_argument(
          "Engine: gf_weights/gf_nodes k-shape mismatch");
    for (std::size_t k = 0; k < req.gf_nodes.size(); ++k)
      if (req.gf_weights[k].size() != req.gf_nodes[k].size())
        throw std::invalid_argument(
            "Engine: gf_weights node-shape mismatch");
  } else if (!req.gf_weights.empty()) {
    throw std::invalid_argument("Engine: gf_weights without gf_nodes");
  }
  // Non-finite doubles would become boundary-cache keys (NaN compares
  // unordered with every key); reject them before any rank starts.
  const auto finite = [](double v) { return std::isfinite(v); };
  for (const auto& grid : req.energies)
    if (!std::all_of(grid.begin(), grid.end(), finite))
      throw std::invalid_argument("Engine: non-finite energy");
  for (const auto* table : {&req.gf_nodes, &req.gf_weights})
    for (const auto& row : *table)
      for (const numeric::cplx z : row)
        if (!finite(z.real()) || !finite(z.imag()))
          throw std::invalid_argument(
              "Engine: non-finite Green's-function node or weight");
  if (req.point.obc_opts.contact_shift != 0.0)
    throw std::invalid_argument(
        "Engine: point.obc_opts.contact_shift must be 0 — a sweep's shifts "
        "live on its contacts (SweepContact::shift)");
  if (req.contacts.size() < 2)
    throw std::invalid_argument("Engine: a sweep needs >= 2 contacts");
  const int materials = static_cast<int>(req.materials.size());
  for (const SweepContact& c : req.contacts) {
    if (!finite(c.shift))
      throw std::invalid_argument("Engine: non-finite contact shift");
    if (c.material < 0 || c.material >= materials)
      throw std::invalid_argument(
          "Engine: contact material index out of range");
    if (c.probe_eta < 0.0)
      throw std::invalid_argument("Engine: contact probe_eta is negative");
    if (c.probe_eta > 0.0 && c.material != 0)
      throw std::invalid_argument(
          "Engine: a Buettiker probe carries no lead material "
          "(probe_eta > 0 requires the default material 0)");
  }
  if (!req.density_weight.empty()) {
    if (req.density_weight.size() != req.contacts.size())
      throw std::invalid_argument(
          "Engine: density_weight needs one table per contact");
    for (const auto& table : req.density_weight) {
      if (table.size() != req.energies.size())
        throw std::invalid_argument("Engine: density_weight k-shape mismatch");
      for (std::size_t k = 0; k < table.size(); ++k) {
        if (table[k].size() != req.energies[k].size())
          throw std::invalid_argument(
              "Engine: density_weight E-shape mismatch");
        if (!std::all_of(table[k].begin(), table[k].end(), finite))
          throw std::invalid_argument("Engine: non-finite density weight");
      }
    }
  }
}

SweepResult shaped_result(const SweepRequest& req) {
  SweepResult out;
  const std::size_t nk = req.energies.size();
  out.transmission.resize(nk);
  out.caroli.resize(nk);
  out.propagating.resize(nk);
  for (std::size_t k = 0; k < nk; ++k) {
    out.transmission[k].assign(req.energies[k].size(), 0.0);
    out.caroli[k].assign(req.energies[k].size(), 0.0);
    out.propagating[k].assign(req.energies[k].size(), 0);
  }
  const std::size_t nc = req.contacts.size();
  if (nc >= 3) {
    out.t_matrix.resize(nk);
    for (std::size_t k = 0; k < nk; ++k)
      out.t_matrix[k].assign(req.energies[k].size(),
                             std::vector<double>(nc * nc, 0.0));
  }
  if (!req.density_weight.empty() || request_has_greens(req))
    out.charge.assign(static_cast<std::size_t>(req.cells), 0.0);
  return out;
}

/// Per-leader backend selection for the batched device phase.  A fixed
/// choice ("host", "device", a registered name) resolves once; "auto" asks
/// the perf::estimate_batch_seconds crossover per shape bucket.  Every
/// candidate runs the same scalar kernels per item, so the choice moves
/// work and transfer accounting — never results.
struct BackendArbiter {
  numeric::Backend* fixed = nullptr;  ///< non-auto resolution
  numeric::DeviceBackend* device = nullptr;  ///< offload candidate
  bool auto_select = false;
  int host_lanes = 1;
  int devices = 0;
  int nominal_batch = 1;

  numeric::Backend& choose(idx nb, idx s) const {
    if (!auto_select) return *fixed;
    if (device == nullptr) return numeric::host_backend();
    // nrhs mirrors the 2*s nominal the solver resolution uses; the nominal
    // batch (never the actual fill) keeps the estimate rank-invariant.
    const perf::BatchShape shape{static_cast<long long>(nb),
                                 static_cast<long long>(s),
                                 static_cast<long long>(2 * s)};
    const perf::BatchEstimate est = perf::estimate_batch_seconds(
        perf::MachineSpec::host(), shape, nominal_batch, host_lanes, devices);
    return est.device_wins() ? static_cast<numeric::Backend&>(*device)
                             : numeric::host_backend();
  }
};

/// Builds a leader's arbiter over its pool slice, constructing the
/// DeviceBackend in `storage` when offloading is a candidate.  `residency`
/// is the leader's persistent cross-run operand cache (may be null).
BackendArbiter make_backend_arbiter(
    const EngineConfig& cfg, std::optional<numeric::DeviceBackend>& storage,
    parallel::DevicePool* pool, numeric::ResidencyCache* residency) {
  BackendArbiter arb;
  arb.nominal_batch = std::max(1, cfg.max_batch);
  arb.host_lanes =
      static_cast<int>(parallel::ThreadPool::global().num_threads());
  if (pool != nullptr && pool->size() > 0 && cfg.backend != "host") {
    storage.emplace(*pool, residency);
    arb.device = &*storage;
    arb.devices = pool->size();
  }
  if (cfg.backend == "auto") {
    arb.auto_select = true;
    arb.fixed = &numeric::host_backend();
  } else if (cfg.backend == "host") {
    arb.fixed = &numeric::host_backend();
  } else if (cfg.backend == "device") {
    // Degrade to host when the engine has no accelerators to offload to.
    arb.fixed = arb.device != nullptr
                    ? static_cast<numeric::Backend*>(arb.device)
                    : &numeric::host_backend();
  } else {
    numeric::Backend* named = numeric::find_backend(cfg.backend);
    if (named == nullptr)
      throw std::invalid_argument("Engine: unknown backend '" + cfg.backend +
                                  "'");
    arb.fixed = named;
  }
  return arb;
}

/// H2D/D2H/busy counters of every pool device, snapshotted around a sweep
/// so EngineStats can report per-run deltas (the pool persists across
/// runs and may be shared).
struct PoolSnapshot {
  std::vector<std::uint64_t> h2d, d2h;
  std::vector<double> busy;
};

PoolSnapshot snapshot_pool(parallel::DevicePool* pool) {
  PoolSnapshot snap;
  if (pool == nullptr) return snap;
  for (int d = 0; d < pool->size(); ++d) {
    parallel::Device& dev = pool->device(d);
    snap.h2d.push_back(dev.h2d_bytes());
    snap.d2h.push_back(dev.d2h_bytes());
    snap.busy.push_back(dev.busy_seconds());
  }
  return snap;
}

void apply_pool_delta(EngineStats& stats, parallel::DevicePool* pool,
                      const PoolSnapshot& before) {
  if (pool == nullptr) return;
  stats.device_busy_seconds.assign(before.busy.size(), 0.0);
  for (int d = 0; d < pool->size(); ++d) {
    parallel::Device& dev = pool->device(d);
    const auto sd = static_cast<std::size_t>(d);
    stats.h2d_bytes += static_cast<double>(dev.h2d_bytes() - before.h2d[sd]);
    stats.d2h_bytes += static_cast<double>(dev.d2h_bytes() - before.d2h[sd]);
    stats.device_busy_seconds[sd] = dev.busy_seconds() - before.busy[sd];
  }
}

/// Per-point options of one rank's sweep: the request's, bound to the
/// rank's persistent boundary cache (null when caching is off) and its
/// spatial communicator (null outside a cooperative group, which also
/// scrubs any stale handle a caller left in the request).
transport::EnergyPointOptions sweep_options(const SweepRequest& req,
                                            obc::BoundaryCache* cache,
                                            parallel::Comm* spatial) {
  transport::EnergyPointOptions popt = req.point;
  popt.spatial = spatial;
  popt.boundary_cache = cache;
  // Only pay the drain-injection RHS columns when a drain (a terminal off
  // block 0) carries a nonzero weight: a zero row would fold an exact +0.0
  // into the charge.  The contour bias window gives the lower-mu contact
  // such a row.
  popt.want_density_r = false;
  for (std::size_t p = 0; p < req.density_weight.size(); ++p)
    if (req.contacts[p].block != 0)
      for (const auto& row : req.density_weight[p])
        for (const double w : row) popt.want_density_r |= w != 0.0;
  return popt;
}

/// One (k, E) task: local index `ie` of momentum `ik` (flat-task layout of
/// Layout), solved on that k's inputs.
struct Task {
  idx ik = 0, ie = 0;
  const KData* kd = nullptr;
};

/// How a task runs.  Declaration order is bucket order: a shape's
/// wave-function buckets run before its Green's-function bucket.
enum class TaskKind {
  kBatched,  ///< fused into transport::solve_energy_batch calls
  kPerTask,  ///< one solve_energy_point per task
  kGreens,   ///< one contour-node solve_greens_diagonal per task
};

/// Tasks of one bucket share (num_blocks, block_size, kind).
using BucketKey = std::tuple<idx, idx, TaskKind>;

/// The engine's one task executor.  The flat loop hands it every task of a
/// sweep at once; a rank-protocol leader hands it the tasks it pulled.  A
/// task list is bucketed by BucketKey (std::map order) and each bucket runs
/// as one unit: batched buckets through solve_energy_batch in max_batch
/// chunks, on the backend the arbiter picks for the shape; per-task and
/// Green's-function buckets as a thread-pool loop on the workers'
/// thread-local contexts, or inline when the bucket holds one task (so a
/// spatial leader's cooperative solve stays on its rank thread).  Sample
/// and charge rows land in a RankLocal and are assembled by flat task
/// index, so the results cannot depend on how the tasks were grouped.
class TaskRunner {
 public:
  /// `pool` is this rank's accelerator share, `residency` its persistent
  /// device-operand cache (may be null).
  TaskRunner(const SweepRequest& req, const Layout& lay,
             const EngineConfig& cfg, transport::EnergyPointOptions popt,
             parallel::DevicePool* pool, numeric::ResidencyCache* residency)
      : req_(req), lay_(lay), cfg_(cfg), popt_(std::move(popt)), pool_(pool),
        arbiter_(make_backend_arbiter(cfg, device_storage_, pool, residency)) {}
  TaskRunner(const TaskRunner&) = delete;
  TaskRunner& operator=(const TaskRunner&) = delete;

  /// A leader's inputs for one k, classified by the per-k batching rule.
  std::unique_ptr<KData> load(
      std::vector<dft::LeadBlocks> leads,
      const std::vector<const dft::FoldedLead*>& pre_folded) const {
    auto kd = std::make_unique<KData>(std::move(leads), req_,
                                      /*leader=*/true, pre_folded);
    kd->batchable = may_batch(*kd);
    return kd;
  }

  BucketKey key(const Task& t) const {
    const TaskKind kind = lay_.is_greens(t.ik, t.ie) ? TaskKind::kGreens
                          : t.kd->batchable          ? TaskKind::kBatched
                                                     : TaskKind::kPerTask;
    return {t.kd->dm.h.num_blocks(), t.kd->dm.h.block_size(), kind};
  }

  void run(const std::vector<Task>& tasks, RankLocal& local) {
    std::map<BucketKey, std::vector<Task>> buckets;
    for (const Task& t : tasks) buckets[key(t)].push_back(t);
    for (const auto& [k, bucket] : buckets) {
      if (std::get<2>(k) == TaskKind::kBatched)
        run_batched(bucket, std::get<0>(k), std::get<1>(k), local);
      else
        run_each(bucket, local);
    }
  }

 private:
  /// The per-k batching rule: a k's wave-function tasks fuse when
  /// batching is on, the group is not spatial (those solve cooperatively,
  /// one point at a time), and the resolved solver is kBatchable —
  /// solve_energy_batch refuses anything else.  Any terminal set batches.
  /// The resolution sees the configured max_batch, never the actual bucket
  /// fill.
  bool may_batch(const KData& kd) const {
    const idx nb = kd.dm.h.num_blocks();
    const idx s = kd.dm.h.block_size();
    if (!cfg_.batch_tasks || popt_.spatial != nullptr) return false;
    solvers::SolverContext binding{pool_, popt_.partitions};
    binding.batch = std::max(1, cfg_.max_batch);
    binding.backend = &arbiter_.choose(nb, s);
    const auto algo =
        solvers::resolve_algorithm(popt_.solver, nb, s, 2 * s, binding);
    return (solvers::algorithm_capabilities(algo) & solvers::kBatchable) != 0;
  }

  /// A wave-function task's sample row and, when it carries charge, its
  /// charge row.
  void wave_rows(const Task& t, const transport::EnergyPointResult& res,
                 std::vector<double>& samples,
                 std::vector<double>& charge) const {
    const double flat =
        static_cast<double>(lay_.e_prefix[static_cast<std::size_t>(t.ik)] +
                            t.ie);
    samples.push_back(flat);
    samples.push_back(res.transmission);
    samples.push_back(res.transmission_caroli);
    samples.push_back(static_cast<double>(res.num_propagating));
    const std::size_t nc = req_.contacts.size();
    if (nc >= 3) {
      // Zero-padded to the fixed stride so a task whose solve produced no
      // T matrix (nothing propagates) still parses on the root.
      for (std::size_t i = 0; i < nc * nc; ++i)
        samples.push_back(i < res.t_matrix.size() ? res.t_matrix[i] : 0.0);
    }
    const auto per_cell =
        weighted_task_charge(req_, t.kd->leads[0].block_dim(), t.ik, t.ie,
                             res);
    if (per_cell.empty()) return;
    charge.push_back(flat);
    charge.insert(charge.end(), per_cell.begin(), per_cell.end());
  }

  void run_batched(const std::vector<Task>& bucket, idx nb, idx s,
                   RankLocal& local) {
    // The whole shape bucket lands on one backend: host lanes or device
    // streams, by policy/crossover.  Either way the per-item kernels are
    // identical, so the spectra cannot depend on the choice.
    numeric::Backend& backend = arbiter_.choose(nb, s);
    const std::size_t cap =
        static_cast<std::size_t>(std::max(1, cfg_.max_batch));
    for (std::size_t base = 0; base < bucket.size(); base += cap) {
      const std::size_t count = std::min(cap, bucket.size() - base);
      std::vector<transport::BatchTask> chunk;
      chunk.reserve(count);
      for (std::size_t j = 0; j < count; ++j) {
        const Task& t = bucket[base + j];
        chunk.push_back({t.ik,
                         req_.energies[static_cast<std::size_t>(t.ik)]
                                      [static_cast<std::size_t>(t.ie)],
                         &t.kd->dm, &t.kd->contacts});
      }
      const double t0 = now_seconds();
      const auto res = transport::solve_energy_batch(
          bctx_, chunk, popt_, pool_, backend, cfg_.max_batch, &local.batch);
      local.busy_seconds += now_seconds() - t0;
      local.tasks += static_cast<idx>(count);
      for (std::size_t j = 0; j < count; ++j)
        wave_rows(bucket[base + j], res[j], local.samples,
                  local.charge_samples);
    }
  }

  void run_each(const std::vector<Task>& bucket, RankLocal& local) const {
    struct Rows {
      std::vector<double> samples, charge;
      double busy = 0.0;
    };
    std::vector<Rows> rows(bucket.size());
    const auto solve = [&](std::size_t j) {
      const Task& t = bucket[j];
      const auto sk = static_cast<std::size_t>(t.ik);
      // The cache key's momentum component is the global k index.
      transport::EnergyPointOptions opt = popt_;
      opt.k_index = t.ik;
      const double t0 = now_seconds();
      if (lay_.is_greens(t.ik, t.ie)) {
        // Diagonal of G at the complex node, folded into per-cell charge
        // with the node's complex weight.  The RGF diagonal is a solo
        // solve, even in a spatial group.
        opt.spatial = nullptr;
        const auto sg = static_cast<std::size_t>(t.ie - lay_.n_real[sk]);
        const auto diag = transport::solve_greens_diagonal(
            t.kd->dm, t.kd->contacts, req_.gf_nodes[sk][sg], opt);
        rows[j].busy = now_seconds() - t0;
        rows[j].charge.reserve(1 + static_cast<std::size_t>(req_.cells));
        rows[j].charge.push_back(
            static_cast<double>(lay_.e_prefix[sk] + t.ie));
        append_greens_charge(rows[j].charge, req_, t.kd->leads[0].block_dim(),
                             req_.gf_weights[sk][sg], diag);
        return;
      }
      const auto res = transport::solve_energy_point(
          t.kd->dm, t.kd->contacts,
          req_.energies[sk][static_cast<std::size_t>(t.ie)], opt, pool_);
      rows[j].busy = now_seconds() - t0;
      rows[j].samples.reserve(sample_stride(req_));
      wave_rows(t, res, rows[j].samples, rows[j].charge);
    };
    if (bucket.size() == 1)
      solve(0);
    else
      parallel::ThreadPool::global().parallel_for(bucket.size(), solve);
    for (std::size_t j = 0; j < bucket.size(); ++j) {
      local.busy_seconds += rows[j].busy;
      local.samples.insert(local.samples.end(), rows[j].samples.begin(),
                           rows[j].samples.end());
      local.charge_samples.insert(local.charge_samples.end(),
                                  rows[j].charge.begin(),
                                  rows[j].charge.end());
      if (lay_.is_greens(bucket[j].ik, bucket[j].ie)) ++local.greens_tasks;
    }
    local.tasks += static_cast<idx>(bucket.size());
  }

  const SweepRequest& req_;
  const Layout& lay_;
  const EngineConfig& cfg_;
  const transport::EnergyPointOptions popt_;
  parallel::DevicePool* pool_;
  std::optional<numeric::DeviceBackend> device_storage_;  ///< before arbiter_
  const BackendArbiter arbiter_;
  transport::BatchContext bctx_;
};

/// A rank's counters on the gather wire, kStatsStride doubles.
constexpr std::size_t kStatsStride = 10;
std::vector<double> stats_row(const RankLocal& l) {
  return {l.busy_seconds,
          static_cast<double>(l.tasks),
          static_cast<double>(l.batch.batches),
          static_cast<double>(l.batch.tasks),
          static_cast<double>(l.batch.prefetch_hits),
          static_cast<double>(l.batch.prefetch_misses),
          static_cast<double>(l.greens_tasks),
          static_cast<double>(l.batch.device_batches),
          static_cast<double>(l.batch.residency_hits),
          static_cast<double>(l.batch.residency_misses)};
}

/// Root-side assembly, shared by the flat loop (its own rows) and the rank
/// protocol (every rank's gathered rows): sample rows into the per-(k, E)
/// fields, charge rows summed per cell in flat task order — work stealing
/// moves tasks between ranks run to run, so any other order would make the
/// charge rounding depend on the race — and the per-rank stats rows.
void assemble(SweepResult& out, const SweepRequest& req, const Layout& lay,
              idx stolen, const std::vector<double>& samples,
              const std::vector<double>& charge,
              const std::vector<double>& rank_stats) {
  const std::size_t stride = sample_stride(req);
  for (std::size_t i = 0; i + stride <= samples.size(); i += stride) {
    const auto [ik, ie] = lay.unflatten(static_cast<idx>(samples[i]));
    const auto sk = static_cast<std::size_t>(ik);
    const auto se = static_cast<std::size_t>(ie);
    out.transmission[sk][se] = samples[i + 1];
    out.caroli[sk][se] = samples[i + 2];
    out.propagating[sk][se] = static_cast<idx>(samples[i + 3]);
    // stride > 4 carries the row-major ncon x ncon pairwise T matrix.
    for (std::size_t q = 0; q + 4 < stride; ++q)
      out.t_matrix[sk][se][q] = samples[i + 4 + q];
  }
  if (!charge.empty()) {
    // Each task's charge row offset (charge.size() = none), then the sum.
    const std::size_t cells = static_cast<std::size_t>(req.cells);
    std::vector<std::size_t> row(static_cast<std::size_t>(lay.total_tasks),
                                 charge.size());
    for (std::size_t i = 0; i + 1 + cells <= charge.size(); i += 1 + cells)
      row[static_cast<std::size_t>(charge[i])] = i + 1;
    for (const std::size_t r : row)
      if (r < charge.size())
        for (std::size_t c = 0; c < cells; ++c) out.charge[c] += charge[r + c];
  }
  EngineStats& st = out.stats;
  st.ranks = lay.world;
  st.energy_groups = lay.num_leaders;
  st.tasks_total = lay.total_tasks;
  st.tasks_stolen = stolen;
  idx batched_tasks_total = 0;
  for (std::size_t b = 0; b + kStatsStride <= rank_stats.size();
       b += kStatsStride) {
    st.busy_seconds_per_rank.push_back(rank_stats[b]);
    st.tasks_per_rank.push_back(static_cast<idx>(rank_stats[b + 1]));
    st.batches_issued += static_cast<idx>(rank_stats[b + 2]);
    batched_tasks_total += static_cast<idx>(rank_stats[b + 3]);
    st.prefetch_hits += static_cast<idx>(rank_stats[b + 4]);
    st.prefetch_misses += static_cast<idx>(rank_stats[b + 5]);
    st.tasks_greens += static_cast<idx>(rank_stats[b + 6]);
    st.device_batches += static_cast<idx>(rank_stats[b + 7]);
    st.residency_hits += static_cast<idx>(rank_stats[b + 8]);
    st.residency_misses += static_cast<idx>(rank_stats[b + 9]);
  }
  if (st.batches_issued > 0)
    st.mean_batch_size = static_cast<double>(batched_tasks_total) /
                         static_cast<double>(st.batches_issued);
}

}  // namespace

SweepResult Engine::run(const SweepRequest& request) {
  validate_request(request);
  // Fail an unknown backend name on the caller thread, before any world or
  // collective exists (leaders re-resolve the same name later; by then it
  // is known good).
  if (config_.backend != "auto" && config_.backend != "host" &&
      config_.backend != "device" &&
      numeric::find_backend(config_.backend) == nullptr)
    throw std::invalid_argument("Engine: unknown backend '" +
                                config_.backend + "'");
  std::size_t total = 0;
  for (const auto& grid : request.energies) total += grid.size();
  for (const auto& nodes : request.gf_nodes) total += nodes.size();
  if (total == 0) return shaped_result(request);
  const std::size_t nc = request.contacts.size();
  // One sweep must always fit: a cap below the task count would evict
  // entries mid-sweep and forfeit every cross-iteration hit.  A task
  // fetches up to one boundary per contact.
  const std::size_t per_task = std::max<std::size_t>(2, nc);
  for (auto& c : caches_) c->reserve(per_task * total);
  // Per-contact cache counters are cumulative on the persistent caches;
  // snapshot around the sweep so the stats report this run's deltas.
  std::vector<obc::BoundaryCache::Stats> contact_stats_before;
  if (!caches_.empty())
    for (std::size_t p = 0; p < nc; ++p)
      contact_stats_before.push_back(
          contact_boundary_cache_stats(static_cast<int>(p)));
  const PoolSnapshot snapshot = snapshot_pool(pool_);
  SweepResult out = (config_.num_ranks == 1 && config_.flat_single_rank)
                        ? run_flat(request)
                        : run_distributed(request);
  apply_pool_delta(out.stats, pool_, snapshot);
  if (!caches_.empty()) {
    out.stats.contact_cache_stats.resize(nc);
    for (std::size_t p = 0; p < nc; ++p) {
      const auto after = contact_boundary_cache_stats(static_cast<int>(p));
      auto& d = out.stats.contact_cache_stats[p];
      d.hits = after.hits - contact_stats_before[p].hits;
      d.misses = after.misses - contact_stats_before[p].misses;
      d.insertions = after.insertions - contact_stats_before[p].insertions;
      d.invalidations =
          after.invalidations - contact_stats_before[p].invalidations;
    }
  }
  return out;
}

SweepResult Engine::run_flat(const SweepRequest& request) {
  const double t_start = now_seconds();
  SweepResult out = shaped_result(request);
  const Layout lay(request, 1, 1);
  // The flat loop is its own leader: rank 0's persistent caches (shared by
  // the pool workers — BoundaryCache is thread-safe), the whole device
  // pool, and every task of the sweep in one executor call.
  TaskRunner runner(request, lay, config_,
                    sweep_options(request, rank_cache(0), nullptr), pool_,
                    rank_residency(0));
  std::vector<std::unique_ptr<KData>> ks;
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(lay.total_tasks));
  for (std::size_t k = 0; k < request.energies.size(); ++k) {
    // Pre-folded leads from the request are reused as-is.
    ks.push_back(
        runner.load(material_column(request, k), pre_folds(request, k)));
    for (idx ie = 0; ie < lay.e_prefix[k + 1] - lay.e_prefix[k]; ++ie)
      tasks.push_back({static_cast<idx>(k), ie, ks.back().get()});
  }
  RankLocal local;
  runner.run(tasks, local);
  assemble(out, request, lay, 0, local.samples, local.charge_samples,
           stats_row(local));
  out.stats.wall_seconds = now_seconds() - t_start;
  return out;
}

SweepResult Engine::run_distributed(const SweepRequest& request) {
  const double t_start = now_seconds();
  SweepResult out = shaped_result(request);
  const Layout lay(request, config_.num_ranks,
                   config_.ranks_per_energy_group);
  Coordinator co(lay, request, config_.work_stealing);
  // Every material travels per k; the count is read identically on every
  // rank from the shared request.
  const std::size_t m_count = request.materials.size();

  parallel::CommWorld world(config_.num_ranks);
  std::exception_ptr service_error;
  world.run([&](Comm& comm) {
    const int wr = comm.rank();
    const int my_color = lay.color(wr);
    // A failing rank must not abandon the protocol: it records the error,
    // keeps draining queue traffic and the assembly collectives so no peer
    // blocks forever, and rethrows once the world has quiesced (CommWorld
    // then surfaces the first rank's exception on the caller thread).
    std::exception_ptr rank_error;
    // Leader-ness comes from the layout, not from the splits, so the
    // recovery drain below works even when an exception escapes before the
    // energy-level communicators exist.  (comm.split orders same-color
    // ranks by world rank, so k_comm.rank() == wr - group_first_rank.)
    const int in_group =
        wr - lay.group_first_rank[static_cast<std::size_t>(my_color)];
    const bool leader = in_group % lay.width == 0;
    bool protocol_done = !leader;  ///< non-leaders owe the coordinator nothing
    // Only the root may read the request's pre-folds.
    const auto root_pre_folds = [&](std::size_t k) {
      return wr == 0 ? pre_folds(request, k)
                     : std::vector<const dft::FoldedLead*>{};
    };

    // --- input distribution (momentum level) ---------------------------
    // The root pushes each momentum-group leader the blocks of its owned
    // k points; sends are buffered, so this cannot deadlock with the
    // coordinator service started right after.
    std::thread service;
    if (wr == 0) {
      for (int c = 0; c < lay.num_groups; ++c) {
        const int lr = lay.group_first_rank[static_cast<std::size_t>(c)];
        if (lr == 0) continue;
        for (const idx k : lay.owned[static_cast<std::size_t>(c)])
          send_materials(comm, lr, request, static_cast<std::size_t>(k));
      }
      Comm service_comm = comm;  // same rank, shared mailboxes
      service = std::thread(
          [&co, &request, &service_error, service_comm]() mutable {
            serve_queue(service_comm, co, request, service_error);
          });
    }

    // The guarded section spans everything between the service spawn and
    // the join.  The per-stage handlers inside degrade a failed stage to
    // the drain path; this outer catch covers the rest (OOM-class throws
    // from splits, broadcasts, or queue traffic) — without it an exception
    // unwinding past the joinable service thread would std::terminate.
    RankLocal local;
    // Spatial-release bookkeeping lives outside the guarded section: if an
    // exception escapes the pull loop, the leader must still send its
    // members the done marker or they would wait on the task broadcast
    // forever.
    std::optional<Comm> spatial_comm;
    bool members_released = true;
    // Announcement wire format (7 doubles): {flag, ik, ie, fetched, algo,
    // Re(E), Im(E)}.  Im(E) != 0 marks a contour node; those are announced
    // with the (non-cooperative) RGF algorithm, so members handle the
    // fetched-blocks broadcast and then skip the solve.
    const std::vector<double> kSpatialDone{-1.0, 0.0, 0.0, 0.0,
                                           0.0,  0.0, 0.0};
    // The single release point for the members' service loop — every exit
    // path (drain, normal completion, escaped exception) goes through it,
    // so the done marker can never be sent twice or with a stale shape.
    const auto release_members = [&]() {
      if (members_released || !spatial_comm.has_value()) return;
      try {
        std::vector<double> done = kSpatialDone;
        spatial_comm->bcast(done, 0);
      } catch (...) {
      }
      members_released = true;
    };
    try {
      Comm k_comm = comm.split(my_color, wr);
      Comm e_comm = k_comm.split(k_comm.rank() / lay.width, k_comm.rank());
      const int egroup = k_comm.rank() / lay.width;

      // --- spatial level: does this energy group solve cooperatively? ---
      // Width > 1 makes each (k, E) task a group-wide solve: the leader
      // runs the OBC + SPIKE merge, the members compute their share of the
      // SPIKE partitions on their own copy of A (broadcast once at input
      // distribution).  Backends that can never split (block_lu, bcr, rgf
      // requested statically) skip the whole member protocol — the extra
      // ranks idle exactly like the pre-spatial engine; kAuto keeps it on
      // because its per-task resolution may pick a cooperative backend.
      const bool may_cooperate =
          request.point.solver == solvers::SolverAlgorithm::kAuto ||
          solvers::algorithm_is_cooperative(request.point.solver);
      const bool spatial_group =
          lay.width > 1 && e_comm.size() > 1 && may_cooperate;
      // Per-rank persistent boundary cache (nullptr when caching is off):
      // survives across run() calls, so repeated sweeps — the SCF outer
      // loop — reuse this rank's lead eigenproblem solves.
      const transport::EnergyPointOptions popt = sweep_options(
          request, rank_cache(wr), spatial_group ? &e_comm : nullptr);
      if (leader && spatial_group) {
        spatial_comm = e_comm;
        members_released = false;
      }

      // --- spatial level: this energy group's accelerator share --------
      std::optional<parallel::DevicePool> slice_storage;
      parallel::DevicePool* my_pool = nullptr;
      if (pool_ != nullptr) {
        slice_storage.emplace(pool_->slice(lay.leader_index(my_color, egroup),
                                           lay.num_leaders));
        my_pool = &*slice_storage;
      }

      // This leader's executor over its accelerator slice.  The residency
      // cache is the rank's persistent one, so operands staged in this
      // sweep hit residency in the next (SCF iterations).
      std::optional<TaskRunner> runner;
      if (leader)
        runner.emplace(request, lay, config_, popt, my_pool,
                       rank_residency(wr));

      // Every group member receives the owned blocks once via the group
      // broadcast.  Energy-group leaders fold/assemble them to solve;
      // members of a spatial group assemble them too — they need their own
      // device matrices to compute SPIKE partitions of A per task.
      std::map<idx, std::unique_ptr<KData>> cache;
      for (const idx k : lay.owned[static_cast<std::size_t>(my_color)]) {
        const auto sk = static_cast<std::size_t>(k);
        std::vector<dft::LeadBlocks> leads(m_count);
        if (k_comm.rank() == 0 && rank_error == nullptr) {
          try {
            leads = wr == 0 ? material_column(request, sk)
                            : recv_materials(comm, 0, m_count);
          } catch (...) {
            rank_error = std::current_exception();
            leads.assign(m_count, dft::LeadBlocks{});
          }
        }
        // Collectives over the momentum group — always run, so members
        // never stall on a group whose inputs failed to arrive.  The
        // broadcast count is symmetric on every rank (m_count comes from
        // the shared request).
        for (auto& lead : leads) broadcast_lead_blocks(k_comm, lead);
        if ((!leader && !spatial_group) || rank_error != nullptr) continue;
        try {
          // The root folded its leads when the simulator was built (and
          // the SCF loop sweeps the same ones dozens of times); its leader
          // reuses them instead of re-folding per run.
          cache.emplace(k, leader ? runner->load(std::move(leads),
                                                 root_pre_folds(sk))
                                  : std::make_unique<KData>(
                                        std::move(leads), request,
                                        /*leader=*/false));
        } catch (...) {
          rank_error = std::current_exception();
        }
      }

      // --- energy level: pull tasks until the coordinator says done ----
      if (leader) {
        // Every pulled task queues in `pending`, which flushes through the
        // executor when it reaches the batch cap, when the bucket key
        // changes (a stolen k with different blocks, a Green's-function
        // node after real-axis points), and at protocol end.  Stolen
        // blocks are fetched at queueing time, so the fetch rides ahead of
        // the flush.  The cap is 1 without batch_tasks (one solve per
        // pulled task — the unbatched baseline) and in spatial groups,
        // which announce and solve cooperatively one point at a time.
        const std::size_t batch_cap =
            config_.batch_tasks && !spatial_group
                ? static_cast<std::size_t>(std::max(1, config_.max_batch))
                : 1;
        std::vector<Task> pending;
        BucketKey pending_key{};
        const auto flush_pending = [&]() {
          if (pending.empty()) return;
          std::vector<Task> batch;
          batch.swap(pending);
          if (rank_error != nullptr) return;  // drained, not solved
          try {
            runner->run(batch, local);
          } catch (...) {
            rank_error = std::current_exception();
          }
        };
        for (;;) {
          comm.send({0.0, static_cast<double>(my_color)}, 0, kTagRequest);
          const auto assign = comm.recv(0, kTagAssign);
          const auto ik = static_cast<idx>(assign.at(0));
          if (ik < 0) break;
          if (rank_error != nullptr) {
            // Drain, don't solve — and stop announcing tasks so the
            // members exit their service loop instead of waiting for a
            // cooperative solve that will never run.
            pending.clear();
            release_members();
            continue;
          }
          try {
            const auto ie = static_cast<idx>(assign.at(1));
            auto it = cache.find(ik);
            bool fetched = false;
            if (it == cache.end()) {
              // Stolen k: fetch its blocks from the coordinator, once.  Its
              // boundary-cache keys carry the *global* k index, so stolen
              // tasks land in the thief's cache under the owner's k and two
              // momenta sharing an energy can never alias.
              comm.send({1.0, static_cast<double>(ik)}, 0, kTagRequest);
              const auto sik = static_cast<std::size_t>(ik);
              it = cache
                       .emplace(ik, runner->load(recv_materials(comm, 0,
                                                                m_count),
                                                 root_pre_folds(sik)))
                       .first;
              fetched = true;
            }
            const Task task{ik, ie, it->second.get()};
            // --- spatial level: announce the task to the group ---------
            // The resolved backend travels with the task: members follow
            // the leader's choice (kAuto resolution is pure, but a member
            // that lost its inputs could not resolve locally — with the
            // algorithm on the wire it can still honor the protocol by
            // sending placeholder partitions).  The announcement also
            // carries the global (ik, ie), so every rank of the group
            // labels the task by the leader's k no matter whose queue pull
            // (or steal) produced it.
            if (spatial_group) {
              const bool is_gf = lay.is_greens(ik, ie);
              const auto sik = static_cast<std::size_t>(ik);
              const numeric::cplx z =
                  is_gf ? request.gf_nodes[sik][static_cast<std::size_t>(
                              ie - lay.n_real[sik])]
                        : numeric::cplx{
                              request.energies[sik]
                                              [static_cast<std::size_t>(ie)],
                              0.0};
              const transport::ContactSet& contacts = task.kd->contacts;
              const idx nbb = task.kd->dm.h.num_blocks();
              const idx sbb = task.kd->dm.h.block_size();
              const solvers::SolverContext binding{my_pool, popt.partitions,
                                                   &e_comm};
              // GF nodes announce the (non-cooperative) RGF diagonal: the
              // members run the fetched-blocks broadcast and skip the
              // solve, exactly like a statically requested RGF task.  So
              // does every task off the pair route: solve_attached never
              // splits spatially, and the members must not wait to serve a
              // cooperative solve the leader runs solo.
              const bool solo =
                  is_gf ||
                  !transport::pair_route(contacts, nbb, popt.scattering);
              const auto algo =
                  solo ? solvers::SolverAlgorithm::kRgf
                       : solvers::resolve_algorithm(popt.solver, nbb, sbb,
                                                    2 * sbb, binding);
              std::vector<double> announce{
                  1.0, static_cast<double>(ik), static_cast<double>(ie),
                  fetched ? 1.0 : 0.0,
                  static_cast<double>(static_cast<int>(algo)), z.real(),
                  z.imag()};
              e_comm.bcast(announce, 0);
              // A stolen k's device lead reaches the members through the
              // group: material 0 is all they assemble.
              if (fetched)
                broadcast_lead_blocks(e_comm, it->second->leads[0]);
            }
            const BucketKey key = runner->key(task);
            if (!pending.empty() && key != pending_key) flush_pending();
            pending_key = key;
            pending.push_back(task);
            if (pending.size() >= batch_cap) flush_pending();
          } catch (...) {
            rank_error = std::current_exception();
          }
        }
        flush_pending();  // the tail bucket the done marker cut short
        protocol_done = true;
        release_members();
      } else if (spatial_group) {
        // --- spatial members: serve the group's cooperative solves -----
        transport::EnergyPointContext ctx;
        for (;;) {
          std::vector<double> task;
          e_comm.bcast(task, 0);
          if (task.size() < 7 || task[0] < 0.0) break;
          const auto ik = static_cast<idx>(task[1]);
          const bool fetched = task[3] != 0.0;
          const auto algo = static_cast<solvers::SolverAlgorithm>(
              static_cast<int>(task[4]));
          if (fetched) {
            std::vector<dft::LeadBlocks> leads(1);
            broadcast_lead_blocks(e_comm, leads[0]);
            if (rank_error == nullptr && cache.find(ik) == cache.end()) {
              try {
                cache.emplace(ik, std::make_unique<KData>(std::move(leads),
                                                          request,
                                                          /*leader=*/false));
              } catch (...) {
                rank_error = std::current_exception();
              }
            }
          }
          if (!solvers::algorithm_is_cooperative(algo)) continue;
          const auto it = cache.find(ik);
          if (rank_error != nullptr || it == cache.end()) {
            // No usable inputs: send placeholder partitions so the leader
            // sees an error, not a hang.
            solvers::spike_spatial_member_poison(
                e_comm, popt.partitions,
                algo == solvers::SolverAlgorithm::kSpike);
            continue;
          }
          try {
            // The wire energy is authoritative (bit-identical: the leader
            // read the same request double); GF announcements never reach
            // here — kRgf fails the cooperative check above.
            const double energy = task[5];
            const double t0 = now_seconds();
            transport::serve_spatial_point(ctx, it->second->dm, energy, algo,
                                           popt.partitions, e_comm);
            local.busy_seconds += now_seconds() - t0;
          } catch (...) {
            rank_error = std::current_exception();
          }
        }
      }
    } catch (...) {
      rank_error = std::current_exception();
    }
    // The leader may have left the guarded section with its members still
    // waiting: release them (best effort — the marker is tiny).
    release_members();
    if (leader && !protocol_done) {
      // The exception escaped before (or inside) the pull loop: count this
      // leader out with the coordinator so rank 0 can join the service
      // thread.  Best effort — the drain messages are tiny.
      try {
        for (;;) {
          comm.send({0.0, static_cast<double>(my_color)}, 0, kTagRequest);
          if (static_cast<idx>(comm.recv(0, kTagAssign).at(0)) < 0) break;
        }
      } catch (...) {
      }
    }
    if (wr == 0) service.join();

    // --- assembly: rooted collectives ----------------------------------
    const auto gathered = comm.gatherv(local.samples, 0);
    std::vector<double> charge_gathered;
    const bool want_charge =
        !request.density_weight.empty() || request_has_greens(request);
    if (want_charge) charge_gathered = comm.gatherv(local.charge_samples, 0);
    const auto rank_stats = comm.gatherv(stats_row(local), 0);
    if (wr == 0)
      assemble(out, request, lay, co.stolen, gathered, charge_gathered,
               rank_stats);

    // The protocol is drained and every collective matched; now the error
    // may surface.
    if (rank_error == nullptr && wr == 0 && service_error != nullptr)
      rank_error = service_error;
    if (rank_error != nullptr) std::rethrow_exception(rank_error);
  });
  out.stats.wall_seconds = now_seconds() - t_start;
  return out;
}

}  // namespace omenx::omen
