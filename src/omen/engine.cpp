#include "omen/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

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

/// Lead materials that travel beside the per-k blocks: the rows of
/// contact_leads, in material order.
std::size_t num_materials(const SweepRequest& req) {
  return req.contact_leads != nullptr ? req.contact_leads->size() : 0;
}

/// The terminal layout of one k.  `lead`/`folded`/`lead_hash` are this k's
/// entry of `leads` (material -1); `extras`/`extra_folded`/`extra_hashes`
/// index the materials >= 0.  Every referenced object must outlive the
/// returned set.
transport::ContactSet build_contact_set(
    const SweepRequest& req, const dft::LeadBlocks& lead,
    const dft::FoldedLead& folded, std::uint64_t lead_hash,
    const std::vector<dft::LeadBlocks>& extras,
    const std::vector<dft::FoldedLead>& extra_folded,
    const std::vector<std::uint64_t>& extra_hashes) {
  std::vector<transport::Contact> cs;
  cs.reserve(req.contacts.size());
  for (const SweepContact& sc : req.contacts) {
    transport::Contact c;
    if (sc.probe_eta > 0.0) {
      // Büttiker probe: no lead material travels or caches for this
      // terminal — its self-energy is the local -i*eta*I.
      c.probe_eta = sc.probe_eta;
    } else if (sc.material < 0) {
      c.lead = &lead;
      c.folded = &folded;
      c.lead_hash = lead_hash;
    } else {
      const auto m = static_cast<std::size_t>(sc.material);
      c.lead = &extras[m];
      c.folded = &extra_folded[m];
      c.lead_hash = extra_hashes[m];
    }
    c.mu = sc.mu;
    c.shift = sc.shift;
    c.block = sc.block;
    cs.push_back(c);
  }
  return transport::ContactSet(std::move(cs));
}

/// lead_content_hash of every lead — computed once per (k, material) per
/// run, never per fetch.
std::vector<std::uint64_t> lead_hashes(
    const std::vector<dft::LeadBlocks>& leads) {
  std::vector<std::uint64_t> out;
  out.reserve(leads.size());
  for (const dft::LeadBlocks& lead : leads)
    out.push_back(transport::lead_content_hash(lead));
  return out;
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
        const auto k = static_cast<std::size_t>(msg.at(1));
        send_lead_blocks(comm, status.source, (*req.leads)[k]);
        // Thieves expect the extra materials right behind the k's own
        // blocks, in material order.
        for (std::size_t m = 0; m < num_materials(req); ++m)
          send_lead_blocks(comm, status.source, (*req.contact_leads)[m][k]);
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
      // empty-lead poison wakes it, its KData build fails on the empty
      // lead, and the leader's stage handler degrades to the drain path.
      // (A stream truncated mid-matrix still surfaces as an unpack error
      // rather than a hang for the same reason.)  Thieves read 1 + M
      // streams per fetch, so the poison matches that count.
      for (std::size_t s = 0; s < 1 + num_materials(req); ++s)
        comm.send({0.0}, r, kTagBlocks);
    }
  }
}

/// Everything one rank caches for a k point it solves: the lead blocks it
/// received, the folded/assembled device built from them, and the sweep
/// worker bound to the rank's warm context.
struct KData {
  dft::LeadBlocks lead;
  dft::FoldedLead folded;  ///< leaders only; members never run the OBCs
  std::uint64_t lead_hash = 0;  ///< leaders only: lead_content_hash(lead)
  /// Extra lead materials (SweepContact::material >= 0) and their folds —
  /// leaders only; members keep them empty.
  std::vector<dft::LeadBlocks> extra_leads;
  std::vector<dft::FoldedLead> extra_folded;
  dft::DeviceMatrices dm;
  std::unique_ptr<transport::EnergySweepWorker> worker;  ///< leaders only

  /// `build_worker` = false is the spatial-member variant: members only
  /// need the assembled device matrices to compute SPIKE partitions of A,
  /// so the lead folding, hashing, and the sweep worker are skipped.  The
  /// worker's ContactSet (build_contact_set) points at this KData's own
  /// members, which are stable for its lifetime (the per-rank cache holds
  /// KData by unique_ptr).
  KData(dft::LeadBlocks l, const SweepRequest& req,
        const transport::EnergyPointOptions& opts,
        transport::EnergyPointContext& ctx, parallel::DevicePool* pool,
        const dft::FoldedLead* pre_folded = nullptr, bool build_worker = true,
        std::vector<dft::LeadBlocks> extras = {})
      : lead(std::move(l)),
        folded(build_worker
                   ? (pre_folded != nullptr ? *pre_folded
                                            : dft::fold_lead(lead))
                   : dft::FoldedLead{}),
        extra_leads(std::move(extras)),
        dm(dft::assemble_device(lead, req.cells, req.potential)) {
    if (!build_worker) return;
    lead_hash = transport::lead_content_hash(lead);
    extra_folded.reserve(extra_leads.size());
    for (const dft::LeadBlocks& ex : extra_leads)
      extra_folded.push_back(dft::fold_lead(ex));
    worker = std::make_unique<transport::EnergySweepWorker>(
        ctx, dm,
        build_contact_set(req, lead, folded, lead_hash, extra_leads,
                          extra_folded, lead_hashes(extra_leads)),
        opts, pool);
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
  // Batched-execution accounting (stays zero when the leader ran the
  // unbatched scalar path, a spatial group, or a non-batchable solver).
  idx batches = 0;          ///< fused backend calls issued
  idx batched_tasks = 0;    ///< tasks that went through those calls
  idx prefetch_hits = 0;    ///< boundary-cache hits during OBC prefetch
  idx prefetch_misses = 0;  ///< prefetch misses (or caching disabled)
  idx device_batches = 0;   ///< batches offloaded to the device backend
  idx residency_hits = 0;   ///< staged operands already device-resident
  idx residency_misses = 0;  ///< staged operands that paid an H2D transfer
};

/// Doubles per real-axis sample on the gather wire: the classic 4 plus, for
/// >= 3-terminal requests, the row-major nc x nc pairwise T matrix.
/// Identical on every rank (all read the same request object).
std::size_t sample_stride(const SweepRequest& req) {
  const std::size_t nc = req.contacts.size();
  return 4 + (nc >= 3 ? nc * nc : 0);
}

void record_sample(RankLocal& local, const Layout& lay,
                   const SweepRequest& req, idx ik, idx ie,
                   const transport::EnergyPointResult& res) {
  local.samples.push_back(
      static_cast<double>(lay.e_prefix[static_cast<std::size_t>(ik)] + ie));
  local.samples.push_back(res.transmission);
  local.samples.push_back(res.transmission_caroli);
  local.samples.push_back(static_cast<double>(res.num_propagating));
  const std::size_t nc = req.contacts.size();
  if (nc >= 3) {
    // Zero-padded to the fixed stride so a task whose solve produced no
    // T matrix (nothing propagates) still parses on the root.
    const std::size_t want = nc * nc;
    for (std::size_t i = 0; i < want; ++i)
      local.samples.push_back(i < res.t_matrix.size() ? res.t_matrix[i]
                                                      : 0.0);
  }
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

void accumulate_charge(RankLocal& local, const SweepRequest& req,
                       const Layout& lay, const KData& kd, idx ik, idx ie,
                       const transport::EnergyPointResult& res) {
  const auto per_cell =
      weighted_task_charge(req, kd.lead.block_dim(), ik, ie, res);
  if (per_cell.empty()) return;
  local.charge_samples.push_back(
      static_cast<double>(lay.e_prefix[static_cast<std::size_t>(ik)] + ie));
  for (idx c = 0; c < req.cells; ++c)
    local.charge_samples.push_back(per_cell[static_cast<std::size_t>(c)]);
}

/// Per-cell charge of one Green's-function node: Im(w * G_ii) summed onto
/// physical cells.  The node weight w (contour jacobian * gauss weight *
/// Fermi factor, or a pole residue) already carries the -2 spectral
/// normalization, so this is the GF-side twin of weighted_task_charge.
std::vector<double> greens_task_charge(const SweepRequest& req, idx block_dim,
                                       numeric::cplx weight,
                                       const std::vector<numeric::cplx>& diag) {
  std::vector<double> out(static_cast<std::size_t>(req.cells), 0.0);
  for (std::size_t i = 0; i < diag.size(); ++i)
    out[i / static_cast<std::size_t>(block_dim)] += (weight * diag[i]).imag();
  return out;
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
  if (req.leads == nullptr)
    throw std::invalid_argument("Engine: request.leads is null");
  if (req.energies.empty())
    throw std::invalid_argument("Engine: request has no k points");
  if (req.leads->size() < req.energies.size())
    throw std::invalid_argument("Engine: fewer lead blocks than k grids");
  if (req.folded != nullptr && req.folded->size() < req.energies.size())
    throw std::invalid_argument("Engine: fewer folded leads than k grids");
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
  const int materials = static_cast<int>(num_materials(req));
  for (const SweepContact& c : req.contacts) {
    if (!finite(c.shift))
      throw std::invalid_argument("Engine: non-finite contact shift");
    if (c.material >= materials)
      throw std::invalid_argument(
          "Engine: contact material index out of range");
    if (c.probe_eta < 0.0)
      throw std::invalid_argument("Engine: contact probe_eta is negative");
    if (c.probe_eta > 0.0 && c.material >= 0)
      throw std::invalid_argument(
          "Engine: a Buettiker probe carries no lead material "
          "(probe_eta > 0 requires material == -1)");
  }
  if (req.contact_leads != nullptr)
    for (const auto& row : *req.contact_leads)
      if (row.size() < req.energies.size())
        throw std::invalid_argument("Engine: contact_leads k-shape mismatch");
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
  const std::size_t n = static_cast<std::size_t>(lay.total_tasks);
  const std::size_t nk = request.energies.size();

  // The flat loop has no spatial sub-communicators; scrub any stale handle
  // a caller may have left in the options.
  transport::EnergyPointOptions popt = request.point;
  popt.spatial = nullptr;
  // The engine owns the boundary-cache binding: its rank-0 persistent
  // cache (shared by the pool workers — BoundaryCache is thread-safe), or
  // nothing when caching is disabled.
  popt.boundary_cache = rank_cache(0);
  // Only pay the drain-injection RHS columns when the request carries
  // weights to fold them into.
  popt.want_density_r = !request.density_weight.empty();
  const std::size_t ncon = request.contacts.size();

  // Root-local device assembly, one per k (shared across its energies).
  // Pre-folded leads from the request are reused as-is.
  std::vector<dft::FoldedLead> folded_local;
  const std::vector<dft::FoldedLead>* folded = request.folded;
  if (folded == nullptr) {
    folded_local.resize(nk);
    for (std::size_t k = 0; k < nk; ++k)
      folded_local[k] = dft::fold_lead((*request.leads)[k]);
    folded = &folded_local;
  }
  std::vector<dft::DeviceMatrices> dms(nk);
  for (std::size_t k = 0; k < nk; ++k)
    dms[k] = dft::assemble_device((*request.leads)[k], request.cells,
                                  request.potential);
  const std::vector<std::uint64_t> lead_hash = lead_hashes(*request.leads);

  // Per-k copies of the extra lead materials, their folds, and the
  // ContactSet pointing at them (stable — the vectors are fully built
  // before any set references them).
  const std::size_t m_count = num_materials(request);
  std::vector<std::vector<dft::LeadBlocks>> extra_leads_k(nk);
  std::vector<std::vector<dft::FoldedLead>> extra_folded_k(nk);
  std::vector<transport::ContactSet> contact_sets(nk);
  for (std::size_t k = 0; k < nk; ++k) {
    for (std::size_t m = 0; m < m_count; ++m) {
      extra_leads_k[k].push_back((*request.contact_leads)[m][k]);
      extra_folded_k[k].push_back(dft::fold_lead(extra_leads_k[k].back()));
    }
    contact_sets[k] = build_contact_set(
        request, (*request.leads)[k], (*folded)[k], lead_hash[k],
        extra_leads_k[k], extra_folded_k[k], lead_hashes(extra_leads_k[k]));
  }

  const bool has_greens = request_has_greens(request);
  const bool want_charge = !request.density_weight.empty() || has_greens;
  std::vector<std::vector<double>> point_charge;
  if (want_charge) point_charge.resize(n);
  double busy_total = 0.0;
  idx greens_done = 0;

  // One Green's-function (contour) task: diagonal of G at the complex node,
  // folded into per-cell charge with the node's complex weight.
  const auto solve_greens_flat = [&](std::size_t flat) {
    const auto [ik, ie] = lay.unflatten(static_cast<idx>(flat));
    const auto sk = static_cast<std::size_t>(ik);
    const auto sg =
        static_cast<std::size_t>(ie - lay.n_real[sk]);
    transport::EnergyPointOptions task_opt = popt;
    task_opt.k_index = ik;
    const auto diag = transport::solve_greens_diagonal(
        dms[sk], contact_sets[sk], request.gf_nodes[sk][sg], task_opt);
    point_charge[flat] = greens_task_charge(
        request, (*request.leads)[sk].block_dim(), request.gf_weights[sk][sg],
        diag);
  };

  // Batch only when the representative resolution (rank-invariant: the
  // configured max_batch, the first k's block structure) lands on a solver
  // that advertises kBatchable; otherwise the per-task thread-pool loop
  // keeps its across-task parallelism, which the scalar fallback inside
  // solve_energy_batch would forfeit.
  // The flat loop is its own leader: one DeviceBackend over the whole pool
  // (when bound), persistent rank-0 residency, and the configured backend
  // policy deciding where each shape bucket's device phase runs.
  std::optional<numeric::DeviceBackend> device_storage;
  const BackendArbiter arbiter = make_backend_arbiter(
      config_, device_storage, pool_, rank_residency(0));

  // The batched pipeline is the one-boundary pair arithmetic: every k's
  // terminals must be a symmetric pair.  A scattering model that attaches
  // probes turns every task into a multi-terminal solve (solve_energy_batch
  // would only degrade it back to scalar solves), so keep the across-task
  // thread-pool parallelism instead; a model that attaches nothing (kNone,
  // buttiker at eta <= 0) changes nothing here.
  bool use_batches = config_.batch_tasks && n > 0;
  for (std::size_t k = 0; k < nk && use_batches; ++k)
    use_batches = contact_sets[k].symmetric_pair(dms[k].h.num_blocks());
  if (use_batches &&
      popt.scattering.algorithm != scattering::ScatteringAlgorithm::kNone)
    use_batches = scattering::assemble_probes(popt.scattering,
                                              dms[0].h.num_blocks(),
                                              {0, dms[0].h.num_blocks() - 1})
                      .empty();
  if (use_batches) {
    const idx nbb = dms[0].h.num_blocks();
    const idx sbb = dms[0].h.block_size();
    solvers::SolverContext binding;
    binding.pool = pool_;
    binding.partitions = popt.partitions;
    binding.batch = std::max(1, config_.max_batch);
    binding.backend = &arbiter.choose(nbb, sbb);
    const auto algo =
        solvers::resolve_algorithm(popt.solver, nbb, sbb, 2 * sbb, binding);
    use_batches =
        (solvers::algorithm_capabilities(algo) & solvers::kBatchable) != 0;
  }

  if (use_batches) {
    // Bucket flat tasks by block structure *and task kind*: batching fuses
    // kernels within one shape, never across shapes, and Green's-function
    // nodes never fuse with wave-function points (they are scalar RGF
    // diagonal solves, executed below with across-task parallelism
    // instead).  Buckets preserve flat order, so the per-task outputs (and
    // the charge assembly below) stay deterministic.
    std::map<std::tuple<idx, idx, bool>, std::vector<std::size_t>> buckets;
    for (std::size_t flat = 0; flat < n; ++flat) {
      const auto [ik, ie] = lay.unflatten(static_cast<idx>(flat));
      const auto sk = static_cast<std::size_t>(ik);
      buckets[{dms[sk].h.num_blocks(), dms[sk].h.block_size(),
               lay.is_greens(ik, ie)}]
          .push_back(flat);
    }
    const std::size_t cap =
        static_cast<std::size_t>(std::max(1, config_.max_batch));
    transport::BatchContext bctx;
    transport::BatchStats bstats;
    for (const auto& [shape, flats] : buckets) {
      if (std::get<2>(shape)) {
        // Green's-function bucket: thread-pool loop over the nodes, each
        // worker on its own warm context.
        std::vector<double> busy(flats.size(), 0.0);
        parallel::ThreadPool::global().parallel_for(
            flats.size(), [&](std::size_t j) {
              const double t0 = now_seconds();
              solve_greens_flat(flats[j]);
              busy[j] = now_seconds() - t0;
            });
        busy_total += std::accumulate(busy.begin(), busy.end(), 0.0);
        greens_done += static_cast<idx>(flats.size());
        continue;
      }
      // The whole shape bucket lands on one backend: host lanes or device
      // streams, by policy/crossover.  Either way the per-item kernels are
      // identical, so the spectra cannot depend on the choice.
      numeric::Backend& bucket_backend =
          arbiter.choose(std::get<0>(shape), std::get<1>(shape));
      for (std::size_t base = 0; base < flats.size(); base += cap) {
        const std::size_t count = std::min(cap, flats.size() - base);
        std::vector<transport::BatchTask> chunk;
        chunk.reserve(count);
        for (std::size_t j = 0; j < count; ++j) {
          const auto [ik, ie] =
              lay.unflatten(static_cast<idx>(flats[base + j]));
          const auto sk = static_cast<std::size_t>(ik);
          const auto se = static_cast<std::size_t>(ie);
          chunk.push_back(
              {ik, request.energies[sk][se], &dms[sk], &contact_sets[sk]});
        }
        const double t0 = now_seconds();
        const auto res = transport::solve_energy_batch(
            bctx, chunk, popt, pool_, bucket_backend,
            config_.max_batch, &bstats);
        busy_total += now_seconds() - t0;
        for (std::size_t j = 0; j < count; ++j) {
          const std::size_t flat = flats[base + j];
          const auto [ik, ie] = lay.unflatten(static_cast<idx>(flat));
          const auto sk = static_cast<std::size_t>(ik);
          const auto se = static_cast<std::size_t>(ie);
          out.transmission[sk][se] = res[j].transmission;
          out.caroli[sk][se] = res[j].transmission_caroli;
          out.propagating[sk][se] = res[j].num_propagating;
          if (want_charge)
            point_charge[flat] = weighted_task_charge(
                request, (*request.leads)[sk].block_dim(), ik, ie, res[j]);
        }
      }
    }
    if (bstats.batched_solve) {
      out.stats.batches_issued = bstats.batches;
      if (bstats.batches > 0)
        out.stats.mean_batch_size = static_cast<double>(bstats.tasks) /
                                    static_cast<double>(bstats.batches);
    }
    out.stats.prefetch_hits = bstats.prefetch_hits;
    out.stats.prefetch_misses = bstats.prefetch_misses;
    out.stats.device_batches = bstats.device_batches;
    out.stats.residency_hits = bstats.residency_hits;
    out.stats.residency_misses = bstats.residency_misses;
  } else {
    // The flat (k, E) thread-pool loop the simulator always ran, with
    // per-worker warm contexts.
    std::vector<double> busy(n, 0.0);
    parallel::ThreadPool::global().parallel_for(n, [&](std::size_t flat) {
      const auto [ik, ie] = lay.unflatten(static_cast<idx>(flat));
      const double t0 = now_seconds();
      if (lay.is_greens(ik, ie)) {
        solve_greens_flat(flat);
        busy[flat] = now_seconds() - t0;
        return;
      }
      const auto sk = static_cast<std::size_t>(ik);
      const auto se = static_cast<std::size_t>(ie);
      // The cache key's momentum component is the global k index.
      transport::EnergyPointOptions task_opt = popt;
      task_opt.k_index = ik;
      const auto res = transport::solve_energy_point(
          dms[sk], contact_sets[sk], request.energies[sk][se], task_opt,
          pool_);
      busy[flat] = now_seconds() - t0;
      out.transmission[sk][se] = res.transmission;
      out.caroli[sk][se] = res.transmission_caroli;
      out.propagating[sk][se] = res.num_propagating;
      if (ncon >= 3 && !res.t_matrix.empty())
        out.t_matrix[sk][se] = res.t_matrix;
      if (want_charge)
        point_charge[flat] = weighted_task_charge(
            request, (*request.leads)[sk].block_dim(), ik, ie, res);
    });
    busy_total = std::accumulate(busy.begin(), busy.end(), 0.0);
    for (idx k = 0; k < static_cast<idx>(nk); ++k)
      if (!request.gf_nodes.empty())
        greens_done +=
            static_cast<idx>(request.gf_nodes[static_cast<std::size_t>(k)]
                                 .size());
  }
  // Deterministic charge assembly: sum in flat task order.
  for (std::size_t flat = 0; flat < point_charge.size(); ++flat)
    for (std::size_t c = 0; c < point_charge[flat].size(); ++c)
      out.charge[c] += point_charge[flat][c];

  out.stats.ranks = 1;
  out.stats.energy_groups = 1;
  out.stats.tasks_total = lay.total_tasks;
  out.stats.tasks_greens = greens_done;
  out.stats.tasks_per_rank = {lay.total_tasks};
  out.stats.busy_seconds_per_rank = {busy_total};
  out.stats.wall_seconds = now_seconds() - t_start;
  return out;
}

SweepResult Engine::run_distributed(const SweepRequest& request) {
  const double t_start = now_seconds();
  SweepResult out = shaped_result(request);
  const Layout lay(request, config_.num_ranks,
                   config_.ranks_per_energy_group);
  Coordinator co(lay, request, config_.work_stealing);
  // Extra lead materials travel beside each k's own blocks; the count is
  // read identically on every rank from the shared request.
  const std::size_t m_count = num_materials(request);
  const std::size_t stride = sample_stride(request);

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

    // --- input distribution (momentum level) ---------------------------
    // The root pushes each momentum-group leader the blocks of its owned
    // k points; sends are buffered, so this cannot deadlock with the
    // coordinator service started right after.
    std::thread service;
    if (wr == 0) {
      for (int c = 0; c < lay.num_groups; ++c) {
        const int lr = lay.group_first_rank[static_cast<std::size_t>(c)];
        if (lr == 0) continue;
        for (const idx k : lay.owned[static_cast<std::size_t>(c)]) {
          send_lead_blocks(comm, lr,
                           (*request.leads)[static_cast<std::size_t>(k)]);
          // The extra materials ride right behind the k's own blocks, in
          // material order (the receiver loop below reads them back
          // symmetrically).
          for (std::size_t m = 0; m < m_count; ++m)
            send_lead_blocks(
                comm, lr,
                (*request.contact_leads)[m][static_cast<std::size_t>(k)]);
        }
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
      transport::EnergyPointOptions popt = request.point;
      popt.spatial = spatial_group ? &e_comm : nullptr;
      // Per-rank persistent boundary cache (nullptr when caching is off):
      // survives across run() calls, so repeated sweeps — the SCF outer
      // loop — reuse this rank's lead eigenproblem solves.
      popt.boundary_cache = rank_cache(wr);
      // Mirrors run_flat: drain-injection columns only when there are
      // weights to consume them.
      popt.want_density_r = !request.density_weight.empty();
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

      // Every group member receives the owned blocks once via the group
      // broadcast.  Energy-group leaders fold/assemble them to solve;
      // members of a spatial group assemble them too — they need their own
      // device matrices to compute SPIKE partitions of A per task.
      transport::EnergyPointContext ctx;
      std::map<idx, std::unique_ptr<KData>> cache;
      for (const idx k : lay.owned[static_cast<std::size_t>(my_color)]) {
        dft::LeadBlocks lead;
        std::vector<dft::LeadBlocks> extras(m_count);
        if (k_comm.rank() == 0 && rank_error == nullptr) {
          try {
            lead = wr == 0 ? (*request.leads)[static_cast<std::size_t>(k)]
                           : recv_lead_blocks(comm, 0);
            for (std::size_t m = 0; m < m_count; ++m)
              extras[m] = wr == 0 ? (*request.contact_leads)[m]
                                                            [static_cast<
                                                                std::size_t>(k)]
                                  : recv_lead_blocks(comm, 0);
          } catch (...) {
            rank_error = std::current_exception();
            lead = dft::LeadBlocks{};
            extras.assign(m_count, dft::LeadBlocks{});
          }
        }
        // Collectives over the momentum group — always run, so members
        // never stall on a group whose inputs failed to arrive.  The
        // extras broadcast count is symmetric on every rank (m_count comes
        // from the shared request).
        broadcast_lead_blocks(k_comm, lead);
        for (auto& ex : extras) broadcast_lead_blocks(k_comm, ex);
        if ((!leader && !spatial_group) || rank_error != nullptr) continue;
        try {
          // The root folded its leads when the simulator was built (and
          // the SCF loop sweeps the same ones dozens of times); its leader
          // reuses them instead of re-folding per run.
          const dft::FoldedLead* pre =
              wr == 0 && request.folded != nullptr
                  ? &(*request.folded)[static_cast<std::size_t>(k)]
                  : nullptr;
          // The worker's boundary-cache key carries the *global* k index:
          // stolen tasks land in the thief's cache under the owner's k, so
          // two momenta sharing an energy can never alias.
          transport::EnergyPointOptions kopt = popt;
          kopt.k_index = k;
          cache.emplace(k, std::make_unique<KData>(std::move(lead), request,
                                                   kopt, ctx, my_pool, pre,
                                                   /*build_worker=*/leader,
                                                   std::move(extras)));
        } catch (...) {
          rank_error = std::current_exception();
        }
      }

      // --- energy level: pull tasks until the coordinator says done ----
      if (leader) {
        // Non-spatial leaders accumulate assignments into a same-shape
        // bucket and flush it through the batched pipeline: on capacity,
        // on a block-structure change (a stolen k with different blocks),
        // and at protocol end.  Stolen blocks are still fetched at
        // accumulation time, so the fetch rides ahead of the flush.
        // Spatial groups solve cooperatively, one point at a time, and only
        // a k whose terminals are a symmetric pair joins a bucket (every
        // other set solves per task through the ContactSet entry points).
        // An active scattering model disqualifies batching outright (the
        // device shape is unknown until a task's blocks arrive, so this is
        // spec-level, conservative): attached probes would only degrade
        // the batch to serial scalar solves inside solve_energy_batch.
        const bool use_batches =
            config_.batch_tasks && !spatial_group &&
            popt.scattering.algorithm ==
                scattering::ScatteringAlgorithm::kNone;
        const std::size_t batch_cap =
            static_cast<std::size_t>(std::max(1, config_.max_batch));
        // This leader's backend policy over its accelerator slice.  The
        // residency cache is the rank's persistent one, so operands staged
        // in this sweep hit residency in the next (SCF iterations).
        std::optional<numeric::DeviceBackend> device_storage;
        std::optional<BackendArbiter> arbiter;
        if (use_batches)
          arbiter = make_backend_arbiter(config_, device_storage, my_pool,
                                         rank_residency(wr));
        struct PendingTask {
          idx ik, ie;
          const KData* kd;
        };
        std::vector<PendingTask> pending;
        idx pending_nb = 0, pending_s = 0;
        transport::BatchContext bctx;
        const auto flush_pending = [&]() {
          if (pending.empty()) return;
          std::vector<PendingTask> batch;
          batch.swap(pending);
          if (rank_error != nullptr) return;  // drained, not solved
          try {
            std::vector<transport::BatchTask> bt;
            bt.reserve(batch.size());
            for (const PendingTask& p : batch)
              bt.push_back({p.ik,
                            request.energies[static_cast<std::size_t>(p.ik)]
                                            [static_cast<std::size_t>(p.ie)],
                            &p.kd->dm, &p.kd->worker->contacts()});
            // The flushed bucket's shape is (pending_nb, pending_s) — set
            // when its tasks were queued, before any shape change flushes.
            numeric::Backend& bucket_backend =
                arbiter.has_value() ? arbiter->choose(pending_nb, pending_s)
                                    : numeric::host_backend();
            transport::BatchStats bs;
            const double t0 = now_seconds();
            const auto res = transport::solve_energy_batch(
                bctx, bt, popt, my_pool, bucket_backend,
                config_.max_batch, &bs);
            local.busy_seconds += now_seconds() - t0;
            local.tasks += static_cast<idx>(batch.size());
            if (bs.batched_solve) {
              local.batches += bs.batches;
              local.batched_tasks += bs.tasks;
            }
            local.prefetch_hits += bs.prefetch_hits;
            local.prefetch_misses += bs.prefetch_misses;
            local.device_batches += bs.device_batches;
            local.residency_hits += bs.residency_hits;
            local.residency_misses += bs.residency_misses;
            for (std::size_t j = 0; j < batch.size(); ++j) {
              record_sample(local, lay, request, batch[j].ik, batch[j].ie,
                            res[j]);
              accumulate_charge(local, request, lay, *batch[j].kd,
                                batch[j].ik, batch[j].ie, res[j]);
            }
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
              // Stolen k: fetch its blocks from the coordinator, once.
              comm.send({1.0, static_cast<double>(ik)}, 0, kTagRequest);
              const dft::FoldedLead* pre =
                  wr == 0 && request.folded != nullptr
                      ? &(*request.folded)[static_cast<std::size_t>(ik)]
                      : nullptr;
              transport::EnergyPointOptions kopt = popt;
              kopt.k_index = ik;
              dft::LeadBlocks stolen = recv_lead_blocks(comm, 0);
              std::vector<dft::LeadBlocks> stolen_extras(m_count);
              for (std::size_t m = 0; m < m_count; ++m)
                stolen_extras[m] = recv_lead_blocks(comm, 0);
              it = cache
                       .emplace(ik, std::make_unique<KData>(
                                        std::move(stolen), request, kopt,
                                        ctx, my_pool, pre,
                                        /*build_worker=*/true,
                                        std::move(stolen_extras)))
                       .first;
              fetched = true;
            }
            const bool is_gf = lay.is_greens(ik, ie);
            const transport::ContactSet& contacts =
                it->second->worker->contacts();
            const idx nbb = it->second->dm.h.num_blocks();
            if (use_batches && !is_gf && contacts.symmetric_pair(nbb)) {
              const KData& kd = *it->second;
              const idx sbb = kd.dm.h.block_size();
              if (!pending.empty() &&
                  (nbb != pending_nb || sbb != pending_s))
                flush_pending();
              pending_nb = nbb;
              pending_s = sbb;
              pending.push_back({ik, ie, &kd});
              if (pending.size() >= batch_cap) flush_pending();
              continue;
            }
            const auto sik = static_cast<std::size_t>(ik);
            const numeric::cplx z =
                is_gf ? request.gf_nodes[sik][static_cast<std::size_t>(
                            ie - lay.n_real[sik])]
                      : numeric::cplx{
                            request.energies[sik][static_cast<std::size_t>(ie)],
                            0.0};
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
              solvers::SolverContext binding;
              binding.pool = my_pool;
              binding.partitions = popt.partitions;
              binding.spatial = &e_comm;
              const idx sbb = it->second->dm.h.block_size();
              // GF nodes announce the (non-cooperative) RGF diagonal: the
              // members run the fetched-blocks broadcast and skip the
              // solve, exactly like a statically requested RGF task.  So
              // do multi-terminal attachments (>= 3 contacts, interior
              // blocks, or probes): solve_attached never splits spatially,
              // and the members must not wait to serve a cooperative solve
              // the leader runs solo.  A dissimilar end pair still routes
              // through solve_boundary and may cooperate — unless the
              // scattering model attaches probes to it, which delegates
              // the solve to the multi-terminal path as well.
              const bool solo =
                  is_gf || !contacts.classic_pair(nbb) ||
                  contacts.has_probes() ||
                  (popt.scattering.algorithm !=
                       scattering::ScatteringAlgorithm::kNone &&
                   !scattering::assemble_probes(popt.scattering, nbb,
                                                {0, nbb - 1})
                        .empty());
              const auto algo =
                  solo ? solvers::SolverAlgorithm::kRgf
                       : solvers::resolve_algorithm(popt.solver, nbb, sbb,
                                                    2 * sbb, binding);
              std::vector<double> task{
                  1.0, static_cast<double>(ik), static_cast<double>(ie),
                  fetched ? 1.0 : 0.0,
                  static_cast<double>(static_cast<int>(algo)), z.real(),
                  z.imag()};
              e_comm.bcast(task, 0);
              // A stolen k's blocks reach the members through the group,
              // mirroring the owned-k broadcast at input distribution.
              if (fetched) broadcast_lead_blocks(e_comm, it->second->lead);
            }
            if (is_gf) {
              transport::EnergyPointOptions gopt = popt;
              gopt.k_index = ik;
              gopt.spatial = nullptr;  // the RGF diagonal is a solo solve
              const double t0 = now_seconds();
              const auto diag = it->second->worker->solve_greens(z, gopt);
              local.busy_seconds += now_seconds() - t0;
              ++local.tasks;
              ++local.greens_tasks;
              const auto sg = static_cast<std::size_t>(ie - lay.n_real[sik]);
              local.charge_samples.push_back(static_cast<double>(
                  lay.e_prefix[sik] + ie));
              const auto per_cell = greens_task_charge(
                  request, it->second->lead.block_dim(),
                  request.gf_weights[sik][sg], diag);
              local.charge_samples.insert(local.charge_samples.end(),
                                          per_cell.begin(), per_cell.end());
              continue;
            }
            const double energy =
                request.energies[static_cast<std::size_t>(ik)]
                                [static_cast<std::size_t>(ie)];
            const double t0 = now_seconds();
            const auto res = it->second->worker->solve(energy);
            local.busy_seconds += now_seconds() - t0;
            ++local.tasks;
            record_sample(local, lay, request, ik, ie, res);
            accumulate_charge(local, request, lay, *it->second, ik, ie, res);
          } catch (...) {
            rank_error = std::current_exception();
          }
        }
        flush_pending();  // the tail bucket the done marker cut short
        protocol_done = true;
        release_members();
      } else if (spatial_group) {
        // --- spatial members: serve the group's cooperative solves -----
        for (;;) {
          std::vector<double> task;
          e_comm.bcast(task, 0);
          if (task.size() < 7 || task[0] < 0.0) break;
          const auto ik = static_cast<idx>(task[1]);
          const bool fetched = task[3] != 0.0;
          const auto algo = static_cast<solvers::SolverAlgorithm>(
              static_cast<int>(task[4]));
          if (fetched) {
            dft::LeadBlocks lead;
            broadcast_lead_blocks(e_comm, lead);
            if (rank_error == nullptr && cache.find(ik) == cache.end()) {
              try {
                transport::EnergyPointOptions kopt = popt;
                kopt.k_index = ik;
                cache.emplace(ik, std::make_unique<KData>(
                                      std::move(lead), request, kopt, ctx,
                                      my_pool, nullptr,
                                      /*build_worker=*/false));
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
    const auto rank_stats = comm.gatherv(
        {local.busy_seconds, static_cast<double>(local.tasks),
         static_cast<double>(local.batches),
         static_cast<double>(local.batched_tasks),
         static_cast<double>(local.prefetch_hits),
         static_cast<double>(local.prefetch_misses),
         static_cast<double>(local.greens_tasks),
         static_cast<double>(local.device_batches),
         static_cast<double>(local.residency_hits),
         static_cast<double>(local.residency_misses)},
        0);

    if (wr == 0) {
      for (std::size_t i = 0; i + stride <= gathered.size(); i += stride) {
        const auto [ik, ie] = lay.unflatten(static_cast<idx>(gathered[i]));
        const auto sk = static_cast<std::size_t>(ik);
        const auto se = static_cast<std::size_t>(ie);
        out.transmission[sk][se] = gathered[i + 1];
        out.caroli[sk][se] = gathered[i + 2];
        out.propagating[sk][se] = static_cast<idx>(gathered[i + 3]);
        // stride > 4 carries the row-major ncon x ncon pairwise T matrix.
        for (std::size_t q = 0; q + 4 < stride; ++q)
          out.t_matrix[sk][se][q] = gathered[i + 4 + q];
      }
      if (want_charge) {
        // Deterministic charge: per-task contributions summed in flat task
        // order, independent of which rank solved what (work stealing
        // moves tasks between ranks run to run; mirrors run_flat).
        const std::size_t rec = 1 + static_cast<std::size_t>(request.cells);
        std::vector<std::vector<double>> per_task(
            static_cast<std::size_t>(lay.total_tasks));
        for (std::size_t i = 0; i + rec <= charge_gathered.size(); i += rec)
          per_task[static_cast<std::size_t>(charge_gathered[i])].assign(
              charge_gathered.begin() + static_cast<std::ptrdiff_t>(i + 1),
              charge_gathered.begin() + static_cast<std::ptrdiff_t>(i + rec));
        for (const auto& pc : per_task)
          for (std::size_t c = 0; c < pc.size(); ++c) out.charge[c] += pc[c];
      }
      out.stats.ranks = lay.world;
      out.stats.energy_groups = lay.num_leaders;
      out.stats.tasks_total = lay.total_tasks;
      out.stats.tasks_stolen = co.stolen;
      out.stats.tasks_per_rank.clear();
      out.stats.busy_seconds_per_rank.clear();
      idx batched_tasks_total = 0;
      constexpr std::size_t kStatsStride = 10;
      for (std::size_t r = 0; kStatsStride * r + 9 < rank_stats.size(); ++r) {
        const std::size_t base = kStatsStride * r;
        out.stats.busy_seconds_per_rank.push_back(rank_stats[base]);
        out.stats.tasks_per_rank.push_back(
            static_cast<idx>(rank_stats[base + 1]));
        out.stats.batches_issued += static_cast<idx>(rank_stats[base + 2]);
        batched_tasks_total += static_cast<idx>(rank_stats[base + 3]);
        out.stats.prefetch_hits += static_cast<idx>(rank_stats[base + 4]);
        out.stats.prefetch_misses +=
            static_cast<idx>(rank_stats[base + 5]);
        out.stats.tasks_greens += static_cast<idx>(rank_stats[base + 6]);
        out.stats.device_batches += static_cast<idx>(rank_stats[base + 7]);
        out.stats.residency_hits += static_cast<idx>(rank_stats[base + 8]);
        out.stats.residency_misses +=
            static_cast<idx>(rank_stats[base + 9]);
      }
      if (out.stats.batches_issued > 0)
        out.stats.mean_batch_size =
            static_cast<double>(batched_tasks_total) /
            static_cast<double>(out.stats.batches_issued);
    }

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
