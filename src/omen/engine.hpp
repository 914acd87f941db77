// Distributed execution engine for the (k, E) transport workload — the
// Fig. 9 hierarchy wired end-to-end over CommWorld ranks.
//
// The engine maps the paper's three-level communicator hierarchy onto a
// rank world:
//   momentum level: the world splits into one group per k point, sized by
//     allocate_groups (the dynamic node-group allocation of Ref. [45]);
//     with fewer ranks than k points every rank becomes a group that owns
//     several k.
//   energy level:   each momentum group splits into energy groups whose
//     leaders pull (k, E) tasks from the coordinator's queue; when a
//     group's own k runs dry it is handed points of the most-loaded other
//     k (work stealing between groups).
//   spatial level:  each energy group receives a slice of the node's
//     emulated accelerators (DevicePool::slice) and, with
//     ranks_per_energy_group > 1, solves each (k, E) task *cooperatively*:
//     the group leader runs the OBCs and the SPIKE reduced system while the
//     members compute their share of the SPIKE partitions on their own copy
//     of A = E*S - H (solvers::spike_partition_owner) — one task, many
//     ranks, bit-identical to the width-1 solve for equal partition counts.
// Inputs travel once: the root sends each momentum-group leader its lead
// blocks, the leader rebroadcasts inside the group (broadcast_lead_blocks);
// a stolen k's blocks are fetched from the coordinator on first use and
// cached.  Results return through the rooted collectives (gatherv /
// reduce), assembled deterministically by flat task index, so the spectrum
// is identical for any world size.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/device_backend.hpp"
#include "numeric/types.hpp"
#include "obc/boundary_cache.hpp"
#include "parallel/device.hpp"
#include "transport/transmission.hpp"

namespace omenx::omen {

using numeric::idx;

struct EngineConfig {
  int num_ranks = 1;               ///< world size (momentum x energy ranks)
  /// Energy-group width — the spatial level of Fig. 9.  Width w > 1 gives
  /// each (k, E) task to a whole group: cooperative backends (spike,
  /// splitsolve) split their `partitions` SPIKE partitions across the w
  /// ranks; non-cooperative backends leave the extra ranks idle.  Spectra
  /// are bit-identical across widths for equal partition counts.
  int ranks_per_energy_group = 1;
  bool work_stealing = true;       ///< hand idle groups other k's points
  /// Which task source feeds the engine's one task executor in a size-1
  /// world.  On (the default): the flat loop hands it every task of the
  /// sweep at once, so whole shape buckets run on the thread pool.  Off:
  /// the rank protocol runs anyway, its one leader handing over the tasks
  /// it pulls — the honest serial baseline benchmarks use.  Results are
  /// bit-identical either way.
  bool flat_single_rank = true;
  /// Per-rank OBC boundary caches, persistent across run() calls: the lead
  /// eigenproblem at an obc::BoundaryKey (k, E, shift, lead content, OBC
  /// backend and options) is solved once per rank and reused by every later
  /// sweep that revisits the point (SCF outer iterations, bias points,
  /// adaptive-grid passes).  Bit-identical to the uncached path — a hit
  /// replays the stored Boundary verbatim.  Off = recompute every
  /// evaluation (benchmark baseline).
  bool cache_boundaries = true;
  /// Fuse same-shape (k, E) tasks into batched numeric::Backend calls
  /// (transport::solve_energy_batch) inside the one task executor, whichever
  /// source feeds it: the flat loop's whole sweep or a leader's pulled
  /// tasks.  A k batches when its contacts are a symmetric pair, the
  /// scattering model attaches no probes, and the resolved solver
  /// advertises kBatchable; spatial groups (width > 1) always solve
  /// cooperatively, one point at a time.  Bit-identical to the unbatched
  /// path, task by task.  Off = solve_energy_point per task, and a leader
  /// solves each task as it pulls it (benchmark baseline).
  bool batch_tasks = true;
  /// Batch capacity — the chunk size of a batched call, and how many
  /// pulled tasks one leader queues before handing them to the executor.
  /// Also the *nominal* batch fed to kAuto resolution (rank-invariant,
  /// never the actual bucket fill, so every rank resolves the same
  /// backend).
  int max_batch = 16;
  /// Which numeric::Backend executes the batched device phase:
  ///   "auto"   — per shape bucket, host lanes vs device streams by the
  ///              perf::estimate_batch_seconds crossover (host wins without
  ///              an engine pool);
  ///   "host"   — always the thread-pool lanes;
  ///   "device" — always offload through this engine's DevicePool (each
  ///              leader drives its pool slice; degrades to host when the
  ///              engine was built without a pool);
  ///   any other registered backend name (numeric::register_backend).
  /// Every choice is bit-identical — backends run the same scalar kernels
  /// per item — so this only moves work and transfer accounting.  Unknown
  /// names throw std::invalid_argument from run().
  std::string backend = "auto";
};

/// One terminal of a sweep, in wire-friendly scalar form: every rank reads
/// these scalars straight from the shared request object (mu and the
/// per-contact cache-key ingredients never need explicit messages); only
/// the lead *matrices* travel through the communicator.
struct SweepContact {
  /// Chemical potential (eV).  The engine records it into the per-k
  /// ContactSet; charge weighting itself arrives pre-computed through
  /// SweepRequest::density_weight, and terminal currents are integrated by
  /// the caller (transport::buttiker_currents) from the returned T matrix.
  double mu = 0.0;
  /// Lead potential shift (eV): the boundary at E is the pristine lead's
  /// at E - shift.  The only place a sweep's contact shift lives — part of
  /// this contact's boundary-cache keys.
  double shift = 0.0;
  /// Attachment block: 0, transport::kLastBlock, or an interior block
  /// (interior blocks need a kMultiTerminal solver: rgf/block_lu/auto).
  idx block = transport::kLastBlock;
  /// Lead material: -1 = this k's entry of `leads`, m >= 0 = row m of
  /// `contact_leads`.
  int material = -1;
  /// Büttiker-probe strength (eV).  > 0 marks this terminal as a lead-less
  /// phenomenological probe (transport::Contact::probe_eta): no lead blocks
  /// travel or cache for it, its self-energy is the local -i*eta*I, and
  /// `material` must stay -1 (validate_request).  mu is the probe potential,
  /// normally pre-tuned by the caller (scattering::tune_probe_potentials).
  double probe_eta = 0.0;
};

/// Inputs of one distributed (k, E) sweep.  Only the root reads the lead
/// matrices; every other rank sees grid shapes and scalar options and
/// receives matrices through the communicator.
struct SweepRequest {
  const std::vector<dft::LeadBlocks>* leads = nullptr;  ///< per k, root only
  /// Optional pre-folded leads (same indexing as `leads`, root only): ranks
  /// holding the originals reuse them instead of re-folding every run —
  /// the SCF loop sweeps the same leads dozens of times.
  const std::vector<dft::FoldedLead>* folded = nullptr;
  std::vector<std::vector<double>> energies;            ///< per-k grids
  std::vector<double> potential;                        ///< per physical cell
  idx cells = 0;
  /// Per-point solve options.  `point.obc_opts.contact_shift` must stay 0
  /// (run() rejects anything else): shifts live on the contacts.
  transport::EnergyPointOptions point;
  /// Charge weights, indexed [contact][ik][ie] (contact order of
  /// `contacts`, grid shapes of `energies`).  When non-empty, each task
  /// folds sum_p weight[p][ik][ie] * (per-cell density injected by terminal
  /// p) into a per-cell accumulator reduced to the root.  Terminal p's
  /// density occupies its states at mu_p, so a two-contact ballistic charge
  /// carries the source's Fermi weights in the row of the contact at block
  /// 0 and the drain's in the other; a row of zeros drops that terminal.
  /// Every weight must be finite.
  std::vector<std::vector<std::vector<double>>> density_weight;
  /// Complex-plane Green's-function nodes per k (contour charge
  /// quadrature, charge::Quadrature).  When non-empty (same k-shape as
  /// `energies`; per-k grids may be empty), each node z becomes one extra
  /// task solving the diagonal of G = (zS - H - Sigma)^{-1} and folding
  /// Im(gf_weights[ik][in] * G_ii) into the per-cell charge accumulator.
  /// GF tasks ride the same queue, stealing, caching (keyed with Im(E)),
  /// and deterministic flat-order assembly as the real-axis tasks; they
  /// contribute charge only — no transmission entries.
  std::vector<std::vector<numeric::cplx>> gf_nodes;
  std::vector<std::vector<numeric::cplx>> gf_weights;  ///< same shape
  /// Terminal layout, >= 2 entries (run() rejects fewer).  The default is
  /// the two-contact device: the k's own lead at block 0 and at the last
  /// block, both unshifted.  Every k builds one transport::ContactSet from
  /// this list; a set whose two end contacts share one boundary (the same
  /// lead and shift, in either order) takes the batched and spatially
  /// cooperative pipeline, anything else solves per task through the
  /// ContactSet entry points.
  std::vector<SweepContact> contacts{SweepContact{0.0, 0.0, 0, -1, 0.0},
                                     SweepContact{}};
  /// Extra lead materials, indexed [material][ik] (root only, like
  /// `leads`).  Referenced by SweepContact::material.
  const std::vector<std::vector<dft::LeadBlocks>>* contact_leads = nullptr;
};

struct EngineStats {
  int ranks = 1;
  int energy_groups = 1;
  idx tasks_total = 0;               ///< real-axis + Green's-function tasks
  idx tasks_greens = 0;              ///< contour (complex-node) solves within
  idx tasks_stolen = 0;              ///< served outside the group's own k
  std::vector<idx> tasks_per_rank;
  std::vector<double> busy_seconds_per_rank;  ///< time inside solves
  double wall_seconds = 0.0;
  // --- batched-execution counters (zero when batch_tasks is off or the
  // resolved solver lacks kBatchable) ---------------------------------
  idx batches_issued = 0;       ///< batched pipeline invocations
  double mean_batch_size = 0.0;  ///< tasks per batch, averaged over batches
  idx prefetch_hits = 0;        ///< boundary-cache hits during OBC prefetch
  idx prefetch_misses = 0;      ///< prefetch misses (or caching disabled)
  // --- device-offload counters (zero on the host backend) --------------
  idx device_batches = 0;   ///< batches whose device phase was offloaded
  idx residency_hits = 0;   ///< staged operands already device-resident
  idx residency_misses = 0;  ///< staged operands that paid an H2D transfer
  double h2d_bytes = 0.0;   ///< host->device bytes this run (pool delta)
  double d2h_bytes = 0.0;   ///< device->host bytes this run (pool delta)
  /// Per pool device: kernel-busy seconds accumulated during this run —
  /// the Fig. 12(b) occupancy timeline's integral.  Empty without a pool.
  std::vector<double> device_busy_seconds;
  // --- dissipative-transport counters (zero for ballistic sweeps; the
  // probe-tuning loop runs *above* the engine, so these are filled by the
  // caller that owns it — omen::Simulator records its last tuning pass
  // here before handing the stats out) --------------------------------
  idx probe_terminals = 0;        ///< Büttiker probes attached per task
  idx probe_iterations = 0;       ///< Newton iterations of the tuning loop
  double probe_residual = 0.0;    ///< final max |I_probe| / max |I_terminal|
  /// Per-contact boundary-cache activity of *this run* (deltas of the
  /// persistent caches, summed over ranks; index = contact id, one entry
  /// per request contact).  Empty only when caching is disabled.  Contacts
  /// sharing a representative fetch under the lowest id, so in the default
  /// pair contact 0 carries every fetch and contact 1 none.  The
  /// per-contact lead-solve count of a run is `misses` (every miss is one
  /// OBC eigenproblem for that contact).
  std::vector<obc::BoundaryCache::Stats> contact_cache_stats;
};

/// Sweep outputs, valid on the calling (root) thread.
struct SweepResult {
  std::vector<std::vector<double>> transmission;  ///< [ik][ie] wave-function
  std::vector<std::vector<double>> caroli;        ///< [ik][ie] Green's-fn
  std::vector<std::vector<idx>> propagating;      ///< [ik][ie] channels
  std::vector<double> charge;                     ///< per cell, if requested
  /// Pairwise transmission [ik][ie][p*nc+q] — only shaped/filled for
  /// >= 3-terminal requests (2-terminal T stays in `transmission`/`caroli`).
  std::vector<std::vector<std::vector<double>>> t_matrix;
  EngineStats stats;
};

class Engine {
 public:
  explicit Engine(EngineConfig config, parallel::DevicePool* pool = nullptr);

  const EngineConfig& config() const noexcept { return config_; }

  /// Run the full sweep over a fresh CommWorld of config().num_ranks ranks
  /// (or, for the degenerate single-rank case, hand the whole sweep to the
  /// task executor in process).
  /// A throwing solve or transfer on any rank drains the queue protocol and
  /// the assembly collectives before surfacing here as an exception — the
  /// world never deadlocks on a failed rank.
  SweepResult run(const SweepRequest& request);

  /// Drop every rank's cached boundaries *and* device-resident operands —
  /// an explicit flush (cold-start measurements, bounding the footprint).
  /// Never needed for correctness: the keys are content-complete, so a
  /// changed lead, shift, or option set can never replay a stale entry.
  void invalidate_boundary_caches();

  /// Cumulative hit/miss/insert/invalidate counters summed over the
  /// per-rank caches (zeros when caching is disabled).
  obc::BoundaryCache::Stats boundary_cache_stats() const;

  /// Cumulative counters of one contact id, summed over the per-rank
  /// caches.  Contacts sharing a boundary fetch under the lowest id.
  obc::BoundaryCache::Stats contact_boundary_cache_stats(int contact) const;

 private:
  SweepResult run_flat(const SweepRequest& request);
  SweepResult run_distributed(const SweepRequest& request);
  /// Rank `rank`'s persistent cache, or nullptr when caching is off.
  obc::BoundaryCache* rank_cache(int rank) const;
  /// Rank `rank`'s persistent device-residency cache, or nullptr when the
  /// engine has no pool.
  numeric::ResidencyCache* rank_residency(int rank) const;

  EngineConfig config_;
  parallel::DevicePool* pool_;
  /// One cache per world rank (index 0 doubles as the flat loop's cache),
  /// created up front so rank threads never race on the vector.
  std::vector<std::unique_ptr<obc::BoundaryCache>> caches_;
  /// One device-residency cache per world rank, same indexing and lifetime
  /// discipline as caches_: the pool's devices outlive every run(), so
  /// operands staged in one sweep hit residency in the next (the cross-SCF
  /// story).  Ids hash the operand's BoundaryKey, so changed inputs are new
  /// ids, never stale hits.  Empty without a pool.
  std::vector<std::unique_ptr<numeric::ResidencyCache>> residency_;
};

}  // namespace omenx::omen
