#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <string>

#include "numeric/blas.hpp"
#include "numeric/device_backend.hpp"
#include "numeric/lu.hpp"
#include "parallel/comm.hpp"
#include "parallel/device.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/tracer.hpp"
#include "perf/machine.hpp"

namespace pp = omenx::parallel;
namespace nm = omenx::numeric;

TEST(ThreadPool, SubmitReturnsValue) {
  pp::ThreadPool pool(4);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  pp::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  pp::ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  pp::ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, DefaultSizeFollowsCpuAffinity) {
  // hardware_concurrency() ignores the affinity mask; the default pool size
  // must not (a pool pinned to one CPU runs one worker, not one per core).
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved), 0);
  int first = -1;
  for (int c = 0; c < CPU_SETSIZE && first < 0; ++c)
    if (CPU_ISSET(c, &saved)) first = c;
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
  std::size_t workers = 0;
  std::size_t usable = 0;
  {
    pp::ThreadPool pool(0);
    workers = pool.num_threads();
    usable = pp::ThreadPool::usable_cpus();
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
  }
  // The host cost model counts its lanes from the same mask.
  const int model_lanes = omenx::perf::host_model_lanes();
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved), 0);
  EXPECT_EQ(workers, 1u);
  EXPECT_EQ(usable, 1u);
  EXPECT_EQ(model_lanes, 1);
  EXPECT_EQ(pp::ThreadPool::usable_cpus(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
}

TEST(Tracer, WindowIsBounded) {
  // Spans are recorded all the time; the log keeps a bounded window.
  pp::Tracer tracer;
  const std::size_t n = pp::Tracer::kCapacity + 2;
  for (std::size_t i = 0; i < n; ++i)
    pp::TraceScope(i == 0 ? "first" : "span", -1, tracer);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), pp::Tracer::kCapacity);
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(tracer.dropped(), 2u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  pp::TraceScope("after", -1, tracer);
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].name, "after");
}

TEST(Device, KernelsExecuteInOrder) {
  pp::Device dev(0);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i)
    dev.enqueue("k", [&order, i] { order.push_back(i); });
  dev.synchronize();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Device, MemoryAccountingAndExhaustion) {
  pp::Device dev(1, /*memory_bytes=*/1000);
  {
    auto buf = dev.allocate(600);
    EXPECT_EQ(dev.memory_used(), 600u);
    EXPECT_THROW(dev.allocate(500), std::runtime_error);
    auto buf2 = dev.allocate(400);
    EXPECT_EQ(dev.memory_used(), 1000u);
  }
  EXPECT_EQ(dev.memory_used(), 0u);  // RAII released
}

TEST(Device, MoveSemanticsOfBuffer) {
  pp::Device dev(2, 100);
  pp::DeviceBuffer a = dev.allocate(60);
  pp::DeviceBuffer b = std::move(a);
  EXPECT_EQ(b.bytes(), 60u);
  EXPECT_EQ(dev.memory_used(), 60u);
  b = pp::DeviceBuffer{};
  EXPECT_EQ(dev.memory_used(), 0u);
}

TEST(Device, BufferMoveAssignReleasesTargetExactlyOnce) {
  // Move-assigning over a live buffer must release the target's bytes
  // first — once, not twice — and the moved-from buffer must become empty
  // so its destructor releases nothing.
  pp::Device dev(7, 100);
  pp::DeviceBuffer a = dev.allocate(60);
  pp::DeviceBuffer b = dev.allocate(30);
  EXPECT_EQ(dev.memory_used(), 90u);
  b = std::move(a);  // 30 released, 60 transferred
  EXPECT_EQ(dev.memory_used(), 60u);
  EXPECT_EQ(b.bytes(), 60u);
  EXPECT_EQ(a.bytes(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  b = pp::DeviceBuffer{};
  EXPECT_EQ(dev.memory_used(), 0u);
  // A second release cannot fire: the accounting stays at zero after the
  // moved-from handles die.
  EXPECT_EQ(dev.memory_used(), 0u);
}

TEST(Device, BufferSelfMoveAssignIsSafe) {
  pp::Device dev(8, 100);
  pp::DeviceBuffer a = dev.allocate(40);
  pp::DeviceBuffer* pa = &a;  // defeat -Wself-move
  a = std::move(*pa);
  EXPECT_EQ(a.bytes(), 40u);
  EXPECT_EQ(dev.memory_used(), 40u);
}

TEST(Device, BackendOomFallsBackToHostAndReleasesEverything) {
  // A DeviceBackend over a pool too small for the batch workspace must
  // degrade to the host path (no throw mid-sweep), produce bit-identical
  // numbers, and leave no reservation behind — each buffer released
  // exactly once.
  pp::DevicePool pool(2, /*memory_bytes=*/256);
  nm::DeviceBackend backend(pool);
  const nm::idx s = 12;  // 2 * 16 * 12^2 bytes per item >> 256 B
  std::vector<nm::CMatrix> as;
  for (unsigned p = 0; p < 4; ++p) {
    as.push_back(nm::random_cmatrix(s, s, 60 + p));
    for (nm::idx i = 0; i < s; ++i) as.back()(i, i) += nm::cplx{12.0, 0.5};
  }
  std::vector<const nm::CMatrix*> ptrs;
  for (const auto& a : as) ptrs.push_back(&a);

  const auto factors = backend.lu_factor_batched(ptrs);
  EXPECT_EQ(backend.host_fallbacks(), 1u);
  ASSERT_EQ(factors.size(), 4u);
  const nm::CMatrix rhs = nm::random_cmatrix(s, 2, 99);
  for (unsigned p = 0; p < 4; ++p) {
    const nm::LUFactor ref(as[p]);
    const nm::CMatrix got = factors[p].solve(rhs);
    const nm::CMatrix want = ref.solve(rhs);
    for (nm::idx i = 0; i < s; ++i)
      for (nm::idx j = 0; j < 2; ++j) {
        EXPECT_EQ(got(i, j).real(), want(i, j).real());
        EXPECT_EQ(got(i, j).imag(), want(i, j).imag());
      }
  }
  EXPECT_EQ(pool.device(0).memory_used(), 0u);
  EXPECT_EQ(pool.device(1).memory_used(), 0u);
}

TEST(Device, TransferAccounting) {
  pp::Device dev(3);
  dev.record_h2d(100);
  dev.record_h2d(50);
  dev.record_d2h(30);
  dev.record_d2d(7);
  EXPECT_EQ(dev.h2d_bytes(), 150u);
  EXPECT_EQ(dev.d2h_bytes(), 30u);
  EXPECT_EQ(dev.d2d_bytes(), 7u);
}

TEST(Device, TracerRecordsKernels) {
  pp::Tracer::global().clear();
  pp::Device dev(4);
  dev.run("P1", [] {});
  dev.run("P2", [] {});
  auto events = pp::Tracer::global().events();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].name, "P1");
  EXPECT_EQ(events[1].name, "P2");
  EXPECT_EQ(events[0].device_id, 4);
  EXPECT_LE(events[0].start_s, events[0].end_s);
}

TEST(DevicePool, ParallelDevicesActuallyOverlap) {
  pp::DevicePool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int d = 0; d < 4; ++d) {
    pool.device(d).enqueue("busy", [&] {
      const int now = ++concurrent;
      int expect = peak.load();
      while (expect < now && !peak.compare_exchange_weak(expect, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      --concurrent;
    });
  }
  pool.synchronize_all();
  EXPECT_GE(peak.load(), 2);  // devices run concurrently, not serialized
}

TEST(Comm, RankAndSize) {
  pp::CommWorld world(5);
  std::vector<std::atomic<int>> seen(5);
  world.run([&](pp::Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    seen[static_cast<std::size_t>(comm.rank())]++;
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Comm, BarrierSynchronizes) {
  pp::CommWorld world(4);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  world.run([&](pp::Comm& comm) {
    phase1++;
    comm.barrier();
    if (phase1.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Comm, BcastVector) {
  pp::CommWorld world(4);
  world.run([&](pp::Comm& comm) {
    std::vector<double> data;
    if (comm.rank() == 2) data = {1.0, 2.0, 3.0};
    comm.bcast(data, 2);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_DOUBLE_EQ(data[1], 2.0);
  });
}

TEST(Comm, BcastMatrix) {
  pp::CommWorld world(3);
  world.run([&](pp::Comm& comm) {
    nm::CMatrix m;
    if (comm.rank() == 0) m = nm::random_cmatrix(6, 4, 99);
    comm.bcast(m, 0);
    const nm::CMatrix expected = nm::random_cmatrix(6, 4, 99);
    EXPECT_LT(nm::max_abs_diff(m, expected), 1e-15);
  });
}

TEST(Comm, AllreduceSumAndMax) {
  pp::CommWorld world(6);
  world.run([&](pp::Comm& comm) {
    const double r = static_cast<double>(comm.rank());
    EXPECT_DOUBLE_EQ(comm.allreduce(r, pp::Comm::ReduceOp::kSum), 15.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(r, pp::Comm::ReduceOp::kMax), 5.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(r, pp::Comm::ReduceOp::kMin), 0.0);
  });
}

TEST(Comm, SendRecvRoundTrip) {
  pp::CommWorld world(2);
  world.run([&](pp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<double>{3.14, 2.71}, 1, 7);
      auto back = comm.recv(1, 8);
      ASSERT_EQ(back.size(), 1u);
      EXPECT_DOUBLE_EQ(back[0], 6.28);
    } else {
      auto data = comm.recv(0, 7);
      comm.send({data[0] * 2.0}, 0, 8);
    }
  });
}

TEST(Comm, SplitByParity) {
  pp::CommWorld world(6);
  world.run([&](pp::Comm& comm) {
    pp::Comm sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // The sub-communicator must be functional.
    const double total =
        sub.allreduce(static_cast<double>(comm.rank()),
                      pp::Comm::ReduceOp::kSum);
    if (comm.rank() % 2 == 0)
      EXPECT_DOUBLE_EQ(total, 0.0 + 2.0 + 4.0);
    else
      EXPECT_DOUBLE_EQ(total, 1.0 + 3.0 + 5.0);
  });
}

TEST(Comm, RepeatedCollectivesStaySequenced) {
  pp::CommWorld world(4);
  world.run([&](pp::Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      std::vector<double> v{static_cast<double>(round)};
      comm.bcast(v, round % comm.size());
      EXPECT_DOUBLE_EQ(v[0], static_cast<double>(round));
      const double s = comm.allreduce(1.0, pp::Comm::ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(s, 4.0);
    }
  });
}

TEST(Comm, ErrorsPropagateToCaller) {
  pp::CommWorld world(2);
  EXPECT_THROW(world.run([&](pp::Comm& comm) {
                 if (comm.rank() == 1) throw std::runtime_error("rank error");
               }),
               std::runtime_error);
}

TEST(Comm, HierarchicalSplitTwoLevels) {
  // Mimic OMEN: 8 ranks -> 2 momentum groups of 4 -> 2 energy groups of 2.
  pp::CommWorld world(8);
  world.run([&](pp::Comm& comm) {
    pp::Comm momentum = comm.split(comm.rank() / 4, comm.rank());
    EXPECT_EQ(momentum.size(), 4);
    pp::Comm energy = momentum.split(momentum.rank() / 2, momentum.rank());
    EXPECT_EQ(energy.size(), 2);
    const double s = energy.allreduce(1.0, pp::Comm::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(s, 2.0);
  });
}

TEST(Comm, GathervNonUniformSizes) {
  // Rank r contributes r+1 elements of value r; root 2 sees them
  // concatenated in rank order with the per-rank counts reported.
  pp::CommWorld world(5);
  world.run([&](pp::Comm& comm) {
    const int r = comm.rank();
    std::vector<double> local(static_cast<std::size_t>(r) + 1,
                              static_cast<double>(r));
    std::vector<std::size_t> counts;
    const auto all = comm.gatherv(local, 2, &counts);
    if (r != 2) {
      EXPECT_TRUE(all.empty());
      return;
    }
    ASSERT_EQ(all.size(), 15u);  // 1+2+3+4+5
    ASSERT_EQ(counts.size(), 5u);
    std::size_t at = 0;
    for (int src = 0; src < 5; ++src) {
      EXPECT_EQ(counts[static_cast<std::size_t>(src)],
                static_cast<std::size_t>(src) + 1);
      for (int i = 0; i <= src; ++i)
        EXPECT_DOUBLE_EQ(all[at++], static_cast<double>(src));
    }
  });
}

TEST(Comm, GathervEmptyContribution) {
  pp::CommWorld world(3);
  world.run([&](pp::Comm& comm) {
    std::vector<double> local;
    if (comm.rank() == 1) local = {42.0};
    std::vector<std::size_t> counts;
    const auto all = comm.gatherv(local, 0, &counts);
    if (comm.rank() != 0) return;
    ASSERT_EQ(all.size(), 1u);
    EXPECT_DOUBLE_EQ(all[0], 42.0);
    EXPECT_EQ(counts[0], 0u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 0u);
  });
}

TEST(Comm, ReduceToRootOnly) {
  pp::CommWorld world(4);
  world.run([&](pp::Comm& comm) {
    const double r = static_cast<double>(comm.rank());
    std::vector<double> data{r, -r};
    comm.reduce(data, pp::Comm::ReduceOp::kSum, 2);
    if (comm.rank() == 2) {
      EXPECT_DOUBLE_EQ(data[0], 6.0);
      EXPECT_DOUBLE_EQ(data[1], -6.0);
    } else {
      // Non-root buffers are untouched (MPI_Reduce semantics).
      EXPECT_DOUBLE_EQ(data[0], r);
      EXPECT_DOUBLE_EQ(data[1], -r);
    }
    std::vector<double> mx{r};
    comm.reduce(mx, pp::Comm::ReduceOp::kMax, 0);
    if (comm.rank() == 0) EXPECT_DOUBLE_EQ(mx[0], 3.0);
    std::vector<double> mn{r + 1.0};
    comm.reduce(mn, pp::Comm::ReduceOp::kMin, 0);
    if (comm.rank() == 0) EXPECT_DOUBLE_EQ(mn[0], 1.0);
  });
}

TEST(Comm, RecvStatusReportsSourceAndCount) {
  pp::CommWorld world(4);
  world.run([&](pp::Comm& comm) {
    if (comm.rank() == 0) {
      int seen_from[4] = {0, 0, 0, 0};
      for (int i = 0; i < 3; ++i) {
        pp::Comm::Status st;
        const auto msg = comm.recv(pp::Comm::kAnySource, 5, st);
        ASSERT_GE(st.source, 1);
        ASSERT_LE(st.source, 3);
        ++seen_from[st.source];
        EXPECT_EQ(st.tag, 5);
        EXPECT_EQ(st.count, static_cast<std::size_t>(st.source));
        EXPECT_EQ(msg.size(), st.count);
        EXPECT_DOUBLE_EQ(msg[0], 10.0 * st.source);
      }
      for (int s = 1; s < 4; ++s) EXPECT_EQ(seen_from[s], 1);
    } else {
      std::vector<double> payload(static_cast<std::size_t>(comm.rank()),
                                  10.0 * comm.rank());
      comm.send(payload, 0, 5);
    }
  });
}

TEST(Comm, ProbeAndIprobe) {
  pp::CommWorld world(2);
  world.run([&](pp::Comm& comm) {
    if (comm.rank() == 0) {
      // Nothing pending yet on tag 9.
      EXPECT_FALSE(comm.iprobe(pp::Comm::kAnySource, 9).has_value());
      comm.send(std::vector<double>{1.0}, 1, 8);  // release rank 1
      const auto st = comm.probe(pp::Comm::kAnySource, 9);  // blocking
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.count, 2u);
      // probe does not consume: the message is still there.
      const auto again = comm.iprobe(1, 9);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->count, 2u);
      const auto msg = comm.recv(1, 9);
      EXPECT_DOUBLE_EQ(msg[1], 7.0);
      EXPECT_FALSE(comm.iprobe(1, 9).has_value());
    } else {
      comm.recv(0, 8);
      comm.send(std::vector<double>{6.0, 7.0}, 0, 9);
    }
  });
}

TEST(Comm, MatrixSendRecvRoundTrip) {
  pp::CommWorld world(2);
  world.run([&](pp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_matrix(nm::random_cmatrix(5, 3, 7), 1, 11);
    } else {
      pp::Comm::Status st;
      const nm::CMatrix m = comm.recv_matrix(pp::Comm::kAnySource, 11, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.count, 2u + 2u * 15u);
      const nm::CMatrix expected = nm::random_cmatrix(5, 3, 7);
      EXPECT_LT(nm::max_abs_diff(m, expected), 1e-15);
    }
  });
}

TEST(Comm, CollectivesInterleaveOnParentAndChild) {
  // Stress the tag sequencing when collectives alternate between a parent
  // communicator and its split children (regression for the stale
  // CollectiveSeq deadlock class fixed in PR 1).
  pp::CommWorld world(6);
  world.run([&](pp::Comm& comm) {
    pp::Comm child = comm.split(comm.rank() % 2, comm.rank());
    for (int round = 0; round < 25; ++round) {
      std::vector<double> v{static_cast<double>(round)};
      comm.bcast(v, round % comm.size());
      EXPECT_DOUBLE_EQ(v[0], static_cast<double>(round));
      const double s = child.allreduce(1.0, pp::Comm::ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(s, 3.0);
      const auto g =
          comm.gatherv({static_cast<double>(comm.rank())}, round % 3);
      if (comm.rank() == round % 3) EXPECT_EQ(g.size(), 6u);
      std::vector<double> r{1.0};
      child.reduce(r, pp::Comm::ReduceOp::kSum, 0);
      if (child.rank() == 0) EXPECT_DOUBLE_EQ(r[0], 3.0);
      const auto cg = child.gatherv({1.0, 2.0}, round % child.size());
      if (child.rank() == round % child.size()) EXPECT_EQ(cg.size(), 6u);
    }
  });
}

TEST(DevicePool, SliceRejectsBadPartitionIndex) {
  pp::DevicePool pool(2);
  EXPECT_THROW(pool.slice(-1, 2), std::invalid_argument);
  EXPECT_THROW(pool.slice(2, 2), std::invalid_argument);
  EXPECT_THROW(pool.slice(0, 0), std::invalid_argument);
}

TEST(DevicePool, ZeroDevicePoolThrows) {
  // A pool with no devices cannot exist (and so no slice can ever see an
  // empty view): the constructor refuses up front.
  EXPECT_THROW(pp::DevicePool(0), std::invalid_argument);
  EXPECT_THROW(pp::DevicePool(-3), std::invalid_argument);
}

TEST(DevicePool, SingleDeviceSliceIsAlwaysDeviceZero) {
  pp::DevicePool pool(1);
  pp::DevicePool one = pool.slice(0, 1);
  ASSERT_EQ(one.size(), 1);
  // Exhaustive single-device case: every group of a many-group split maps
  // round-robin back onto device 0.
  for (int part = 0; part < 4; ++part) {
    pp::DevicePool s = one.slice(part, 4);
    ASSERT_EQ(s.size(), 1);
    EXPECT_EQ(s.device(0).id(), 0);
  }
}

TEST(DevicePool, SliceMoreGroupsThanDevicesIsRoundRobin) {
  pp::DevicePool pool(3);
  for (int part = 0; part < 7; ++part) {
    pp::DevicePool s = pool.slice(part, 7);
    ASSERT_EQ(s.size(), 1);
    EXPECT_EQ(s.device(0).id(), part % 3);
  }
}

TEST(DevicePool, SliceUnevenRemainderGoesToFirstGroups) {
  // 5 devices over 3 groups: 2, 2, 1 — remainder devices land in the
  // first groups, partitions are contiguous and disjoint.
  pp::DevicePool pool(5);
  pp::DevicePool s0 = pool.slice(0, 3);
  pp::DevicePool s1 = pool.slice(1, 3);
  pp::DevicePool s2 = pool.slice(2, 3);
  ASSERT_EQ(s0.size(), 2);
  ASSERT_EQ(s1.size(), 2);
  ASSERT_EQ(s2.size(), 1);
  EXPECT_EQ(s0.device(0).id(), 0);
  EXPECT_EQ(s0.device(1).id(), 1);
  EXPECT_EQ(s1.device(0).id(), 2);
  EXPECT_EQ(s1.device(1).id(), 3);
  EXPECT_EQ(s2.device(0).id(), 4);
}

TEST(DevicePool, SliceOfSliceComposesOverContiguousShare) {
  // The engine hands an energy group a contiguous share, and the group may
  // re-slice it (nested hierarchy levels).  4 devices -> 2 groups of 2 ->
  // 2 sub-slices of 1 each.
  pp::DevicePool pool(4);
  pp::DevicePool half = pool.slice(1, 2);  // devices {2, 3}
  ASSERT_EQ(half.size(), 2);
  pp::DevicePool quarter = half.slice(1, 2);
  ASSERT_EQ(quarter.size(), 1);
  EXPECT_EQ(quarter.device(0).id(), 3);
}
