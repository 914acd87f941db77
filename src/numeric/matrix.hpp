// Dense row-major matrix container used by every subsystem, plus the
// Workspace arena that makes repeated solves allocation-free.
//
// Kept deliberately simple: owning, contiguous storage, no expression
// templates.  Heavy kernels (GEMM, LU, QR, eigensolvers) live in separate
// translation units and operate on this type.
//
// Every Matrix buffer is obtained through PoolAllocator.  When a Workspace
// is active on the current thread (via WorkspaceScope), freed buffers are
// parked in a size-keyed free list and handed back to later allocations of
// the same size instead of hitting the heap.  A sweep that solves the same
// shapes point after point therefore performs heap allocations only while
// warming up; the steady state is malloc-free.  matrix_heap_allocations()
// counts the actual heap allocations and is the test hook used to assert
// both properties.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <new>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "numeric/types.hpp"

namespace omenx::numeric {

namespace detail {

// Every chunk is prefixed by a header recording its origin so it can be
// returned to the right free list (or the heap) no matter which thread or
// scope releases it.
struct PoolCore;
struct ChunkHeader {
  PoolCore* core;     ///< owning pool, nullptr for plain heap chunks
  std::size_t bytes;  ///< payload size, the free-list key
};
inline constexpr std::size_t kHeaderSize =
    (sizeof(ChunkHeader) + alignof(std::max_align_t) - 1) /
    alignof(std::max_align_t) * alignof(std::max_align_t);

// Free-list state shared between a Workspace and chunks that outlive it.
// Reference semantics: the core survives until the Workspace is destroyed
// AND no outstanding chunk still points at it.
struct PoolCore {
  std::mutex mu;
  std::unordered_map<std::size_t, std::vector<void*>> free_chunks;
  std::size_t outstanding = 0;  ///< chunks currently lent out
  bool alive = true;            ///< the owning Workspace still exists
};

inline std::atomic<std::uint64_t> g_heap_allocs{0};
inline std::atomic<std::uint64_t> g_pool_hits{0};

}  // namespace detail

/// Number of heap allocations performed for Matrix (and pooled index)
/// buffers since process start.  Steady-state code paths — GEMM with a
/// right-sized output, energy points solved through a warmed-up context —
/// must not advance this counter; tests assert exactly that.
inline std::uint64_t matrix_heap_allocations() noexcept {
  return detail::g_heap_allocs.load(std::memory_order_relaxed);
}

/// Number of allocations served from an active Workspace free list.
inline std::uint64_t workspace_pool_hits() noexcept {
  return detail::g_pool_hits.load(std::memory_order_relaxed);
}

/// Reusable buffer arena.  Activate with WorkspaceScope; while active, all
/// Matrix buffers released on this thread are pooled and recycled.  The
/// arena is safe to destroy while borrowed buffers are still alive (they
/// fall back to plain heap deallocation), and buffers may be released from
/// any thread.
class Workspace {
 public:
  Workspace() : core_(new detail::PoolCore) {}

  ~Workspace() {
    std::vector<void*> to_free;
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      core_->alive = false;
      for (auto& [bytes, chunks] : core_->free_chunks)
        to_free.insert(to_free.end(), chunks.begin(), chunks.end());
      core_->free_chunks.clear();
      last = core_->outstanding == 0;
    }
    for (void* p : to_free) ::operator delete(p);
    if (last) delete core_;
  }

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Bytes currently parked in the free lists (diagnostics).
  std::size_t pooled_bytes() const {
    std::lock_guard<std::mutex> lock(core_->mu);
    std::size_t total = 0;
    for (const auto& [bytes, chunks] : core_->free_chunks)
      total += bytes * chunks.size();
    return total;
  }

  /// The workspace active on this thread, or nullptr.
  static Workspace*& current() noexcept {
    static thread_local Workspace* tls = nullptr;
    return tls;
  }

  /// Release every parked buffer back to the heap (borrowed buffers are
  /// unaffected).  Call between workloads of different shapes to bound the
  /// pool's footprint — free lists are size-keyed and otherwise keep the
  /// high-water population of every size ever used.
  void clear() {
    std::vector<void*> to_free;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      for (auto& [bytes, chunks] : core_->free_chunks)
        to_free.insert(to_free.end(), chunks.begin(), chunks.end());
      core_->free_chunks.clear();
    }
    for (void* p : to_free) ::operator delete(p);
  }

  /// Borrow a chunk of exactly `bytes`: recycled if available, otherwise a
  /// fresh (counted) heap allocation tagged with this pool.
  void* acquire(std::size_t bytes) {
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      auto it = core_->free_chunks.find(bytes);
      if (it != core_->free_chunks.end() && !it->second.empty()) {
        void* chunk = it->second.back();
        it->second.pop_back();
        ++core_->outstanding;
        detail::g_pool_hits.fetch_add(1, std::memory_order_relaxed);
        return static_cast<char*>(chunk) + detail::kHeaderSize;
      }
    }
    // Allocate before taking credit: a throwing operator new must not
    // leave `outstanding` raised (that would leak the PoolCore later).
    void* chunk = ::operator new(detail::kHeaderSize + bytes);
    *static_cast<detail::ChunkHeader*>(chunk) = {core_, bytes};
    detail::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      ++core_->outstanding;
    }
    return static_cast<char*>(chunk) + detail::kHeaderSize;
  }

 private:
  detail::PoolCore* core_;
};

/// RAII activation of a Workspace on the current thread (nestable).
class WorkspaceScope {
 public:
  explicit WorkspaceScope(Workspace& ws) : prev_(Workspace::current()) {
    Workspace::current() = &ws;
  }
  ~WorkspaceScope() { Workspace::current() = prev_; }
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;

 private:
  Workspace* prev_;
};

namespace detail {

inline void* pool_allocate(std::size_t bytes) {
  if (Workspace* ws = Workspace::current()) return ws->acquire(bytes);
  void* chunk = ::operator new(kHeaderSize + bytes);
  *static_cast<ChunkHeader*>(chunk) = {nullptr, bytes};
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(chunk) + kHeaderSize;
}

inline void pool_deallocate(void* payload) noexcept {
  void* chunk = static_cast<char*>(payload) - kHeaderSize;
  const ChunkHeader header = *static_cast<ChunkHeader*>(chunk);
  if (header.core == nullptr) {
    ::operator delete(chunk);
    return;
  }
  PoolCore* core = header.core;
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(core->mu);
    --core->outstanding;
    if (core->alive) {
      core->free_chunks[header.bytes].push_back(chunk);
      return;
    }
    last = core->outstanding == 0;
  }
  ::operator delete(chunk);
  if (last) delete core;
}

}  // namespace detail

/// Allocator routing all Matrix storage through the active Workspace (if
/// any).  Stateless: any instance can free any other instance's memory.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(detail::pool_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { detail::pool_deallocate(p); }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) noexcept {
    return false;
  }
};

/// std::vector routed through the Workspace pool (used for hot-path index
/// buffers such as LU pivots, so repeated factorizations stay heap-free).
template <typename T>
using pool_vector = std::vector<T, PoolAllocator<T>>;

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(idx rows, idx cols, T init = T{})
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), init) {
    assert(rows >= 0 && cols >= 0);
  }

  /// Build from a nested initializer list: Matrix<double>{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<T>> init) {
    rows_ = static_cast<idx>(init.size());
    cols_ = rows_ > 0 ? static_cast<idx>(init.begin()->size()) : 0;
    data_.reserve(static_cast<std::size_t>(rows_ * cols_));
    for (const auto& row : init) {
      if (static_cast<idx>(row.size()) != cols_)
        throw std::invalid_argument("Matrix: ragged initializer list");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  idx rows() const noexcept { return rows_; }
  idx cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }
  bool square() const noexcept { return rows_ == cols_; }

  T& operator()(idx r, idx c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  const T& operator()(idx r, idx c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }
  T* row_ptr(idx r) noexcept { return data_.data() + r * cols_; }
  const T* row_ptr(idx r) const noexcept { return data_.data() + r * cols_; }

  /// Number of stored scalars.
  idx size() const noexcept { return rows_ * cols_; }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Reshape and zero-fill.  Existing capacity is reused, so resizing a
  /// matrix back to a size it has already held does not allocate.
  void resize(idx rows, idx cols, T init = T{}) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows * cols), init);
  }

  /// Reshape without initializing new contents (contents unspecified).
  void resize_uninit(idx rows, idx cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<std::size_t>(rows * cols));
  }

  /// Copy of the [r0, r0+nr) x [c0, c0+nc) sub-block.
  Matrix block(idx r0, idx c0, idx nr, idx nc) const {
    assert(r0 + nr <= rows_ && c0 + nc <= cols_);
    Matrix out(nr, nc);
    for (idx i = 0; i < nr; ++i)
      std::copy_n(row_ptr(r0 + i) + c0, nc, out.row_ptr(i));
    return out;
  }

  /// Copy the [r0, r0+nr) x [c0, c0+nc) sub-block into `out` (resized as
  /// needed; reuses out's capacity).
  void block_into(idx r0, idx c0, idx nr, idx nc, Matrix& out) const {
    assert(r0 + nr <= rows_ && c0 + nc <= cols_);
    out.resize_uninit(nr, nc);
    for (idx i = 0; i < nr; ++i)
      std::copy_n(row_ptr(r0 + i) + c0, nc, out.row_ptr(i));
  }

  /// Write `src` into this matrix at offset (r0, c0).
  void set_block(idx r0, idx c0, const Matrix& src) {
    assert(r0 + src.rows() <= rows_ && c0 + src.cols() <= cols_);
    for (idx i = 0; i < src.rows(); ++i)
      std::copy_n(src.row_ptr(i), src.cols(), row_ptr(r0 + i) + c0);
  }

  /// Add `src` into this matrix at offset (r0, c0).
  void add_block(idx r0, idx c0, const Matrix& src, T scale = T{1}) {
    assert(r0 + src.rows() <= rows_ && c0 + src.cols() <= cols_);
    for (idx i = 0; i < src.rows(); ++i) {
      const T* s = src.row_ptr(i);
      T* d = row_ptr(r0 + i) + c0;
      for (idx j = 0; j < src.cols(); ++j) d[j] += scale * s[j];
    }
  }

  Matrix transpose() const {
    Matrix out(cols_, rows_);
    for (idx i = 0; i < rows_; ++i)
      for (idx j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    return out;
  }

  static Matrix identity(idx n) {
    Matrix out(n, n);
    for (idx i = 0; i < n; ++i) out(i, i) = T{1};
    return out;
  }

  static Matrix zeros(idx rows, idx cols) { return Matrix(rows, cols); }

  Matrix& operator+=(const Matrix& o) {
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& o) {
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }
  Matrix& operator*=(T s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T s) { return a *= s; }
  friend Matrix operator*(T s, Matrix a) { return a *= s; }

 private:
  idx rows_ = 0;
  idx cols_ = 0;
  pool_vector<T> data_;
};

using CMatrix = Matrix<cplx>;
using RMatrix = Matrix<double>;

/// Conjugate transpose (dagger).
inline CMatrix dagger(const CMatrix& a) {
  CMatrix out(a.cols(), a.rows());
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < a.cols(); ++j) out(j, i) = std::conj(a(i, j));
  return out;
}

/// Promote a real matrix to complex.
inline CMatrix to_complex(const RMatrix& a) {
  CMatrix out(a.rows(), a.cols());
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < a.cols(); ++j) out(i, j) = cplx(a(i, j), 0.0);
  return out;
}

/// Deterministically seeded random matrix with entries in [-1, 1] + i[-1, 1],
/// used for FEAST probing vectors and tests.
CMatrix random_cmatrix(idx rows, idx cols, unsigned seed);

}  // namespace omenx::numeric
