#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "numeric/blas.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "perf/flops.hpp"
#include "stats.hpp"

namespace omenx::profile {

int SpanLog::open(std::string name, std::string layer) {
  const double t = now_seconds();
  if (epoch_ < 0.0) epoch_ = t;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.start = t - epoch_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const int id = static_cast<int>(spans_.size());
  s.op = s.parent < 0 ? id : spans_[static_cast<std::size_t>(s.parent)].op;
  spans_.push_back(std::move(s));
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("SpanLog: spans must close innermost first");
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end = now_seconds() - epoch_;
}

double SpanLog::duration(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end - s.start;
}

namespace {

/// Self time of every span: its duration minus its children's durations.
std::vector<double> self_times(const std::vector<SpanLog::Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  for (const SpanLog::Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  return self;
}

}  // namespace

std::map<std::string, double> SpanLog::self_seconds(int op) const {
  const std::vector<double> self = self_times(spans_);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].op == op) out[spans_[i].layer] += self[i];
  return out;
}

std::vector<double> SpanLog::durations(int op, const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.op == op && s.name == name) out.push_back(s.end - s.start);
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %d}}",
                 s.name.c_str(), s.layer.c_str(), s.start * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent, s.op);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ProfileBackend& ProfileBackend::instance() {
  static ProfileBackend* backend = [] {
    static ProfileBackend b;
    numeric::register_backend(kName, &b);
    return &b;
  }();
  return *backend;
}

int ProfileBackend::lanes() const noexcept {
  return numeric::host_backend().lanes();
}

void ProfileBackend::record(Entry e, std::size_t items, double seconds) {
  Counters& c = counters_[e];
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.items.fetch_add(items, std::memory_order_relaxed);
  c.nanoseconds.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                          std::memory_order_relaxed);
}

void ProfileBackend::dispatch(const char* label, std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  const double t0 = now_seconds();
  numeric::host_backend().dispatch(label, n, fn);
  record(kDispatch, n, now_seconds() - t0);
}

void ProfileBackend::gemm_batched(
    char op_a, char op_b, numeric::idx m, numeric::idx n, numeric::idx k,
    numeric::cplx alpha, numeric::cplx beta,
    const std::vector<numeric::GemmBatchItem>& items) {
  const double t0 = now_seconds();
  numeric::host_backend().gemm_batched(op_a, op_b, m, n, k, alpha, beta,
                                       items);
  record(kGemm, items.size(), now_seconds() - t0);
}

std::vector<numeric::LUFactor> ProfileBackend::lu_factor_batched(
    const std::vector<const numeric::CMatrix*>& as,
    numeric::Pivoting pivoting) {
  const double t0 = now_seconds();
  auto out = numeric::host_backend().lu_factor_batched(as, pivoting);
  record(kLuFactor, as.size(), now_seconds() - t0);
  return out;
}

void ProfileBackend::lu_solve_batched(
    const std::vector<const numeric::LUFactor*>& factors,
    const std::vector<const numeric::CMatrix*>& bs,
    std::vector<numeric::CMatrix>& xs) {
  const double t0 = now_seconds();
  numeric::host_backend().lu_solve_batched(factors, bs, xs);
  record(kLuSolve, bs.size(), now_seconds() - t0);
}

void ProfileBackend::lu_solve_left_batched(
    const std::vector<const numeric::LUFactor*>& factors,
    const std::vector<const numeric::CMatrix*>& bs,
    std::vector<numeric::CMatrix>& xs) {
  const double t0 = now_seconds();
  numeric::host_backend().lu_solve_left_batched(factors, bs, xs);
  record(kLuSolve, bs.size(), now_seconds() - t0);
}

ProfileBackend::Tally ProfileBackend::tally(Entry e) const {
  const Counters& c = counters_[e];
  Tally t;
  t.calls = c.calls.load(std::memory_order_relaxed);
  t.items = c.items.load(std::memory_order_relaxed);
  t.seconds =
      static_cast<double>(c.nanoseconds.load(std::memory_order_relaxed)) * 1e-9;
  return t;
}

ProfileBackend::Tally ProfileBackend::total() const {
  Tally t;
  for (int e = 0; e < kNumEntries; ++e) {
    const Tally one = tally(static_cast<Entry>(e));
    t.calls += one.calls;
    t.items += one.items;
    t.seconds += one.seconds;
  }
  return t;
}

void ProfileBackend::reset() {
  for (Counters& c : counters_) {
    c.calls.store(0, std::memory_order_relaxed);
    c.items.store(0, std::memory_order_relaxed);
    c.nanoseconds.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// One chunk of the reference: `reps` products C = A * B of fixed 64 x 64
/// complex matrices in split real/imaginary storage.  Returns a checksum so
/// the work cannot be optimized away.
double reference_chunk(int reps) {
  constexpr int n = 64;
  std::vector<double> ar(n * n), ai(n * n), br(n * n), bi(n * n);
  std::vector<double> cr(n * n), ci(n * n);
  for (int i = 0; i < n * n; ++i) {
    ar[i] = 1.0 / (1.0 + i % 7);
    ai[i] = 1.0 / (2.0 + i % 5);
    br[i] = 1.0 / (1.0 + i % 3);
    bi[i] = 1.0 / (3.0 + i % 11);
  }
  double sum = 0.0;
  for (int r = 0; r < reps; ++r) {
    std::fill(cr.begin(), cr.end(), 0.0);
    std::fill(ci.begin(), ci.end(), 0.0);
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < n; ++k) {
        const double xr = ar[i * n + k], xi = ai[i * n + k];
        for (int j = 0; j < n; ++j) {
          cr[i * n + j] += xr * br[k * n + j] - xi * bi[k * n + j];
          ci[i * n + j] += xr * bi[k * n + j] + xi * br[k * n + j];
        }
      }
    sum += cr[r % (n * n)] + ci[(r * 7) % (n * n)];
  }
  return sum;
}

/// Median seconds per call of `fn` over repetitions filling `budget`.
template <typename F>
double seconds_per_call(F&& fn, double budget) {
  fn();  // warm the packing buffers and workspace
  std::vector<double> samples;
  const double t_end = now_seconds() + budget;
  while (samples.size() < 5 || now_seconds() < t_end) {
    const double t0 = now_seconds();
    fn();
    samples.push_back(now_seconds() - t0);
    if (samples.size() >= 2000) break;
  }
  return median(samples);
}

}  // namespace

double reference_seconds() {
  constexpr int kChunks = 160;
  const unsigned lanes = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<int> next{0};
  std::vector<double> sums(kChunks, 0.0);
  const double t0 = now_seconds();
  {
    std::vector<std::thread> threads;
    threads.reserve(lanes);
    for (unsigned t = 0; t < lanes; ++t)
      threads.emplace_back([&] {
        for (int c = next++; c < kChunks; c = next++)
          sums[static_cast<std::size_t>(c)] = reference_chunk(4);
      });
    for (std::thread& t : threads) t.join();
  }
  const double dt = now_seconds() - t0;
  for (const double v : sums)
    if (!(v == v)) throw std::runtime_error("reference kernel produced NaN");
  return dt;
}

KernelRates probe_kernels(numeric::idx s, double budget_seconds) {
  KernelRates r;
  const numeric::CMatrix a = numeric::random_cmatrix(s, s, 1);
  const numeric::CMatrix b = numeric::random_cmatrix(s, s, 2);
  numeric::CMatrix c(s, s);
  const double t_gemm = seconds_per_call(
      [&] { numeric::gemm(a, b, c); }, 0.5 * budget_seconds);
  r.gemm_gflops =
      static_cast<double>(perf::gemm_flops(s, s, s)) / t_gemm * 1e-9;
  // Diagonally dominant, so partial pivoting never meets a tiny pivot.
  numeric::CMatrix well = numeric::random_cmatrix(s, s, 3);
  for (numeric::idx i = 0; i < s; ++i)
    well(i, i) += numeric::cplx{static_cast<double>(s)};
  double sink = 0.0;
  const double t_lu = seconds_per_call(
      [&] { sink += numeric::LUFactor(well).log_abs_det(); },
      0.5 * budget_seconds);
  r.lu_gflops = static_cast<double>(perf::lu_flops(s)) / t_lu * 1e-9;
  if (!(sink == sink)) r.lu_gflops = 0.0;  // keeps the factorizations live
  return r;
}

}  // namespace omenx::profile
