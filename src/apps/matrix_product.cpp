#include "apps/matrix_product.h"

#include "core/dsm.h"
#include "simnet/check.h"
#include "simnet/rng.h"

namespace pardsm::apps {

Matrix multiply_reference(const Matrix& a, const Matrix& b) {
  const std::size_t n = a.size();
  Matrix c(n, std::vector<std::int64_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        c[i][j] += a[i][k] * b[k][j];
      }
    }
  }
  return c;
}

Matrix random_matrix(std::size_t n, std::int64_t bound, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, std::vector<std::int64_t>(n, 0));
  for (auto& row : m) {
    for (auto& cell : row) cell = rng.range(-bound, bound);
  }
  return m;
}

namespace {

/// Variable layout for an n×n multiply with P processes:
///   a(i,j) = i*n + j;   b(i,j) = n² + i*n + j;   c(i,j) = 2n² + i*n + j;
///   f_p    = 3n² + p.
struct Layout {
  std::size_t n = 0;
  std::size_t procs = 0;

  [[nodiscard]] VarId a(std::size_t i, std::size_t j) const {
    return static_cast<VarId>(i * n + j);
  }
  [[nodiscard]] VarId b(std::size_t i, std::size_t j) const {
    return static_cast<VarId>(n * n + i * n + j);
  }
  [[nodiscard]] VarId c(std::size_t i, std::size_t j) const {
    return static_cast<VarId>(2 * n * n + i * n + j);
  }
  [[nodiscard]] VarId f(std::size_t p) const {
    return static_cast<VarId>(3 * n * n + p);
  }
  [[nodiscard]] std::size_t var_count() const { return 3 * n * n + procs; }

  [[nodiscard]] std::size_t row_begin(std::size_t p) const {
    return p * n / procs;
  }
  [[nodiscard]] std::size_t row_end(std::size_t p) const {
    return (p + 1) * n / procs;
  }
  [[nodiscard]] std::size_t owner_of_row(std::size_t i) const {
    for (std::size_t p = 0; p < procs; ++p) {
      if (i >= row_begin(p) && i < row_end(p)) return p;
    }
    return procs - 1;
  }
};

graph::Distribution make_distribution(const Layout& lay) {
  graph::Distribution d;
  d.name = "matmul-n" + std::to_string(lay.n) + "-p" +
           std::to_string(lay.procs);
  d.var_count = lay.var_count();
  d.per_process.resize(lay.procs);
  for (std::size_t p = 0; p < lay.procs; ++p) {
    auto& xs = d.per_process[p];
    // Own A and C rows.
    for (std::size_t i = lay.row_begin(p); i < lay.row_end(p); ++i) {
      for (std::size_t j = 0; j < lay.n; ++j) {
        xs.push_back(lay.a(i, j));
        xs.push_back(lay.c(i, j));
      }
    }
    // All of B, all flags.
    for (std::size_t i = 0; i < lay.n; ++i) {
      for (std::size_t j = 0; j < lay.n; ++j) {
        xs.push_back(lay.b(i, j));
      }
    }
    for (std::size_t q = 0; q < lay.procs; ++q) {
      xs.push_back(lay.f(q));
    }
    std::sort(xs.begin(), xs.end());
  }
  return d;
}

/// Per-process worker: publish inputs, barrier on flags, compute C rows.
class Worker {
 public:
  Worker(std::size_t self, const Layout& lay, const Matrix& a,
         const Matrix& b, System& dsm, Duration poll)
      : self_(self), lay_(lay), a_(a), b_(b),
        mcs_(dsm.process(static_cast<ProcessId>(self))), dsm_(dsm),
        poll_(poll) {}

  void start() { publish_inputs(); }

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const Matrix& result_rows() const { return c_rows_; }

 private:
  void publish_inputs() {
    // Write own A rows and own B rows (cells in a fixed order), then raise
    // the flag.  PRAM's per-writer pipelining makes the flag a barrier.
    std::vector<std::pair<VarId, Value>> writes;
    for (std::size_t i = lay_.row_begin(self_); i < lay_.row_end(self_);
         ++i) {
      for (std::size_t j = 0; j < lay_.n; ++j) {
        writes.emplace_back(lay_.a(i, j), a_[i][j]);
        writes.emplace_back(lay_.b(i, j), b_[i][j]);
      }
    }
    write_chain(std::move(writes), 0);
  }

  void write_chain(std::vector<std::pair<VarId, Value>> writes,
                   std::size_t idx) {
    if (idx == writes.size()) {
      mcs_.write(lay_.f(self_), 1, [this] { barrier(0); });
      return;
    }
    const auto [x, v] = writes[idx];
    mcs_.write(x, v, [this, writes = std::move(writes), idx]() mutable {
      write_chain(std::move(writes), idx + 1);
    });
  }

  void barrier(std::size_t q) {
    if (q == lay_.procs) {
      compute();
      return;
    }
    mcs_.read(lay_.f(q), [this, q](Value flag) {
      if (flag == 1) {
        barrier(q + 1);
      } else {
        dsm_.after(poll_, [this, q] { barrier(q); });
      }
    });
  }

  void compute() {
    // Read all of B from shared memory (cells owned by other processes
    // were replicated here by their writers).
    b_read_.assign(lay_.n, std::vector<std::int64_t>(lay_.n, 0));
    read_b(0, 0);
  }

  void read_b(std::size_t i, std::size_t j) {
    if (i == lay_.n) {
      emit();
      return;
    }
    mcs_.read(lay_.b(i, j), [this, i, j](Value v) {
      PARDSM_CHECK(v != kBottom, "B cell missing after flag barrier");
      b_read_[i][j] = v;
      const std::size_t nj = (j + 1 == lay_.n) ? 0 : j + 1;
      const std::size_t ni = (j + 1 == lay_.n) ? i + 1 : i;
      read_b(ni, nj);
    });
  }

  void emit() {
    c_rows_.clear();
    std::vector<std::pair<VarId, Value>> writes;
    for (std::size_t i = lay_.row_begin(self_); i < lay_.row_end(self_);
         ++i) {
      std::vector<std::int64_t> row(lay_.n, 0);
      for (std::size_t k = 0; k < lay_.n; ++k) {
        for (std::size_t j = 0; j < lay_.n; ++j) {
          row[j] += a_[i][k] * b_read_[k][j];
        }
      }
      for (std::size_t j = 0; j < lay_.n; ++j) {
        writes.emplace_back(lay_.c(i, j), row[j]);
      }
      c_rows_.push_back(std::move(row));
    }
    emit_chain(std::move(writes), 0);
  }

  void emit_chain(std::vector<std::pair<VarId, Value>> writes,
                  std::size_t idx) {
    if (idx == writes.size()) {
      done_ = true;
      return;
    }
    const auto [x, v] = writes[idx];
    mcs_.write(x, v, [this, writes = std::move(writes), idx]() mutable {
      emit_chain(std::move(writes), idx + 1);
    });
  }

  std::size_t self_;
  Layout lay_;
  const Matrix& a_;
  const Matrix& b_;
  mcs::McsProcess& mcs_;
  System& dsm_;
  Duration poll_;
  Matrix b_read_;
  Matrix c_rows_;
  bool done_ = false;
};

}  // namespace

MatrixProductResult run_matrix_product(const Matrix& a, const Matrix& b,
                                       std::size_t processes,
                                       const MatrixProductOptions& options) {
  const std::size_t n = a.size();
  PARDSM_CHECK(n > 0 && b.size() == n, "square matrices of equal size");
  PARDSM_CHECK(processes >= 1 && processes <= n,
               "process count must be in [1, n]");
  Layout lay{n, processes};
  System dsm({options.protocol, make_distribution(lay), options.sim_seed, {},
              millis(1), millis(4)});

  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t p = 0; p < processes; ++p) {
    workers.push_back(
        std::make_unique<Worker>(p, lay, a, b, dsm, options.poll));
  }
  for (auto& w : workers) {
    dsm.at(kTimeZero, [worker = w.get()] { worker->start(); });
  }
  dsm.run();

  MatrixProductResult result;
  result.product.assign(n, std::vector<std::int64_t>(n, 0));
  for (std::size_t p = 0; p < processes; ++p) {
    PARDSM_CHECK(workers[p]->done(), "matrix worker did not finish");
    const auto& rows = workers[p]->result_rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      result.product[lay.row_begin(p) + r] = rows[r];
    }
  }
  result.matches_reference = result.product == multiply_reference(a, b);
  result.total_traffic = dsm.stats().total();
  result.finished_at = dsm.now();
  result.history = dsm.history();
  return result;
}

}  // namespace pardsm::apps
