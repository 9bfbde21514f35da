#include "apps/wavefront_lcs.h"

#include <algorithm>

#include "core/dsm.h"
#include "sharegraph/hoops.h"
#include "simnet/check.h"

namespace pardsm::apps {

std::size_t lcs_reference(const std::string& s, const std::string& t) {
  std::vector<std::vector<std::size_t>> dp(
      s.size() + 1, std::vector<std::size_t>(t.size() + 1, 0));
  for (std::size_t i = 1; i <= s.size(); ++i) {
    for (std::size_t j = 1; j <= t.size(); ++j) {
      dp[i][j] = (s[i - 1] == t[j - 1])
                     ? dp[i - 1][j - 1] + 1
                     : std::max(dp[i - 1][j], dp[i][j - 1]);
    }
  }
  return dp[s.size()][t.size()];
}

namespace {

/// Cell (r, j) of the (|s|+1)×(|t|+1) table = r*(cols) + j; counters
/// follow.  Process p (0-based) writes row p+1.
struct Layout {
  std::size_t rows = 0;  // |s| + 1
  std::size_t cols = 0;  // |t| + 1

  [[nodiscard]] VarId cell(std::size_t r, std::size_t j) const {
    return static_cast<VarId>(r * cols + j);
  }
  [[nodiscard]] VarId counter(std::size_t p) const {
    return static_cast<VarId>(rows * cols + p);
  }
  [[nodiscard]] std::size_t var_count() const {
    return rows * cols + (rows - 1);
  }
};

graph::Distribution make_distribution(const Layout& lay) {
  graph::Distribution d;
  d.name = "lcs-" + std::to_string(lay.rows - 1) + "x" +
           std::to_string(lay.cols - 1);
  d.var_count = lay.var_count();
  const std::size_t procs = lay.rows - 1;
  d.per_process.resize(procs);
  for (std::size_t p = 0; p < procs; ++p) {
    auto& xs = d.per_process[p];
    for (std::size_t j = 0; j < lay.cols; ++j) {
      xs.push_back(lay.cell(p + 1, j));        // own row
      if (p > 0) xs.push_back(lay.cell(p, j)); // predecessor's row
    }
    xs.push_back(lay.counter(p));
    if (p > 0) xs.push_back(lay.counter(p - 1));
    std::sort(xs.begin(), xs.end());
  }
  return d;
}

class RowWorker {
 public:
  RowWorker(std::size_t p, const Layout& lay, const std::string& s,
            const std::string& t, System& dsm, Duration poll)
      : p_(p), lay_(lay), s_(s), t_(t),
        mcs_(dsm.process(static_cast<ProcessId>(p))), dsm_(dsm),
        poll_(poll) {
    row_.assign(lay_.cols, 0);
    prev_.assign(lay_.cols, 0);
  }

  void start() {
    // Column 0 boundary: write cell (p+1, 0) = 0 then counter = 1.
    mcs_.write(lay_.cell(p_ + 1, 0), 0, [this] {
      mcs_.write(lay_.counter(p_), 1, [this] { step(1); });
    });
  }

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] std::int64_t last_cell() const {
    return row_[lay_.cols - 1];
  }

 private:
  void step(std::size_t j) {
    if (j == lay_.cols) {
      done_ = true;
      return;
    }
    if (p_ == 0) {
      // Row 0 of the table is all zeros; no reads needed.
      compute(j, 0, 0);
      return;
    }
    // Need predecessor cells (p, j-1) and (p, j): wait for c_{p-1} > j.
    mcs_.read(lay_.counter(p_ - 1), [this, j](Value c) {
      if (c == kBottom || c < static_cast<Value>(j + 1)) {
        dsm_.after(poll_, [this, j] { step(j); });
        return;
      }
      mcs_.read(lay_.cell(p_, j - 1), [this, j](Value diag) {
        mcs_.read(lay_.cell(p_, j), [this, j, diag](Value up) {
          PARDSM_CHECK(diag != kBottom && up != kBottom,
                       "LCS read ⊥ after counter hand-off");
          compute(j, diag, up);
        });
      });
    });
  }

  void compute(std::size_t j, Value diag, Value up) {
    const Value left = row_[j - 1];
    const Value value = (s_[p_] == t_[j - 1]) ? diag + 1
                                              : std::max(up, left);
    row_[j] = value;
    mcs_.write(lay_.cell(p_ + 1, j), value, [this, j] {
      mcs_.write(lay_.counter(p_), static_cast<Value>(j + 1),
                 [this, j] { step(j + 1); });
    });
  }

  std::size_t p_;
  Layout lay_;
  const std::string& s_;
  const std::string& t_;
  mcs::McsProcess& mcs_;
  System& dsm_;
  Duration poll_;
  std::vector<Value> row_;
  std::vector<Value> prev_;
  bool done_ = false;
};

}  // namespace

LcsResult run_wavefront_lcs(const std::string& s, const std::string& t,
                            const LcsOptions& options) {
  PARDSM_CHECK(!s.empty() && !t.empty(), "LCS needs non-empty strings");
  Layout lay{s.size() + 1, t.size() + 1};
  System dsm({options.protocol, make_distribution(lay), options.sim_seed, {},
              millis(1), millis(3)});

  // The app's distribution is hoop-free by construction; report it.
  const graph::ShareGraph sg(dsm.distribution());
  bool hoop_free = true;
  for (std::size_t x = 0; x < sg.var_count() && hoop_free; ++x) {
    if (graph::hoop_exists(sg, static_cast<VarId>(x))) hoop_free = false;
  }

  std::vector<std::unique_ptr<RowWorker>> workers;
  for (std::size_t p = 0; p < s.size(); ++p) {
    workers.push_back(
        std::make_unique<RowWorker>(p, lay, s, t, dsm, options.poll));
  }
  for (auto& w : workers) {
    dsm.at(kTimeZero, [worker = w.get()] { worker->start(); });
  }
  dsm.run();

  LcsResult result;
  for (const auto& w : workers) {
    PARDSM_CHECK(w->done(), "LCS row worker did not finish");
  }
  result.length = static_cast<std::size_t>(workers.back()->last_cell());
  result.matches_reference = result.length == lcs_reference(s, t);
  result.total_traffic = dsm.stats().total();
  result.finished_at = dsm.now();
  result.history = dsm.history();
  result.hoop_free = hoop_free;
  return result;
}

}  // namespace pardsm::apps
