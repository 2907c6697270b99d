// Variation-aware timing analysis of a desynchronized circuit.
//
// STA sizes every matched-delay line against one worst-case number; silicon
// delivers a distribution. This module asks the distributional questions:
//
//   mc_analysis      Monte-Carlo sweep of the hardware timed model. Every
//                    sampled element (delay-line cell, controller gate,
//                    pulse-generator buffer, data-path realization) gets an
//                    independent counter-based draw (cell::VariationModel),
//                    the period of every sample is solved by one
//                    structure-shared pn::McrBatch, and the per-bank setup
//                    slack (line + response credit vs. sampled data path)
//                    yields a violation count per sample.
//
//   optimize_margins Replace the uniform matched-delay margin with a
//                    per-destination-bank vector: shave every delay line to
//                    the minimum cell count that keeps *zero* setup
//                    violations across all samples, back-map the cell
//                    counts to margins (DesyncOptions::margins), re-run the
//                    flow and report both MC analyses. Sample 0 is the
//                    nominal corner (factor 1.0), so the shaved hardware
//                    still covers the worst-case STA path and stays
//                    flow-equivalent (asserted by tests/test_mc.cpp). When
//                    no bank is shaved the vector resolves to the baseline
//                    margins, and the baseline analysis is the answer.
//
// Every sampled element's draw key is prepared once per analysed model
// (cell::VariationModel::prepare). The analysis runs in 64-sample blocks on
// McOptions::jobs: a worker draws its block element by element
// (VariationModel::factors) and solves the block's rows one at a time, so
// the samples x arcs delay matrix never exists. The margin shave runs on
// the same budget.
//
// Determinism: every draw is a pure function of (seed, stream, sample), so
// reports are byte-identical for any --jobs count (the batch solver's
// block contract) and for any evaluation order.
#pragma once

#include "cell/variation.h"
#include "core/desynchronizer.h"
#include "pn/mcr.h"

namespace desyn::flow {

struct McOptions {
  size_t samples = 256;  ///< statistical samples beyond the corner list
  uint64_t seed = 1;     ///< RNG seed (cell::VariationModel::seed)
  double sigma = 0.05;   ///< per-element relative sigma (truncated +/-3)
  /// Corner factors prepended to the sample space; keep 1.0 first so
  /// sample 0 is the nominal design (optimize_margins relies on it).
  std::vector<double> corners = {1.0};
  /// Worker threads (a parallel_for budget): each worker draws and solves
  /// whole 64-sample blocks (pn::McrBatch::kBlock), and optimize_margins
  /// shaves one bank per granule; byte-identical results for any value.
  /// Excluded from engine cache keys.
  int jobs = 1;
};

/// Distribution summary over samples (values in ps).
struct McStats {
  double p50 = 0;
  double p95 = 0;
  double min = 0;
  double max = 0;
};

struct McReport {
  size_t samples = 0;         ///< total rows = corners + statistical
  size_t corner_samples = 0;  ///< leading corner rows
  size_t mcr_arcs = 0;        ///< arcs of the timed model solved per sample
  double nominal_period = 0;  ///< sample 0's period (the 1.0 corner)
  McStats period;             ///< MCR period distribution, ps per token
  McStats min_slack;          ///< per-sample worst setup slack distribution
  size_t violation_samples = 0;  ///< samples with >= 1 negative slack
  double yield = 1.0;  ///< fraction of samples with zero violations
  std::vector<double> periods;     ///< per-sample period (size `samples`)
  std::vector<double> min_slacks;  ///< per-sample worst slack (size `samples`)
};

/// Monte-Carlo sweep of `r`'s hardware timed model. `margins` must be the
/// margins the flow ran with (DesyncResult does not carry them; same
/// contract as check::lint) — the slack model de-margins the sized
/// matched delays with them to recover the raw data-path requirement.
McReport mc_analysis(const DesyncResult& r, const cell::Tech& tech,
                     const Margins& margins, const McOptions& opt = {});

/// The sampled delay rows mc_analysis solves, materialized: row s (the
/// flat model's num_arcs() delays) of sample s, row-major, next to the
/// model's flat structure. For benches and tests that drive pn::McrBatch
/// on a real sampled model; mc_analysis itself fills and solves each
/// sample block on its worker and never builds this matrix.
struct McDelayRows {
  pn::McrFlat flat;       ///< the timed model (nominal delays)
  size_t samples = 0;     ///< corners + statistical
  std::vector<Ps> rows;   ///< samples x flat.from.size()
};

McDelayRows mc_delay_rows(const DesyncResult& r, const cell::Tech& tech,
                          const Margins& margins, const McOptions& opt = {});

struct MarginOptResult {
  /// Per-destination-bank margin vector for DesyncOptions::margins
  /// (0 = keep the global margin for that bank).
  std::vector<double> margins;
  size_t banks_shaved = 0;       ///< banks whose line lost >= 1 cell
  size_t delay_cells_before = 0; ///< ControllerNetwork::delay_units, uniform
  size_t delay_cells_after = 0;  ///< ... at the optimized margin vector
  McReport baseline;             ///< MC analysis at the uniform margin
  McReport optimized;            ///< MC analysis at the optimized vector
};

/// Run the flow at `opt` (through Engine::process), shave every
/// matched-delay line to the minimum length with zero setup violations
/// across all `mc` samples, re-run the flow at the back-mapped per-bank
/// margin vector and report both MC analyses. The partition is identical
/// in both runs (per-bank margins do not feed the partitioner), so bank
/// indices line up by construction. With no bank shaved the vector
/// resolves to the baseline margins bank for bank: `optimized` is then the
/// baseline report and `delay_cells_after == delay_cells_before`, with no
/// second flow or analysis.
MarginOptResult optimize_margins(const nl::Netlist& ff, nl::NetId clock,
                                 const cell::Tech& tech,
                                 const DesyncOptions& opt,
                                 const McOptions& mc = {});

}  // namespace desyn::flow
