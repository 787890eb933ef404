// Reproduction of Table 1: cycle counts and area for every architecture the
// paper evaluates, including the literature comparison rows (quoted, clearly
// labelled) and the paper's own reported numbers next to our measurements.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "multipliers/hw_multiplier.hpp"

namespace saber::analysis {

struct Table1Row {
  std::string design;
  std::string fpga;          ///< A7 (Artix-7) or U+ (UltraScale+)
  u64 cycles = 0;            ///< headline cycles (LW includes memory overhead)
  unsigned clock_mhz = 0;    ///< paper's reported implementation clock
  u64 lut = 0, ff = 0, dsp = 0;
  bool measured = false;     ///< true: from our simulator; false: literature

  // Paper-reported values for measured rows, for side-by-side comparison.
  std::optional<u64> paper_cycles, paper_lut, paper_ff, paper_dsp;
};

/// Build all Table 1 rows (measured rows run the cycle-accurate simulators).
std::vector<Table1Row> build_table1();

/// Render in the paper's layout, with paper-reported values in parentheses.
std::string render_table1(const std::vector<Table1Row>& rows);

/// Render the §3/§4 structural inventories (the data behind Figures 1-4).
std::string render_structures();

/// The derived claims of §5.2 (LUT reductions, DSP efficiency), computed from
/// the measured rows; rendered as "claim: paper says X, we measure Y".
std::string render_claims(const std::vector<Table1Row>& rows);

/// Time-domain summary: microseconds per multiplication and per KEM
/// operation at each design's implementation clock (Table 1's MHz column),
/// i.e. the latency/throughput numbers a system integrator reads off the
/// paper. Encaps cycles are the ledger total of a keygen -> encaps run of
/// coproc::SaberCoproc on each design (lw4, hs1-256, hs1-512, hs2).
std::string render_time_domain();

}  // namespace saber::analysis
