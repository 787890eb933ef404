// Tests for the analysis/reporting layer: table rendering, Table-1 assembly,
// the time-domain view, and the derived §5 claims. The KEM cycle profile
// itself is checked on executed ledgers in coproc_test.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/comparisons.hpp"
#include "analysis/csv.hpp"
#include "analysis/table.hpp"
#include "analysis/table1.hpp"
#include "coproc/programs.hpp"

namespace saber::analysis {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Name", "Value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 12345 |"), std::string::npos);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(std::uint64_t{19471}), "19471");
  EXPECT_EQ(TextTable::num(0.399, 2), "0.40");
  EXPECT_EQ(TextTable::num(56.04, 1), "56.0");
}

TEST(Table1, ContainsEveryPaperRow) {
  const auto rows = build_table1();
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows[0].design, "LW (4 MACs)");
  EXPECT_TRUE(rows[0].measured);
  EXPECT_EQ(rows[0].paper_cycles, 19471u);
  EXPECT_FALSE(rows[4].measured);  // [7] literature row
  EXPECT_EQ(rows[4].cycles, 8176u);
  EXPECT_EQ(rows[7].design, "[11] Karatsuba (our model)");
}

TEST(Table1, MeasuredValuesWithinTenPercentOfPaper) {
  for (const auto& row : build_table1()) {
    if (!row.measured || !row.paper_cycles) continue;
    ASSERT_TRUE(row.paper_cycles && row.paper_lut && row.paper_ff);
    EXPECT_NEAR(static_cast<double>(row.cycles), static_cast<double>(*row.paper_cycles),
                0.05 * static_cast<double>(*row.paper_cycles))
        << row.design;
    EXPECT_NEAR(static_cast<double>(row.lut), static_cast<double>(*row.paper_lut),
                0.10 * static_cast<double>(*row.paper_lut))
        << row.design;
    EXPECT_EQ(row.dsp, *row.paper_dsp) << row.design;
  }
}

TEST(Table1, RenderingIncludesPaperValues) {
  const auto rows = build_table1();
  const auto text = render_table1(rows);
  EXPECT_NE(text.find("(19471)"), std::string::npos);
  EXPECT_NE(text.find("(15625)"), std::string::npos);
  EXPECT_NE(text.find("reported"), std::string::npos);
}

TEST(Table1, ClaimsAndStructures) {
  const auto claims = render_claims(build_table1());
  EXPECT_NE(claims.find("paper 22%"), std::string::npos);
  EXPECT_NE(claims.find("paper 46%"), std::string::npos);
  const auto structures = render_structures();
  EXPECT_NE(structures.find("Fig. 4"), std::string::npos);
  EXPECT_NE(structures.find("central multiple generator"), std::string::npos);
}

// Encaps ledger total of one executed Saber keygen -> encaps on `arch_name`.
// The coprocessor programs are data-independent, so any seeds give the
// cycle count the time-domain view prints.
u64 executed_encaps_cycles(std::string_view arch_name) {
  const auto mult = arch::make_architecture(arch_name);
  coproc::SaberCoproc cp(kem::kSaber, *mult);
  coproc::SaberCoproc::Seed sa{}, ss{}, z{}, m{};
  sa.fill(0x21);
  ss.fill(0x22);
  z.fill(0x23);
  m.fill(0x24);
  return cp.encaps(cp.keygen(sa, ss, z).pk, m).cycles.total();
}

// The encaps cycle count printed in `design`'s row of the time-domain table,
// whose rows read "| design | clock | us/mult | encaps cycles | ... |".
u64 printed_encaps_cycles(const std::string& table, std::string_view design) {
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream row(line);
    std::string bar, name, clock, us_mult;
    row >> bar >> name >> bar >> clock >> bar >> us_mult >> bar;
    u64 cycles = 0;
    if (name == design && row >> cycles) return cycles;
  }
  ADD_FAILURE() << "no time-domain row for " << design;
  return 0;
}

TEST(TimeDomain, EncapsCyclesAreExecutedLedgerTotals) {
  const auto table = render_time_domain();
  for (const char* name : {"lw4", "hs1-256", "hs1-512", "hs2"}) {
    EXPECT_EQ(printed_encaps_cycles(table, name), executed_encaps_cycles(name)) << name;
  }
  EXPECT_LT(printed_encaps_cycles(table, "hs1-512"),
            printed_encaps_cycles(table, "hs1-256"));
  EXPECT_LT(printed_encaps_cycles(table, "hs1-256"), printed_encaps_cycles(table, "lw4"));
}

TEST(Csv, Table1ExportIsWellFormed) {
  const auto csv = table1_csv(build_table1());
  // Header + 8 rows, 11 fields each.
  std::size_t lines = 0, commas_first_row = 0;
  for (std::size_t pos = 0; pos < csv.size(); ++pos) {
    if (csv[pos] == '\n') ++lines;
  }
  EXPECT_EQ(lines, 9u);
  const auto first_row = csv.substr(csv.find('\n') + 1);
  for (char ch : first_row.substr(0, first_row.find('\n'))) {
    if (ch == ',') ++commas_first_row;
  }
  EXPECT_EQ(commas_first_row, 10u);
  EXPECT_NE(csv.find("19057,19471"), std::string::npos);
}

TEST(Csv, DesignSpaceExportCoversAllArchitectures) {
  const auto csv = design_space_csv();
  for (const char* name : {"lw4", "hs1-256", "hs2-wide", "karatsuba-hw", "ntt-hw"}) {
    EXPECT_NE(csv.find(name), std::string::npos) << name;
  }
}

TEST(Comparisons, TablesRender) {
  const auto lw = render_lightweight_comparison();
  EXPECT_NE(lw.find("71349"), std::string::npos);       // RISQ-V row
  EXPECT_NE(lw.find("~19000"), std::string::npos);      // [14] row
  const auto ops = render_algorithm_ops();
  EXPECT_NE(ops.find("schoolbook"), std::string::npos);
  EXPECT_NE(ops.find("65536"), std::string::npos);      // 256^2 mults
}

}  // namespace
}  // namespace saber::analysis
