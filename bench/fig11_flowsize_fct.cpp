// Fig. 11 — FCT as a function of flow size at 25% utilization for the
// Internet / Benson / VL2 flow-size distributions, truncated at 1 MB
// (§4.2.4). This is where TCP-Cache beats Halfback for tens-of-KB flows.
#include <cstdio>

#include "common.h"
#include "exp/sweep.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Figure 11", "FCT vs flow size at 25% utilization", opt);

  const workload::FlowSizeDist dists[] = {
      workload::FlowSizeDist::internet(),
      workload::FlowSizeDist::benson(),
      workload::FlowSizeDist::vl2(),
  };

  for (const workload::FlowSizeDist& dist : dists) {
    exp::FlowSizeSweepConfig config;
    config.runner.seed = opt.seed;
    config.sizes = dist;
    config.threads = opt.threads;
    config.bin_bytes = sim::Bytes::kilobytes(50);
    config.duration = sim::Time::seconds(
        opt.duration_s > 0 ? opt.duration_s : (opt.full ? 300.0 : 60.0));

    auto cells = exp::flow_size_sweep(config, schemes::evaluation_set());
    bench::exit_on_audit_violations(cells, "fig11 " + dist.name());

    // Pivot into bin-by-scheme.
    std::map<double, std::map<schemes::Scheme, double>> by_bin;
    for (const exp::FlowSizeCell& c : cells) {
      by_bin[c.bin_center_kb][c.scheme] = c.mean_fct_ms;
    }
    std::vector<std::string> header{"flow size (KB)"};
    for (schemes::Scheme s : schemes::evaluation_set()) {
      header.push_back(bench::display(s));
    }
    stats::Table table{header};
    for (const auto& [bin, row_map] : by_bin) {
      std::vector<std::string> row{stats::Table::num(bin, 0)};
      for (schemes::Scheme s : schemes::evaluation_set()) {
        auto it = row_map.find(s);
        row.push_back(it == row_map.end() ? "-" : stats::Table::num(it->second, 0));
      }
      table.add_row(row);
    }
    std::printf("(%s) mean FCT (ms) per flow-size bin\n", dist.name().c_str());
    table.print();
    std::printf("\n");
  }
  std::printf(
      "paper shape: TCP-Cache (and narrowly TCP-10) lead for flows of a few "
      "tens of KB; beyond ~75 KB Halfback and JumpStart lead, up to ~300 ms "
      "below TCP.\n");
  return 0;
}
