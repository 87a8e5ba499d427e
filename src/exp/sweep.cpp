#include "exp/sweep.h"

#include <mutex>

#include "exp/parallel.h"
#include "workload/flow_schedule.h"

namespace halfback::exp {

namespace {

/// The paper's short flow (Figs. 12-14 and 17).
constexpr sim::Bytes kShortFlowBytes = 100'000;
/// Fig. 13: the short flows' share of the offered bytes.
constexpr double kShortTrafficFraction = 0.10;
/// Fig. 11: the load, and the size the measured distribution is cut at.
constexpr double kFlowSizeUtilization = 0.25;
constexpr sim::Bytes kFlowSizeTruncateBytes = 1'000'000;

SweepCell summarize(schemes::Scheme scheme, double utilization, const RunResult& run) {
  const RoleStats primary = run.role_stats(FlowRole::primary);
  SweepCell cell;
  cell.scheme = scheme;
  cell.utilization = utilization;
  cell.flows = run.flows.size();
  cell.unfinished = primary.unfinished;
  cell.mean_fct_ms = primary.mean_fct_ms;
  cell.median_fct_ms = primary.median_fct_ms;
  cell.mean_normal_retx = primary.mean_normal_retx;
  cell.mean_proactive_retx = primary.mean_proactive_retx;
  cell.mean_timeouts = primary.mean_timeouts;
  cell.audit_violations = run.audit_violations;
  return cell;
}

}  // namespace

std::vector<SweepCell> utilization_sweep(const UtilizationSweepConfig& config,
                                         std::span<const schemes::Scheme> schemes) {
  const int reps = std::max(config.replications, 1);

  // One schedule per (utilization, replication), shared across schemes
  // (§4.3.2: "the same schedule of flow arrivals for each network
  // utilization").
  std::vector<std::vector<workload::FlowArrival>> schedules;  // [u * reps + r]
  for (std::size_t u = 0; u < config.utilizations.size(); ++u) {
    for (int r = 0; r < reps; ++r) {
      sim::Random rng{config.runner.seed * 7919 + u * 1000 +
                      static_cast<std::uint64_t>(r)};
      workload::ScheduleConfig sc;
      sc.target_utilization = config.utilizations[u];
      sc.bottleneck = config.runner.dumbbell.bottleneck_rate;
      sc.duration = config.duration;
      schedules.push_back(workload::make_schedule(
          workload::FlowSizeDist::fixed(kShortFlowBytes), sc, rng));
    }
  }

  // Jobs: utilization-major, scheme-minor, replication-innermost.
  const std::size_t scheme_count = schemes.size();
  std::vector<SweepCell> raw(config.utilizations.size() * scheme_count *
                             static_cast<std::size_t>(reps));
  parallel_for(
      raw.size(),
      [&](std::size_t i) {
        const std::size_t r = i % static_cast<std::size_t>(reps);
        const std::size_t si = (i / static_cast<std::size_t>(reps)) % scheme_count;
        const std::size_t u = i / (static_cast<std::size_t>(reps) * scheme_count);
        EmulabRunner::Config runner_config = config.runner;
        runner_config.seed = config.runner.seed + 7 * r;
        EmulabRunner runner{runner_config};
        WorkloadPart part;
        part.scheme = schemes[si];
        part.schedule = schedules[u * static_cast<std::size_t>(reps) + r];
        part.role = FlowRole::primary;
        RunResult run = runner.run({part});
        raw[i] = summarize(schemes[si], config.utilizations[u], run);
      },
      config.threads);

  // Average replications into one cell per (utilization, scheme).
  std::vector<SweepCell> cells(config.utilizations.size() * scheme_count);
  for (std::size_t u = 0; u < config.utilizations.size(); ++u) {
    for (std::size_t si = 0; si < scheme_count; ++si) {
      SweepCell& out = cells[u * scheme_count + si];
      out.scheme = schemes[si];
      out.utilization = config.utilizations[u];
      for (int r = 0; r < reps; ++r) {
        const SweepCell& in =
            raw[(u * scheme_count + si) * static_cast<std::size_t>(reps) +
                static_cast<std::size_t>(r)];
        out.mean_fct_ms += in.mean_fct_ms;
        out.median_fct_ms += in.median_fct_ms;
        out.mean_normal_retx += in.mean_normal_retx;
        out.mean_proactive_retx += in.mean_proactive_retx;
        out.mean_timeouts += in.mean_timeouts;
        out.flows += in.flows;
        out.unfinished += in.unfinished;
        out.audit_violations += in.audit_violations;
      }
      out.mean_fct_ms /= reps;
      out.median_fct_ms /= reps;
      out.mean_normal_retx /= reps;
      out.mean_proactive_retx /= reps;
      out.mean_timeouts /= reps;
    }
  }
  return cells;
}

std::map<schemes::Scheme, double> feasible_capacities(
    const std::vector<SweepCell>& sweep, const stats::CollapseCriterion& criterion,
    double (*metric)(const SweepCell&)) {
  if (metric == nullptr) {
    metric = [](const SweepCell& c) { return c.mean_fct_ms; };
  }
  std::map<schemes::Scheme, std::vector<stats::SweepPoint>> by_scheme;
  for (const SweepCell& cell : sweep) {
    by_scheme[cell.scheme].push_back({cell.utilization, metric(cell)});
  }
  std::map<schemes::Scheme, double> out;
  for (auto& [scheme, points] : by_scheme) {
    out[scheme] = stats::feasible_capacity(points, criterion);
  }
  return out;
}

std::map<schemes::Scheme, double> low_load_fct(const std::vector<SweepCell>& sweep) {
  std::map<schemes::Scheme, std::pair<double, double>> best;  // util -> fct
  for (const SweepCell& cell : sweep) {
    auto it = best.find(cell.scheme);
    if (it == best.end() || cell.utilization < it->second.first) {
      best[cell.scheme] = {cell.utilization, cell.mean_fct_ms};
    }
  }
  std::map<schemes::Scheme, double> out;
  for (auto& [scheme, entry] : best) out[scheme] = entry.second;
  return out;
}

std::vector<MixCell> mix_sweep(const MixSweepConfig& config,
                               std::span<const schemes::Scheme> schemes) {
  // Schedules per utilization: short flows carry kShortTrafficFraction of
  // the offered bytes, long TCP flows the rest.
  struct Schedules {
    std::vector<workload::FlowArrival> shorts;
    std::vector<workload::FlowArrival> longs;
  };
  std::vector<Schedules> schedules;
  for (std::size_t u = 0; u < config.utilizations.size(); ++u) {
    sim::Random rng{config.runner.seed * 104729 + u};
    workload::ScheduleConfig sc;
    sc.bottleneck = config.runner.dumbbell.bottleneck_rate;
    sc.duration = config.duration;
    Schedules s;
    sc.target_utilization = config.utilizations[u] * kShortTrafficFraction;
    s.shorts = workload::make_schedule(workload::FlowSizeDist::fixed(kShortFlowBytes),
                                       sc, rng);
    sc.target_utilization = config.utilizations[u] * (1.0 - kShortTrafficFraction);
    s.longs = workload::make_schedule(workload::FlowSizeDist::fixed(config.long_bytes),
                                      sc, rng);
    schedules.push_back(std::move(s));
  }

  // Baseline: short flows run TCP.
  const std::size_t u_count = config.utilizations.size();
  std::vector<double> base_short(u_count), base_long(u_count);
  std::vector<std::uint64_t> base_violations(u_count);
  parallel_for(
      u_count,
      [&](std::size_t u) {
        EmulabRunner runner{config.runner};
        WorkloadPart shorts{schemes::Scheme::tcp, schedules[u].shorts, FlowRole::primary, {}};
        WorkloadPart longs{schemes::Scheme::tcp, schedules[u].longs, FlowRole::background, {}};
        RunResult run = runner.run({shorts, longs});
        base_short[u] = run.mean_fct_ms(FlowRole::primary);
        base_long[u] = run.mean_fct_ms(FlowRole::background);
        base_violations[u] = run.audit_violations;
      },
      config.threads);

  struct Job {
    schemes::Scheme scheme = schemes::Scheme::tcp;
    std::size_t u = 0;
  };
  std::vector<Job> jobs;
  for (std::size_t u = 0; u < u_count; ++u) {
    for (schemes::Scheme s : schemes) jobs.push_back(Job{s, u});
  }
  std::vector<MixCell> cells(jobs.size());
  parallel_for(
      jobs.size(),
      [&](std::size_t i) {
        const Job& job = jobs[i];
        EmulabRunner runner{config.runner};
        WorkloadPart shorts{job.scheme, schedules[job.u].shorts, FlowRole::primary, {}};
        WorkloadPart longs{schemes::Scheme::tcp, schedules[job.u].longs,
                           FlowRole::background, {}};
        RunResult run = runner.run({shorts, longs});
        MixCell cell;
        cell.scheme = job.scheme;
        cell.utilization = config.utilizations[job.u];
        cell.short_fct_ms = run.mean_fct_ms(FlowRole::primary);
        cell.long_fct_ms = run.mean_fct_ms(FlowRole::background);
        cell.short_fct_normalized =
            base_short[job.u] > 0 ? cell.short_fct_ms / base_short[job.u] : 0.0;
        cell.long_fct_normalized =
            base_long[job.u] > 0 ? cell.long_fct_ms / base_long[job.u] : 0.0;
        cell.audit_violations = run.audit_violations + base_violations[job.u];
        cells[i] = cell;
      },
      config.threads);
  return cells;
}

std::vector<FriendlinessPoint> friendliness_matrix(
    const FriendlinessConfig& config, std::span<const schemes::Scheme> schemes) {
  const std::size_t u_count = config.utilizations.size();

  // Shared schedules; in the mixed runs flows alternate between the scheme
  // under test and TCP (half and half).
  std::vector<std::vector<workload::FlowArrival>> schedules;
  for (std::size_t u = 0; u < u_count; ++u) {
    sim::Random rng{config.runner.seed * 15485863 + u};
    workload::ScheduleConfig sc;
    sc.target_utilization = config.utilizations[u];
    sc.bottleneck = config.runner.dumbbell.bottleneck_rate;
    sc.duration = config.duration;
    schedules.push_back(workload::make_schedule(
        workload::FlowSizeDist::fixed(kShortFlowBytes), sc, rng));
  }

  auto split = [](const std::vector<workload::FlowArrival>& all) {
    std::pair<std::vector<workload::FlowArrival>, std::vector<workload::FlowArrival>> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
      (i % 2 == 0 ? out.first : out.second).push_back(all[i]);
    }
    return out;
  };

  // Reference runs: all flows the same protocol.
  std::vector<double> tcp_reference(u_count);
  std::vector<std::uint64_t> tcp_reference_violations(u_count);
  parallel_for(
      u_count,
      [&](std::size_t u) {
        EmulabRunner runner{config.runner};
        RunResult run = runner.run(
            {WorkloadPart{schemes::Scheme::tcp, schedules[u], FlowRole::primary, {}}});
        tcp_reference[u] = run.mean_fct_ms(FlowRole::primary);
        tcp_reference_violations[u] = run.audit_violations;
      },
      config.threads);

  struct Job {
    schemes::Scheme scheme = schemes::Scheme::tcp;
    std::size_t u = 0;
  };
  std::vector<Job> jobs;
  for (schemes::Scheme s : schemes) {
    for (std::size_t u = 0; u < u_count; ++u) jobs.push_back(Job{s, u});
  }
  std::vector<FriendlinessPoint> points(jobs.size());
  parallel_for(
      jobs.size(),
      [&](std::size_t i) {
        const Job& job = jobs[i];
        auto [scheme_half, tcp_half] = split(schedules[job.u]);

        // All-scheme reference.
        EmulabRunner ref_runner{config.runner};
        RunResult ref_run = ref_runner.run(
            {WorkloadPart{job.scheme, schedules[job.u], FlowRole::primary, {}}});
        const double scheme_reference = ref_run.mean_fct_ms(FlowRole::primary);

        // Mixed run.
        EmulabRunner runner{config.runner};
        RunResult mixed = runner.run(
            {WorkloadPart{job.scheme, scheme_half, FlowRole::primary, {}},
             WorkloadPart{schemes::Scheme::tcp, tcp_half, FlowRole::competing, {}}});

        FriendlinessPoint p;
        p.scheme = job.scheme;
        p.utilization = config.utilizations[job.u];
        std::vector<double> fcts;
        for (const FlowResult& flow : mixed.flows) {
          fcts.push_back(flow.finished ? flow.record.fct().to_ms()
                                       : flow.censored_fct.to_ms());
        }
        p.fct_fairness = fcts.empty() ? 1.0 : stats::Summary::jain_fairness(fcts);
        const double tcp_mixed = mixed.mean_fct_ms(FlowRole::competing);
        const double scheme_mixed = mixed.mean_fct_ms(FlowRole::primary);
        p.tcp_fct_vs_reference =
            tcp_reference[job.u] > 0 ? tcp_mixed / tcp_reference[job.u] : 0.0;
        p.scheme_fct_vs_reference =
            scheme_reference > 0 ? scheme_mixed / scheme_reference : 0.0;
        p.audit_violations = ref_run.audit_violations + mixed.audit_violations +
                             tcp_reference_violations[job.u];
        points[i] = p;
      },
      config.threads);
  return points;
}

std::vector<FlowSizeCell> flow_size_sweep(const FlowSizeSweepConfig& config,
                                          std::span<const schemes::Scheme> schemes) {
  // One shared schedule from the truncated distribution.
  workload::FlowSizeDist sizes = config.sizes.truncated(kFlowSizeTruncateBytes);
  sim::Random rng{config.runner.seed * 179426549};
  workload::ScheduleConfig sc;
  sc.target_utilization = kFlowSizeUtilization;
  sc.bottleneck = config.runner.dumbbell.bottleneck_rate;
  sc.duration = config.duration;
  std::vector<workload::FlowArrival> schedule = workload::make_schedule(sizes, sc, rng);

  std::vector<std::vector<FlowSizeCell>> per_scheme(schemes.size());
  parallel_for(
      schemes.size(),
      [&](std::size_t si) {
        EmulabRunner runner{config.runner};
        RunResult run =
            runner.run({WorkloadPart{schemes[si], schedule, FlowRole::primary, {}}});
        // Bin FCT by flow size.
        const double bin_width = static_cast<double>(config.bin_bytes);
        std::map<std::size_t, stats::Summary> bins;
        for (const FlowResult& f : run.flows) {
          const auto bin = static_cast<std::size_t>(
              static_cast<double>(f.record.flow_bytes) / bin_width);
          bins[bin].add(f.finished ? f.record.fct().to_ms() : f.censored_fct.to_ms());
        }
        for (auto& [bin, summary] : bins) {
          FlowSizeCell cell;
          cell.scheme = schemes[si];
          cell.bin_center_kb = (static_cast<double>(bin) + 0.5) * config.bin_bytes.to_kb();
          cell.mean_fct_ms = summary.mean();
          cell.flows = summary.count();
          cell.audit_violations = run.audit_violations;
          per_scheme[si].push_back(cell);
        }
      },
      config.threads);

  std::vector<FlowSizeCell> out;
  for (auto& cells : per_scheme) {
    out.insert(out.end(), cells.begin(), cells.end());
  }
  return out;
}

}  // namespace halfback::exp
