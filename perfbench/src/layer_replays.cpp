/**
 * @file
 * Standalone layer replays for traced runs: each feeds one layer's public
 * functions inputs derived from the workload and times the calls from
 * outside, so a regression in that layer has an address.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>

#include "cluster/instance.h"
#include "core/controller.h"
#include "core/device_mapper.h"
#include "core/migration_planner.h"
#include "costmodel/link_schedule.h"
#include "engine/kv_block_store.h"
#include "serving/request_manager.h"
#include "simcore/simulation.h"
#include "workloads.h"

namespace perfbench {

using namespace spotserve;

namespace {

/** Accumulates the wall time of timed calls. */
struct CallTimer
{
    double seconds = 0.0;
    long calls = 0;

    template <typename Fn> auto time(Fn &&fn)
    {
        const auto t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            seconds += secondsSince(t0);
            ++calls;
        } else {
            auto out = fn();
            seconds += secondsSince(t0);
            ++calls;
            return out;
        }
    }
    double meanNs() const { return calls > 0 ? 1e9 * seconds / calls : 0.0; }
};

/** A fleet of running instances with a deployment of @p old_cfg on it. */
struct Fleet
{
    std::vector<std::unique_ptr<cluster::Instance>> storage;
    std::vector<const cluster::Instance *> instances;
    engine::ContextSnapshot snapshot;
    std::vector<double> tokens;

    Fleet(int n, int gpus_per_instance, const par::ParallelConfig &old_cfg,
          int num_layers)
    {
        for (int i = 0; i < n; ++i) {
            storage.push_back(std::make_unique<cluster::Instance>(
                i, cluster::InstanceType::Spot, gpus_per_instance, 0.0));
            storage.back()->markRunning(0.0);
            instances.push_back(storage.back().get());
        }
        par::Topology topo(old_cfg, num_layers);
        for (int g = 0; g < topo.size() && g < n * gpus_per_instance; ++g) {
            engine::GpuContext ctx;
            ctx.gpu = g;
            ctx.instance = g / gpus_per_instance;
            ctx.hasModelContext = true;
            ctx.config = old_cfg;
            ctx.position = topo.position(g);
            ctx.cacheTokens = 5000.0;
            snapshot.gpus.push_back(ctx);
        }
        tokens.assign(static_cast<std::size_t>(old_cfg.dp), 5000.0);
    }
};

/** Seconds taken by each planning stage on one old -> new transition. */
struct TransitionTimes
{
    double map = 0.0;
    double identity = 0.0;
    double plan = 0.0;
    double schedule = 0.0;
};

TransitionTimes
timeTransition(const model::ModelSpec &spec, const cost::CostParams &params,
               int instances, const par::ParallelConfig &old_cfg,
               const par::ParallelConfig &new_cfg)
{
    TransitionTimes t;
    Fleet fleet(instances, params.gpusPerInstance, old_cfg, spec.numLayers());
    core::DeviceMapper mapper(spec, params);
    core::MigrationPlanner planner(spec, params);
    auto t0 = Clock::now();
    const auto mapping =
        mapper.map(fleet.snapshot, new_cfg, fleet.instances, fleet.tokens);
    t.map = secondsSince(t0);
    t0 = Clock::now();
    [[maybe_unused]] const auto same =
        mapper.map(fleet.snapshot, old_cfg, fleet.instances, fleet.tokens);
    t.identity = secondsSince(t0);
    t0 = Clock::now();
    const auto plan =
        planner.plan(fleet.snapshot, mapping, new_cfg, fleet.tokens);
    t.plan = secondsSince(t0);
    const auto steps = core::MigrationPlanner::transferSteps(plan);
    cost::LinkSchedule scheduler(params);
    cost::LinkScheduleOptions lopts;
    lopts.setupTime = params.migrationSetupTime;
    t0 = Clock::now();
    [[maybe_unused]] const auto schedule = scheduler.build(steps, lopts);
    t.schedule = secondsSince(t0);
    return t;
}

/** chooseConfig cold (fresh controller) and memoised (repeat) seconds. */
std::pair<double, double>
timeChoose(const model::ModelSpec &spec, const cost::CostParams &params,
           const cost::SeqSpec &seq, int instances, double rate)
{
    core::ParallelizationController ctrl(spec, params, seq);
    auto t0 = Clock::now();
    [[maybe_unused]] auto decision = ctrl.chooseConfig(instances, rate);
    const double cold = secondsSince(t0);
    const int reps = 20;
    t0 = Clock::now();
    for (int k = 0; k < reps; ++k)
        decision = ctrl.chooseConfig(instances, rate);
    const double memo = secondsSince(t0) / reps;
    return {cold, memo};
}

int
instancesFor(const par::ParallelConfig &cfg, int gpus_per_instance)
{
    return (cfg.totalGpus() + gpus_per_instance - 1) / gpus_per_instance;
}

} // namespace

void
replayKvBlockStore(const wl::Workload &workload, Metrics &metrics)
{
    // A replica running 16 requests at a time in arrival order: attach on
    // admission, one commit for the prefill and one per 16 decoded tokens,
    // release on completion.
    const int live_cap = 16;
    const int block = 16;
    engine::KvBlockStore store(engine::kUnboundedKvBlocks, block);
    CallTimer attach, commit, release;
    std::deque<engine::ActiveRequest> live;
    std::size_t next = 0;
    while (next < workload.size() || !live.empty()) {
        while (live.size() < static_cast<std::size_t>(live_cap) &&
               next < workload.size()) {
            engine::ActiveRequest r;
            r.request = workload[next++];
            attach.time([&] { return store.attach(r); });
            r.prefillTokens = r.request.inputLen;
            r.prefilled = true;
            commit.time([&] { store.commitProgress(r); });
            live.push_back(std::move(r));
        }
        for (auto it = live.begin(); it != live.end();) {
            it->committedTokens =
                std::min(it->committedTokens + block, it->request.outputLen);
            commit.time([&] { store.commitProgress(*it); });
            if (it->done()) {
                release.time([&] { store.release(*it); });
                it = live.erase(it);
            } else {
                ++it;
            }
        }
    }
    metrics.set("kv_block_store.attach_ns", attach.meanNs(), "ns");
    metrics.set("kv_block_store.commit_ns", commit.meanNs(), "ns");
    metrics.set("kv_block_store.release_ns", release.meanNs(), "ns");
}

void
replayAdmission(const wl::Workload &workload, Metrics &metrics)
{
    // The workload's queue in waves of 64 arrivals, drained by boundary
    // admissions of 8 free slots under block-denominated optimistic
    // charging (the SpotServe default).
    sim::Simulation simulation;
    serving::RequestManager requests(simulation);
    CallTimer admit;
    long admitted = 0;
    for (std::size_t i = 0; i < workload.size();) {
        for (std::size_t k = 0; k < 64 && i < workload.size(); ++k, ++i)
            requests.submit(workload[i]);
        while (!requests.pendingEmpty()) {
            const auto batch = admit.time([&] {
                return requests.admitAtBoundary(
                    8, engine::kUnboundedKvBlocks,
                    engine::KvAdmissionMode::Optimistic,
                    engine::kUnboundedKvBlocks, 16, nullptr);
            });
            admitted += static_cast<long>(batch.size());
            if (batch.empty())
                break;
        }
    }
    metrics.set("request_manager.admit_ns",
                admitted > 0 ? 1e9 * admit.seconds / admitted : 0.0, "ns");
}

void
replayPlanning(const model::ModelSpec &spec, const cost::CostParams &params,
               const cost::SeqSpec &seq,
               const std::vector<serving::ConfigChange> &history,
               double arrival_rate, Metrics &metrics)
{
    const int gpi = params.gpusPerInstance;
    std::vector<double> cold, memo, map, identity, plan, schedule;
    for (std::size_t i = 0; i < history.size(); ++i) {
        const auto &cfg = history[i].config;
        const auto [c, m] =
            timeChoose(spec, params, seq, instancesFor(cfg, gpi), arrival_rate);
        cold.push_back(c);
        memo.push_back(m);
        if (i == 0)
            continue;
        const auto &prev = history[i - 1].config;
        const int n = std::max(instancesFor(prev, gpi), instancesFor(cfg, gpi));
        const auto t = timeTransition(spec, params, n, prev, cfg);
        map.push_back(t.map);
        identity.push_back(t.identity);
        plan.push_back(t.plan);
        schedule.push_back(t.schedule);
    }
    metrics.set("controller.choose_cold_ms", 1e3 * mean(cold), "ms");
    metrics.set("controller.choose_memo_us", 1e6 * mean(memo), "us");
    metrics.set("mapper.map_ms", 1e3 * mean(map), "ms");
    metrics.set("mapper.identity_us", 1e6 * mean(identity), "us");
    metrics.set("planner.plan_ms", 1e3 * mean(plan), "ms");
    metrics.set("link_schedule.build_ms", 1e3 * mean(schedule), "ms");
}

void
planningRows(Metrics &metrics)
{
    // The fleet-filling inputs bench/micro_algorithms.cpp times: GPT-20B,
    // an old (P=2, M=8) deployment remapped to (P=3, M=4).
    const auto spec = model::ModelSpec::gpt20b();
    const auto params = cost::CostParams::awsG4dn();
    const cost::SeqSpec seq{};
    for (int n : {32, 64, 128}) {
        const int gpus = n * params.gpusPerInstance;
        const par::ParallelConfig old_cfg{std::max(1, gpus / 16), 2, 8, 8};
        const par::ParallelConfig new_cfg{std::max(1, gpus / 12), 3, 4, 8};
        const auto [cold, memo] = timeChoose(spec, params, seq, n, 0.35);
        const auto t = timeTransition(spec, params, n, old_cfg, new_cfg);
        const std::string sfx = ".n" + std::to_string(n);
        metrics.set("controller.choose_cold_ms" + sfx, 1e3 * cold, "ms");
        metrics.set("controller.choose_memo_us" + sfx, 1e6 * memo, "us");
        metrics.set("mapper.map_ms" + sfx, 1e3 * t.map, "ms");
        metrics.set("mapper.identity_us" + sfx, 1e6 * t.identity, "us");
        metrics.set("planner.plan_ms" + sfx, 1e3 * t.plan, "ms");
        metrics.set("link_schedule.build_ms" + sfx, 1e3 * t.schedule, "ms");
    }
}

} // namespace perfbench
