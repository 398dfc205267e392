/**
 * @file
 * The benchmark's workloads and the standalone layer replays they share.
 *
 * The workloads (fig8-churn, steady-fewshot, fleet-churn) replay seeded
 * inputs through serving::runExperimentOn on a private Simulation.  The
 * traced run of fleet-churn also serves a loopback load generator through
 * serving::SocketIngress on a WallClockExecutor.
 */

#ifndef SPOTSERVE_PERFBENCH_WORKLOADS_H
#define SPOTSERVE_PERFBENCH_WORKLOADS_H

#include <vector>

#include "bench_common.h"
#include "cluster/availability_trace.h"
#include "costmodel/cost_params.h"
#include "model/model_spec.h"
#include "serving/serving_system.h"
#include "workload/workload.h"

namespace perfbench {

/** Run one workload (end-to-end or traced, per @p args). */
void runSimulatedWorkload(const RunArgs &args, Ledger &ledger,
                          Metrics &metrics);

/**
 * A short traced loopback trial on the wall clock (window
 * ingress_window_s) that fills the wallclock.*, ingress.* and loadgen.*
 * layer metrics of a simulated workload's traced run.
 */
void measureIngressLayer(const RunArgs &args, Ledger &ledger,
                         Metrics &metrics);

/**
 * The churn trace of fleet-churn and of its loopback trial: all
 * @p instances spot instances join at t = 0; from @p first_notice on,
 * every @p period seconds @p count of them get a preemption notice and
 * @p count fresh ones join @p rejoin_after seconds after the notice.
 */
spotserve::cluster::AvailabilityTrace
waveChurnTrace(int instances, double first_notice, double period, int count,
               double rejoin_after, double duration);

/**
 * Completions whose finish time falls inside [t - 5 s, t + 90 s) of any
 * configuration the run recorded (its first deployment included) — the
 * windows bench/fig8_fluctuating.cpp scores churn goodput on.
 */
long churnWindowCompletions(
    const std::vector<spotserve::serving::ConfigChange> &history,
    const std::vector<double> &finish_times);

/**
 * Standalone layer replays (traced runs only).  Each times calls into one
 * layer from outside on inputs derived from the workload.
 * @{ */
/** attach / commitProgress / release on a standalone KvBlockStore fed the
 *  workload's prefix and length sequence. */
void replayKvBlockStore(const spotserve::wl::Workload &workload,
                        Metrics &metrics);
/** RequestManager::admitAtBoundary over the workload's queue. */
void replayAdmission(const spotserve::wl::Workload &workload,
                     Metrics &metrics);
/** chooseConfig / DeviceMapper / MigrationPlanner / LinkSchedule on the
 *  configuration changes @p history visited (GPUs per instance from
 *  @p params). */
void replayPlanning(const spotserve::model::ModelSpec &spec,
                    const spotserve::cost::CostParams &params,
                    const spotserve::cost::SeqSpec &seq,
                    const std::vector<spotserve::serving::ConfigChange> &history,
                    double arrival_rate, Metrics &metrics);
/** The same planning path on fleet-filling 32/64/128-instance inputs. */
void planningRows(Metrics &metrics);
/** @} */

} // namespace perfbench

#endif // SPOTSERVE_PERFBENCH_WORKLOADS_H
