// The five ledger workloads. Each fills the report for one run: the
// end-to-end metrics when untraced, the per-layer metrics when traced.
#ifndef UHSCM_BENCH_LEDGER_WORKLOADS_H_
#define UHSCM_BENCH_LEDGER_WORKLOADS_H_

#include "ledger.h"

namespace uhscm::ledger {

void RunBuildWorkload(const RunConfig& config, Report* report);
/// serve-scan, serve-hot and serve-churn.
void RunServeWorkload(const RunConfig& config, Report* report);
void RunDedupWorkload(const RunConfig& config, Report* report);

}  // namespace uhscm::ledger

#endif  // UHSCM_BENCH_LEDGER_WORKLOADS_H_
