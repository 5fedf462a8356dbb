#include "obs/kernel_counters.h"

namespace uhscm::obs {

void KernelCounters::Flush() {
  if (!RuntimeEnabled()) {
    *this = KernelCounters{};
    return;
  }
  // Pointers resolve once per process; the registry guarantees they stay
  // valid, so every later flush is a handful of relaxed atomic adds.
  struct Slots {
    Counter* rows;
    Counter* blocks;
    Counter* abandon;
    Counter* probed;
    Counter* verified;
    Counter* join_tiles;
    Counter* join_pruned;
    Counter* join_scored;
  };
  static const Slots slots = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return Slots{reg.GetCounter("scan.rows_scanned"),
                 reg.GetCounter("scan.blocks_skipped"),
                 reg.GetCounter("scan.early_abandon_calls"),
                 reg.GetCounter("mih.candidates_probed"),
                 reg.GetCounter("mih.candidates_verified"),
                 reg.GetCounter("join.tiles"),
                 reg.GetCounter("join.pairs_pruned"),
                 reg.GetCounter("join.pairs_scored")};
  }();
  if (rows_scanned != 0) slots.rows->Add(rows_scanned);
  if (blocks_skipped != 0) slots.blocks->Add(blocks_skipped);
  if (early_abandon_calls != 0) slots.abandon->Add(early_abandon_calls);
  if (mih_candidates_probed != 0) slots.probed->Add(mih_candidates_probed);
  if (mih_candidates_verified != 0) {
    slots.verified->Add(mih_candidates_verified);
  }
  if (join_tiles != 0) slots.join_tiles->Add(join_tiles);
  if (join_pairs_pruned != 0) slots.join_pruned->Add(join_pairs_pruned);
  if (join_pairs_scored != 0) slots.join_scored->Add(join_pairs_scored);
  *this = KernelCounters{};
}

}  // namespace uhscm::obs
