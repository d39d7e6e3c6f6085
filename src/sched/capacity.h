// Per-SoC multi-resource accounting shared by every placement call site.
// CPU/GPU/DSP utilization and hardware-codec sessions are delegated to the
// live SocModel (so charges vanish exactly when a SoC fails, as on real
// hardware); memory and generic slot pools — which SocModel does not track
// — are ledgered here. Reserve() CHECK-fails on oversubscription, making
// "a placement never overcommits a SoC" an enforced invariant instead of a
// per-service convention.
//
// The slot ledger doubles as a placement index: a free-slot bitset, one
// uint64_t word per 64 SoCs, with bit i set exactly when
// SlotsUsed(i) < slot_capacity(). Reserve() and Release() are the only
// writers of the slot ledger, so they alone keep the bitset current; no
// SoC state change (failure, power, quarantine) touches it. A clear bit
// proves that any demand asking for slots fails Fits() on that SoC, which
// is all the Placer relies on when it enumerates set bits instead of
// sweeping every SoC.

#ifndef SRC_SCHED_CAPACITY_H_
#define SRC_SCHED_CAPACITY_H_

#include <cstdint>
#include <vector>

#include "src/base/digest.h"
#include "src/cluster/cluster.h"
#include "src/sched/placement.h"

namespace soccluster {

class SocCapacityView {
 public:
  struct Options {
    // Per-SoC memory capacity override in GB; negative means "use each
    // SoC's spec memory" (heterogeneous clusters keep per-slot capacity).
    double memory_capacity_gb = -1.0;
    // Per-SoC slot-pool capacity. Zero disables the pool; demands must not
    // request slots then.
    int slot_capacity = 0;
  };

  explicit SocCapacityView(SocCluster* cluster);
  SocCapacityView(SocCluster* cluster, Options options);
  SocCapacityView(const SocCapacityView&) = delete;
  SocCapacityView& operator=(const SocCapacityView&) = delete;

  int num_socs() const;

  // The fault taxonomy's single notion of "can host new work": false for
  // failed, rebooting, and powered-off SoCs. Every placement path must go
  // through this — no service re-derives usability on its own.
  bool IsPlaceable(int soc_index) const;

  // True when `demand` fits on the SoC right now (usability included).
  bool Fits(int soc_index, const PlacementDemand& demand) const;

  // Charges the SoC and the ledgers. CHECK-fails if the demand does not
  // fit — callers must have picked the SoC through a fitting check.
  void Reserve(int soc_index, const PlacementDemand& demand);

  // Releases a prior reservation. SoC-side charges (CPU/GPU/DSP/codec) are
  // skipped when the SoC is not usable — they vanished with Fail() — and
  // clamped so a fail/reboot race can never drive utilization negative.
  // Ledgered dimensions (memory, slots) always release.
  void Release(int soc_index, const PlacementDemand& demand);

  double MemoryCapacityGb(int soc_index) const;
  double MemoryUsedGb(int soc_index) const;
  int SlotsUsed(int soc_index) const;
  int slot_capacity() const { return options_.slot_capacity; }
  // Bit i of word i / 64 is set exactly when SlotsUsed(i) <
  // slot_capacity(); bits at or past num_socs() are always clear.
  const std::vector<uint64_t>& free_slot_words() const {
    return free_slots_;
  }

  const SocCluster& cluster() const { return *cluster_; }

  // Mixes the ledgered dimensions (memory, slots) per SoC in index order.
  // SoC-side charges are digested by SocCluster::DigestState.
  void DigestState(StateDigest& digest) const;

 private:
  // Re-derives the SoC's free-slot bit from its slot ledger.
  void UpdateFreeSlotBit(int soc_index);

  SocCluster* cluster_;
  Options options_;
  std::vector<double> memory_used_gb_;
  std::vector<int> slots_used_;
  std::vector<uint64_t> free_slots_;
};

}  // namespace soccluster

#endif  // SRC_SCHED_CAPACITY_H_
