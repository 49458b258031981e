//===- aero/ClockMaps.h - Per-lock / per-variable clock frontiers -*-C++-*-===//
//
// The analysis state the vector-clock checker keeps per synchronization
// object, mirroring Velodrome's U / W / R last-step maps but holding
// transaction-clock references instead of graph steps:
//
//   - per lock: the transaction that performed the last release;
//   - per variable: the transaction of the last write, plus one reader
//     transaction per thread since that write (cleared at each write — the
//     same frontier reduction Velodrome applies to R(x,*), sound because
//     every cleared reader's clock has been folded into the writer's).
//
//===----------------------------------------------------------------------===//

#ifndef VELO_AERO_CLOCKMAPS_H
#define VELO_AERO_CLOCKMAPS_H

#include "aero/TxnClock.h"
#include "support/IdTable.h"

#include <vector>

namespace velo {

/// Read/write frontier of one shared variable.
struct VarClocks {
  TxnClockRef LastWrite;
  /// Reader transaction per thread since the last write (index = tid).
  std::vector<TxnClockRef> Readers;
};

/// LockId -> last-releasing transaction.
using LockClockMap = IdTable<TxnClockRef>;

/// VarId -> read/write frontier.
using VarClockMap = IdTable<VarClocks>;

} // namespace velo

#endif // VELO_AERO_CLOCKMAPS_H
