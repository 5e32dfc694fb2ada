#ifndef LUSAIL_CORE_HASH_JOIN_H_
#define LUSAIL_CORE_HASH_JOIN_H_

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/id_table.h"

namespace lusail::core {

/// Parallel partitioned in-memory hash join over federation binding
/// tables (the join machinery behind SAPE's global join phase).
///
/// Both inputs are hash-partitioned on the shared-variable key into
/// `partitions` buckets; bucket pairs are joined concurrently through the
/// pool and concatenated. Inputs with no shared variables (cartesian
/// product) or with unbound key cells (OPTIONAL leftovers) fall back to
/// the single-threaded compatibility join.
///
/// When `cancel` is non-null the join polls it at partition/chunk
/// boundaries (and every ~1k cells of a cartesian product) and stops
/// producing output once it fires. The return value is then an
/// incomplete table the caller must discard after its own cancel check —
/// the join itself cannot fail, so cancellation surfaces as a Status one
/// level up, where the token is visible.
IdTable ParallelHashJoin(const IdTable& left,
                         const IdTable& right,
                         ThreadPool* pool, size_t partitions,
                         const CancelToken* cancel = nullptr);

/// Cartesian product with left rows range-partitioned across the pool;
/// each worker crosses its left chunk with the whole right side.
/// ParallelHashJoin dispatches here above its output-size threshold;
/// exposed so bench_micro can measure the serial/parallel crossover at
/// any size (that measurement is how the threshold was chosen) and the
/// cancellation latency of a running join.
IdTable ParallelCartesian(const IdTable& left,
                          const IdTable& right,
                          ThreadPool* pool, size_t partitions,
                          const CancelToken* cancel = nullptr);

}  // namespace lusail::core

#endif  // LUSAIL_CORE_HASH_JOIN_H_
