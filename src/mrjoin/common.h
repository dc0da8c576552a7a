// Record codecs shared by the MapReduce join plans.
//
// Two record families carry tuples across the shuffle:
//  * code records — (table tag, tuple id, binary code). The hash-based
//    plans (PMH, MRHA) ship these; their size is independent of the data
//    dimensionality, which is why Figure 7 shows them an order of
//    magnitude below PGBJ.
//  * vector records — (table tag, tuple id, full d-dimensional vector).
//    PGBJ must ship these because it joins in the original metric space;
//    its shuffle grows with d and with replication.
//
// A third family carries answers:
//  * join blocks — (R ids, S ids), standing for their cross product. The
//    Hamming plans emit one block per reduce group (MRHA Option B: one per
//    qualifying code) or per probe (MRHA Option A, PMH: the probe's
//    matches × {s}), so an answer of millions of pairs leaves the
//    reducers as thousands of records and CollectJoinPairs expands it.
//    MRHA Option B also shuffles partial blocks through its post-join:
//    each R tuple as (code, {r} × {}) and each join partition's S ids
//    for a qualifying code as (code, {} × S ids); the post-join reducer
//    concatenates a code's blocks into that code's answer block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "code/binary_code.h"
#include "common/result.h"
#include "dataset/matrix.h"
#include "join/centralized_join.h"
#include "mapreduce/job.h"

namespace hamming::mrjoin {

/// \brief Knobs every MapReduce join/select plan shares.
///
/// Each plan's options struct inherits this base, so the partition count,
/// the Hamming threshold and the per-job execution options (attempts,
/// speculation, fault injection, event tracing) are spelled identically
/// across MRHA, PGBJ, PMH, MR-Select and the kNN variant. Fields a plan
/// does not use (PGBJ joins in the original metric space, so `code_bits`
/// and `h` are ignored there) simply stay at their defaults.
struct MRJoinOptions {
  std::size_t num_partitions = 16;  ///< reducers per MapReduce job
  std::size_t code_bits = 32;       ///< binary code length L
  std::size_t h = 3;                ///< Hamming join/select threshold
  double sample_rate = 0.1;         ///< driver-side sampling fraction
  uint64_t seed = 42;
  /// Execution options forwarded into every JobSpec the plan runs. The
  /// plan overwrites `exec.num_reducers` (from num_partitions) and
  /// `exec.partition_fn` per job; the attempt/speculation/fault/observer
  /// fields pass through untouched.
  mr::ExecutionOptions exec;
};

/// \brief Execution options for one of a plan's jobs: the shared `exec`
/// block with the plan's reducer count and this job's partitioner
/// plugged in.
mr::ExecutionOptions PlanJobOptions(const MRJoinOptions& opts,
                                    mr::PartitionFn partition_fn);

/// \brief The partitioner every plan's partition-keyed jobs share: keys
/// are fixed32 PartitionKey ids, routed id % num_reducers.
mr::PartitionFn PartitionKeyRouter();

/// \brief Which input table a record came from.
enum class Table : uint8_t { kR = 0, kS = 1 };

/// \brief A (table, id, code) payload.
struct CodeTuple {
  Table table;
  TupleId id;
  BinaryCode code;
};

/// \brief A (table, id, vector) payload.
struct VectorTuple {
  Table table;
  TupleId id;
  std::vector<double> vec;
};

/// \brief Encodes/decodes a CodeTuple into a record value.
std::vector<uint8_t> EncodeCodeTuple(const CodeTuple& t);
Result<CodeTuple> DecodeCodeTuple(const std::vector<uint8_t>& bytes);

/// \brief Encodes/decodes a VectorTuple into a record value: table tag,
/// id and length as varints, then the doubles as fixed64 (bulk-copied).
/// The decoder returns IOError for a table tag other than R/S, an id past
/// TupleId's range, a length exceeding the bytes left (checked before
/// anything is sized) and trailing bytes.
std::vector<uint8_t> EncodeVectorTuple(const VectorTuple& t);
Result<VectorTuple> DecodeVectorTuple(const std::vector<uint8_t>& bytes);

/// \brief The pairs r_ids × s_ids, as one record value.
struct JoinBlock {
  std::vector<TupleId> r_ids;
  std::vector<TupleId> s_ids;
};

/// \brief Encodes a join block: |R ids|, |S ids|, the R ids, the S ids,
/// all varints.
std::vector<uint8_t> EncodeJoinBlock(std::span<const TupleId> r_ids,
                                     std::span<const TupleId> s_ids);

/// \brief Decodes a join block into `block`, reusing its buffers. A
/// header whose id counts exceed the bytes left (every id takes at least
/// one) is an IOError raised before anything is reserved; so are an id
/// past TupleId's range and trailing bytes.
Status DecodeJoinBlock(const std::vector<uint8_t>& bytes, JoinBlock* block);

/// \brief A fixed32 partition-id key (keeps keys tiny and orderable).
std::vector<uint8_t> PartitionKey(uint32_t partition);
Result<uint32_t> DecodePartitionKey(const std::vector<uint8_t>& key);

/// \brief Wraps every row of a matrix into vector records of one table
/// (key left empty; mappers key their own output).
std::vector<mr::Record> MatrixToRecords(const FloatMatrix& data, Table table);

/// \brief Expands reducer outputs of join blocks into one pair list:
/// blocks in output order, each as "for r, for s". The list is reserved
/// exactly from the block headers before anything is expanded.
Result<std::vector<JoinPair>> CollectJoinPairs(
    const std::vector<std::vector<mr::Record>>& outputs);

}  // namespace hamming::mrjoin
