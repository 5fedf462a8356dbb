#ifndef UHSCM_IO_SERIALIZE_H_
#define UHSCM_IO_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/trainer.h"
#include "index/packed_codes.h"
#include "linalg/matrix.h"
#include "nn/sequential.h"

namespace uhscm::io {

/// \brief Binary (de)serialization for the artifacts a deployment needs
/// to persist: matrices, trained hashing networks, and packed code
/// databases.
///
/// Format: little-endian, magic + version header per artifact; every
/// payload section is followed by a 64-bit checksum so corrupt or
/// silently truncated files are rejected. Files are self-describing
/// enough to fail loudly — never silently — on mismatch.
///
/// Checksums: matrix and model files ("UHSM", "UHSN", "UHSH", version 1)
/// and the legacy code artifacts ("UHSC" versions 1 and 2) use byte-wise
/// FNV-1a (h ^= byte; h *= 1099511628211) started at 1469598103934665603,
/// which is the published offset basis with its last digit missing.
/// "UHSC" version 3 uses WordFnv1a below, which runs at memory speed
/// where the byte-wise chain of dependent multiplies costs about 4 cycles
/// per byte.

/// The checksum of a "UHSC" v3 section: FNV-1a applied to the bytes read
/// as little-endian 64-bit words, in 4 interleaved lanes.
///  - Lane l (0..3) starts at offset_basis ^ l, with FNV-1a's published
///    offset basis 14695981039346656037; word i of each whole 32-byte
///    block is folded into lane i (h ^= word; h *= 1099511628211).
///  - The result starts at offset_basis and folds lanes 0, 1, 2, 3 in
///    order with the same step.
///  - The trailing `bytes % 32` bytes are then folded in byte by byte.
/// Every step is a bijection of the running value and of the folded
/// unit, so any change to a single byte changes the sum.
uint64_t WordFnv1a(const void* data, size_t bytes);

/// Writes a matrix ("UHSM" block).
Status SaveMatrix(const linalg::Matrix& m, const std::string& path);

/// Reads a matrix written by SaveMatrix.
Result<linalg::Matrix> LoadMatrix(const std::string& path);

/// Writes all parameters of a model in Parameters() order ("UHSN"
/// block). The loader must be called on an identically-shaped model.
Status SaveModelParameters(nn::Layer* model, const std::string& path);

/// Restores parameters saved by SaveModelParameters into `model`.
/// Fails with InvalidArgument when shapes mismatch.
Status LoadModelParameters(nn::Layer* model, const std::string& path);

/// Writes a trained UHSCM hashing network together with its
/// architecture so it can be reconstructed without the original config
/// ("UHSH" block).
Status SaveHashingNetwork(const core::HashingNetwork& network,
                          const std::string& path);

/// Reconstructs a hashing network saved by SaveHashingNetwork.
Result<std::unique_ptr<core::HashingNetwork>> LoadHashingNetwork(
    const std::string& path);

/// Writes a packed code database as a "UHSC" v3 snapshot with epoch 0
/// and no tombstones (the training-side artifact).
Status SavePackedCodes(const index::PackedCodes& codes,
                       const std::string& path);

/// Reads a packed code database from any "UHSC" version; tombstoned rows
/// are compacted away so the caller receives exactly the surviving codes.
Result<index::PackedCodes> LoadPackedCodes(const std::string& path);

/// \brief A versioned serving snapshot: the whole corpus (live +
/// tombstoned rows, in global-id order), the deletion bitmap, and the
/// corpus epoch the snapshot was taken at.
///
/// Persisted as "UHSC" version 3:
///   "UHSC", u32 version, u64 epoch,
///   i32 size, i32 bits, size * ceil(bits/64) u64 code words, u64 checksum,
///   i32 bitmap words (= ceil(size/64)), the bitmap's u64 words,
///   u64 checksum.
/// Version 2 has the same layout with byte-wise FNV-1a checksums.
/// Version 1 (the old SavePackedCodes artifact) is the header and the
/// code section alone; it loads with epoch 0 and no tombstones. Both
/// legacy versions stay readable.
struct CodesSnapshot {
  index::PackedCodes codes;
  uint64_t epoch = 0;
  /// Deletion bitmap, ceil(codes.size()/64) words (empty = all rows
  /// live; v1 artifacts always load this way).
  std::vector<uint64_t> tombstone_words;
  /// On-disk format version the loader found (1 = legacy codes block,
  /// 2 = legacy serving snapshot, 3 = current). Ignored on save —
  /// SaveCodesSnapshot always writes v3.
  uint32_t version = 3;

  bool HasTombstones() const;
  /// Number of live (non-tombstoned) rows.
  int LiveCount() const;
  /// True when row `gid` is tombstoned (an empty bitmap means all rows
  /// live — the v1 shape). The one place the raw bitmap is decoded.
  bool IsDead(int gid) const {
    return !tombstone_words.empty() &&
           ((tombstone_words[static_cast<size_t>(gid >> 6)] >> (gid & 63)) &
            1ULL) != 0;
  }
};

/// Writes a v3 serving snapshot. Records its wall time in the
/// `stage.snapshot_save_ns` histogram.
Status SaveCodesSnapshot(const CodesSnapshot& snapshot,
                         const std::string& path);

/// Reads a snapshot of any "UHSC" version. Corrupt or truncated files,
/// codes that set bits past their width, and tombstone bits past the
/// last row fail with a Status — never a crash. Records its wall time in the `stage.snapshot_load_ns`
/// histogram.
Result<CodesSnapshot> LoadCodesSnapshot(const std::string& path);

}  // namespace uhscm::io

#endif  // UHSCM_IO_SERIALIZE_H_
