#include "io/serialize.h"

#include <cstdint>
#include <cstring>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace uhscm::io {

namespace {

constexpr uint32_t kVersion = 1;
/// "UHSC" versions: 1 is the codes-only artifact, 2 adds the corpus epoch
/// and the tombstone bitmap, 3 keeps v2's layout with WordFnv1a section
/// checksums. Every version stays readable; only v3 is written.
constexpr uint32_t kCodesV2 = 2;
constexpr uint32_t kCodesV3 = 3;

constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
/// The offset basis of the byte-wise checksum: the published one with its
/// last digit missing. Every file written before v3 carries sums over it.
constexpr uint64_t kLegacyOffsetBasis = 1469598103934665603ULL;

/// Byte-wise FNV-1a: model and matrix files, and "UHSC" v1/v2 sections.
uint64_t Checksum(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = kLegacyOffsetBasis;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// The checksum a "UHSC" section of `version` carries.
uint64_t SectionChecksum(uint32_t version, const void* data, size_t bytes) {
  return version >= kCodesV3 ? WordFnv1a(data, bytes) : Checksum(data, bytes);
}

/// RAII FILE wrapper.
struct File {
  explicit File(std::FILE* f) : fp(f) {}
  ~File() {
    if (fp != nullptr) std::fclose(fp);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  std::FILE* fp;
};

Status WriteBytes(std::FILE* fp, const void* data, size_t bytes) {
  // Empty payloads (0-row matrices, empty code sets) carry a null data
  // pointer; calling fwrite with it is UB even for 0 bytes.
  if (bytes == 0) return Status::OK();
  if (std::fwrite(data, 1, bytes, fp) != bytes) {
    return Status::Internal("short write");
  }
  return Status::OK();
}

Status ReadBytes(std::FILE* fp, void* data, size_t bytes) {
  if (bytes == 0) return Status::OK();
  if (std::fread(data, 1, bytes, fp) != bytes) {
    return Status::Internal("short read (file truncated?)");
  }
  return Status::OK();
}

template <typename T>
Status WritePod(std::FILE* fp, const T& value) {
  return WriteBytes(fp, &value, sizeof(T));
}

template <typename T>
Status ReadPod(std::FILE* fp, T* value) {
  return ReadBytes(fp, value, sizeof(T));
}

/// Header: 4-char magic + version.
Status WriteHeader(std::FILE* fp, const char magic[4],
                   uint32_t version = kVersion) {
  UHSCM_RETURN_NOT_OK(WriteBytes(fp, magic, 4));
  return WritePod(fp, version);
}

/// Reads magic + version; validates the magic only — multi-version
/// artifacts (UHSC) branch on *version themselves.
Status ReadHeader(std::FILE* fp, const char magic[4], const std::string& path,
                  uint32_t* version) {
  char got[4];
  UHSCM_RETURN_NOT_OK(ReadBytes(fp, got, 4));
  if (std::memcmp(got, magic, 4) != 0) {
    return Status::InvalidArgument(
        StrFormat("%s: wrong artifact type (magic mismatch)", path.c_str()));
  }
  return ReadPod(fp, version);
}

Status CheckHeader(std::FILE* fp, const char magic[4],
                   const std::string& path) {
  uint32_t version = 0;
  UHSCM_RETURN_NOT_OK(ReadHeader(fp, magic, path, &version));
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("%s: unsupported version %u", path.c_str(), version));
  }
  return Status::OK();
}

/// Fails unless `count` elements of `elem_bytes` bytes each fit in what
/// is left of the file. Loaders call it before allocating what a header
/// field implies, so a garbage size field fails with a Status instead of
/// a multi-GB bad_alloc. Dividing the remainder keeps the comparison
/// free of overflow for any count.
Status CheckPayloadFits(std::FILE* fp, uint64_t count, size_t elem_bytes,
                        const std::string& path, const char* what) {
  const long here = std::ftell(fp);
  if (here < 0 || std::fseek(fp, 0, SEEK_END) != 0) {
    return Status::Internal(path + ": seek failed");
  }
  const long file_end = std::ftell(fp);
  if (file_end < here || std::fseek(fp, here, SEEK_SET) != 0) {
    return Status::Internal(path + ": seek failed");
  }
  if (count > static_cast<uint64_t>(file_end - here) / elem_bytes) {
    return Status::InvalidArgument(
        StrFormat("%s: corrupt %s (payload exceeds file size)", path.c_str(),
                  what));
  }
  return Status::OK();
}

Status WriteMatrixBody(std::FILE* fp, const linalg::Matrix& m) {
  const int32_t rows = m.rows();
  const int32_t cols = m.cols();
  UHSCM_RETURN_NOT_OK(WritePod(fp, rows));
  UHSCM_RETURN_NOT_OK(WritePod(fp, cols));
  const size_t bytes = m.size() * sizeof(float);
  UHSCM_RETURN_NOT_OK(WriteBytes(fp, m.data(), bytes));
  return WritePod(fp, Checksum(m.data(), bytes));
}

Result<linalg::Matrix> ReadMatrixBody(std::FILE* fp,
                                      const std::string& path) {
  int32_t rows = 0;
  int32_t cols = 0;
  UHSCM_RETURN_NOT_OK(ReadPod(fp, &rows));
  UHSCM_RETURN_NOT_OK(ReadPod(fp, &cols));
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument(path + ": negative matrix dimensions");
  }
  const uint64_t count = static_cast<uint64_t>(rows) * cols;
  UHSCM_RETURN_NOT_OK(
      CheckPayloadFits(fp, count, sizeof(float), path, "matrix header"));
  std::vector<float> data(count);
  const size_t bytes = data.size() * sizeof(float);
  UHSCM_RETURN_NOT_OK(ReadBytes(fp, data.data(), bytes));
  uint64_t checksum = 0;
  UHSCM_RETURN_NOT_OK(ReadPod(fp, &checksum));
  if (checksum != Checksum(data.data(), bytes)) {
    return Status::InvalidArgument(path + ": checksum mismatch (corrupt)");
  }
  return linalg::Matrix::FromRowMajor(rows, cols, std::move(data));
}

}  // namespace

uint64_t WordFnv1a(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t lane[4];
  for (uint64_t l = 0; l < 4; ++l) lane[l] = kFnvOffsetBasis ^ l;
  const size_t blocks = bytes / 32;
  for (size_t b = 0; b < blocks; ++b, p += 32) {
    for (int l = 0; l < 4; ++l) {
      uint64_t word;
      std::memcpy(&word, p + 8 * l, sizeof(word));
      lane[l] = (lane[l] ^ word) * kFnvPrime;
    }
  }
  uint64_t h = kFnvOffsetBasis;
  for (uint64_t l : lane) h = (h ^ l) * kFnvPrime;
  for (size_t i = 0; i < bytes % 32; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

Status SaveMatrix(const linalg::Matrix& m, const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file.fp == nullptr) return Status::NotFound("cannot open " + path);
  UHSCM_RETURN_NOT_OK(WriteHeader(file.fp, "UHSM"));
  return WriteMatrixBody(file.fp, m);
}

Result<linalg::Matrix> LoadMatrix(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.fp == nullptr) return Status::NotFound("cannot open " + path);
  UHSCM_RETURN_NOT_OK(CheckHeader(file.fp, "UHSM", path));
  return ReadMatrixBody(file.fp, path);
}

Status SaveModelParameters(nn::Layer* model, const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file.fp == nullptr) return Status::NotFound("cannot open " + path);
  UHSCM_RETURN_NOT_OK(WriteHeader(file.fp, "UHSN"));
  std::vector<nn::Parameter> params = model->Parameters();
  const int32_t count = static_cast<int32_t>(params.size());
  UHSCM_RETURN_NOT_OK(WritePod(file.fp, count));
  for (const nn::Parameter& p : params) {
    UHSCM_RETURN_NOT_OK(WriteMatrixBody(file.fp, *p.value));
  }
  return Status::OK();
}

Status LoadModelParameters(nn::Layer* model, const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.fp == nullptr) return Status::NotFound("cannot open " + path);
  UHSCM_RETURN_NOT_OK(CheckHeader(file.fp, "UHSN", path));
  std::vector<nn::Parameter> params = model->Parameters();
  int32_t count = 0;
  UHSCM_RETURN_NOT_OK(ReadPod(file.fp, &count));
  if (count != static_cast<int32_t>(params.size())) {
    return Status::InvalidArgument(
        StrFormat("%s: parameter count mismatch (file %d, model %zu)",
                  path.c_str(), count, params.size()));
  }
  for (nn::Parameter& p : params) {
    Result<linalg::Matrix> m = ReadMatrixBody(file.fp, path);
    if (!m.ok()) return m.status();
    if (m->rows() != p.value->rows() || m->cols() != p.value->cols()) {
      return Status::InvalidArgument(
          StrFormat("%s: parameter shape mismatch (file %dx%d, model %dx%d)",
                    path.c_str(), m->rows(), m->cols(), p.value->rows(),
                    p.value->cols()));
    }
    *p.value = std::move(m.ValueOrDie());
  }
  return Status::OK();
}

Status SaveHashingNetwork(const core::HashingNetwork& network,
                          const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file.fp == nullptr) return Status::NotFound("cannot open " + path);
  UHSCM_RETURN_NOT_OK(WriteHeader(file.fp, "UHSH"));
  const int32_t input_dim = network.input_dim();
  const int32_t hidden1 = network.options().hidden1;
  const int32_t hidden2 = network.options().hidden2;
  const int32_t bits = network.bits();
  UHSCM_RETURN_NOT_OK(WritePod(file.fp, input_dim));
  UHSCM_RETURN_NOT_OK(WritePod(file.fp, hidden1));
  UHSCM_RETURN_NOT_OK(WritePod(file.fp, hidden2));
  UHSCM_RETURN_NOT_OK(WritePod(file.fp, bits));
  // Parameters, in Parameters() order.
  nn::Sequential* model = const_cast<core::HashingNetwork&>(network).model();
  for (const nn::Parameter& p : model->Parameters()) {
    UHSCM_RETURN_NOT_OK(WriteMatrixBody(file.fp, *p.value));
  }
  return Status::OK();
}

Result<std::unique_ptr<core::HashingNetwork>> LoadHashingNetwork(
    const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.fp == nullptr) return Status::NotFound("cannot open " + path);
  UHSCM_RETURN_NOT_OK(CheckHeader(file.fp, "UHSH", path));
  int32_t input_dim = 0, hidden1 = 0, hidden2 = 0, bits = 0;
  UHSCM_RETURN_NOT_OK(ReadPod(file.fp, &input_dim));
  UHSCM_RETURN_NOT_OK(ReadPod(file.fp, &hidden1));
  UHSCM_RETURN_NOT_OK(ReadPod(file.fp, &hidden2));
  UHSCM_RETURN_NOT_OK(ReadPod(file.fp, &bits));
  if (input_dim <= 0 || hidden1 <= 0 || hidden2 <= 0 || bits <= 0) {
    return Status::InvalidArgument(path + ": corrupt architecture header");
  }
  // The weights and biases of the three Linear layers must all be in the
  // file; bounding them first keeps a garbage dimension from sizing the
  // network's allocation.
  const auto linear_floats = [](int32_t in, int32_t out) {
    return static_cast<uint64_t>(in) * static_cast<uint64_t>(out) +
           static_cast<uint64_t>(out);
  };
  const uint64_t param_floats = linear_floats(input_dim, hidden1) +
                                linear_floats(hidden1, hidden2) +
                                linear_floats(hidden2, bits);
  UHSCM_RETURN_NOT_OK(CheckPayloadFits(file.fp, param_floats, sizeof(float),
                                       path, "architecture header"));
  core::HashingNetworkOptions options;
  options.hidden1 = hidden1;
  options.hidden2 = hidden2;
  options.bits = bits;
  Rng rng(0);  // weights are overwritten below
  auto network =
      std::make_unique<core::HashingNetwork>(input_dim, options, &rng);
  for (nn::Parameter& p : network->model()->Parameters()) {
    Result<linalg::Matrix> m = ReadMatrixBody(file.fp, path);
    if (!m.ok()) return m.status();
    if (m->rows() != p.value->rows() || m->cols() != p.value->cols()) {
      return Status::InvalidArgument(path + ": parameter shape mismatch");
    }
    *p.value = std::move(m.ValueOrDie());
  }
  return network;
}

namespace {

/// The codes section of every "UHSC" version: size, bits, words,
/// checksum.
Status WriteCodesBody(std::FILE* fp, const index::PackedCodes& codes) {
  const int32_t size = codes.size();
  const int32_t bits = codes.bits();
  UHSCM_RETURN_NOT_OK(WritePod(fp, size));
  UHSCM_RETURN_NOT_OK(WritePod(fp, bits));
  const size_t bytes = codes.words().size() * sizeof(uint64_t);
  UHSCM_RETURN_NOT_OK(WriteBytes(fp, codes.words().data(), bytes));
  return WritePod(fp, WordFnv1a(codes.words().data(), bytes));
}

Result<index::PackedCodes> ReadCodesBody(std::FILE* fp, uint32_t version,
                                         const std::string& path) {
  int32_t size = 0, bits = 0;
  UHSCM_RETURN_NOT_OK(ReadPod(fp, &size));
  UHSCM_RETURN_NOT_OK(ReadPod(fp, &bits));
  if (size < 0 || bits <= 0) {
    return Status::InvalidArgument(path + ": corrupt code header");
  }
  // 64-bit: bits + 63 overflows int32 for bits near INT32_MAX.
  const uint64_t words_per_code = (static_cast<uint64_t>(bits) + 63) / 64;
  const uint64_t count = static_cast<uint64_t>(size) * words_per_code;
  UHSCM_RETURN_NOT_OK(
      CheckPayloadFits(fp, count, sizeof(uint64_t), path, "code header"));
  std::vector<uint64_t> words(count);
  const size_t bytes = words.size() * sizeof(uint64_t);
  UHSCM_RETURN_NOT_OK(ReadBytes(fp, words.data(), bytes));
  uint64_t checksum = 0;
  UHSCM_RETURN_NOT_OK(ReadPod(fp, &checksum));
  if (checksum != SectionChecksum(version, words.data(), bytes)) {
    return Status::InvalidArgument(path + ": checksum mismatch (corrupt)");
  }
  // Bits past `bits` in a code's last word would count in every
  // distance to it.
  if (bits % 64 != 0) {
    const uint64_t padding = ~uint64_t{0} << (bits % 64);
    for (uint64_t i = words_per_code - 1; i < count; i += words_per_code) {
      if ((words[i] & padding) != 0) {
        return Status::InvalidArgument(StrFormat(
            "%s: code %llu sets bits past its %d-bit width", path.c_str(),
            static_cast<unsigned long long>(i / words_per_code), bits));
      }
    }
  }
  return index::PackedCodes::FromRawWords(size, bits, std::move(words));
}

/// Writes a v3 snapshot of `codes`; an empty `tombstone_words` is
/// persisted as the full-width all-live bitmap so the loader never has
/// to special-case it.
Status WriteSnapshot(const index::PackedCodes& codes, uint64_t epoch,
                     const std::vector<uint64_t>& tombstone_words,
                     const std::string& path) {
  obs::StageTimer timer("stage.snapshot_save_ns");
  const size_t expected_words = static_cast<size_t>((codes.size() + 63) / 64);
  if (!tombstone_words.empty() && tombstone_words.size() != expected_words) {
    return Status::InvalidArgument(
        StrFormat("%s: tombstone bitmap has %zu words, corpus needs %zu",
                  path.c_str(), tombstone_words.size(), expected_words));
  }
  File file(std::fopen(path.c_str(), "wb"));
  if (file.fp == nullptr) return Status::NotFound("cannot open " + path);
  UHSCM_RETURN_NOT_OK(WriteHeader(file.fp, "UHSC", kCodesV3));
  UHSCM_RETURN_NOT_OK(WritePod(file.fp, epoch));
  UHSCM_RETURN_NOT_OK(WriteCodesBody(file.fp, codes));
  // Tombstone section: word count, bitmap, checksum.
  const int32_t tomb_words = static_cast<int32_t>(expected_words);
  UHSCM_RETURN_NOT_OK(WritePod(file.fp, tomb_words));
  std::vector<uint64_t> bitmap = tombstone_words;
  bitmap.resize(expected_words, 0);
  const size_t bytes = bitmap.size() * sizeof(uint64_t);
  UHSCM_RETURN_NOT_OK(WriteBytes(file.fp, bitmap.data(), bytes));
  return WritePod(file.fp, WordFnv1a(bitmap.data(), bytes));
}

}  // namespace

bool CodesSnapshot::HasTombstones() const {
  for (uint64_t w : tombstone_words) {
    if (w != 0) return true;
  }
  return false;
}

int CodesSnapshot::LiveCount() const {
  int dead = 0;
  for (uint64_t w : tombstone_words) dead += __builtin_popcountll(w);
  return codes.size() - dead;
}

Status SavePackedCodes(const index::PackedCodes& codes,
                       const std::string& path) {
  return WriteSnapshot(codes, 0, {}, path);
}

Result<index::PackedCodes> LoadPackedCodes(const std::string& path) {
  Result<CodesSnapshot> snapshot = LoadCodesSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  if (!snapshot->HasTombstones()) return std::move(snapshot->codes);
  // A snapshot with deletions: compact so the caller sees exactly the
  // surviving database.
  const index::PackedCodes& all = snapshot->codes;
  const int words_per_code = all.words_per_code();
  std::vector<uint64_t> words;
  words.reserve(static_cast<size_t>(snapshot->LiveCount()) * words_per_code);
  int live = 0;
  for (int i = 0; i < all.size(); ++i) {
    if (snapshot->IsDead(i)) continue;
    const uint64_t* src = all.code(i);
    words.insert(words.end(), src, src + words_per_code);
    ++live;
  }
  return index::PackedCodes::FromRawWords(live, all.bits(), std::move(words));
}

Status SaveCodesSnapshot(const CodesSnapshot& snapshot,
                         const std::string& path) {
  return WriteSnapshot(snapshot.codes, snapshot.epoch,
                       snapshot.tombstone_words, path);
}

Result<CodesSnapshot> LoadCodesSnapshot(const std::string& path) {
  obs::StageTimer timer("stage.snapshot_load_ns");
  File file(std::fopen(path.c_str(), "rb"));
  if (file.fp == nullptr) return Status::NotFound("cannot open " + path);
  uint32_t version = 0;
  UHSCM_RETURN_NOT_OK(ReadHeader(file.fp, "UHSC", path, &version));
  if (version != kVersion && version != kCodesV2 && version != kCodesV3) {
    return Status::InvalidArgument(
        StrFormat("%s: unsupported version %u", path.c_str(), version));
  }
  CodesSnapshot snapshot;
  snapshot.version = version;
  if (version >= kCodesV2) {
    UHSCM_RETURN_NOT_OK(ReadPod(file.fp, &snapshot.epoch));
  }
  Result<index::PackedCodes> codes = ReadCodesBody(file.fp, version, path);
  if (!codes.ok()) return codes.status();
  snapshot.codes = std::move(codes).ValueOrDie();
  if (version >= kCodesV2) {
    int32_t tomb_words = 0;
    UHSCM_RETURN_NOT_OK(ReadPod(file.fp, &tomb_words));
    const int32_t expected =
        static_cast<int32_t>((snapshot.codes.size() + 63) / 64);
    if (tomb_words != expected) {
      return Status::InvalidArgument(
          StrFormat("%s: tombstone bitmap has %d words, corpus needs %d",
                    path.c_str(), tomb_words, expected));
    }
    snapshot.tombstone_words.resize(static_cast<size_t>(tomb_words));
    const size_t bytes = snapshot.tombstone_words.size() * sizeof(uint64_t);
    UHSCM_RETURN_NOT_OK(
        ReadBytes(file.fp, snapshot.tombstone_words.data(), bytes));
    uint64_t checksum = 0;
    UHSCM_RETURN_NOT_OK(ReadPod(file.fp, &checksum));
    if (checksum !=
        SectionChecksum(version, snapshot.tombstone_words.data(), bytes)) {
      return Status::InvalidArgument(
          path + ": tombstone checksum mismatch (corrupt)");
    }
    // A bit past the last row would count as a dead row in LiveCount.
    const int tail = snapshot.codes.size() % 64;
    if (tail != 0 && (snapshot.tombstone_words.back() >> tail) != 0) {
      return Status::InvalidArgument(
          path + ": tombstone bitmap marks rows past the corpus");
    }
  }
  return snapshot;
}

}  // namespace uhscm::io
