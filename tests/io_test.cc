#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/serialize.h"
#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/linear.h"

namespace uhscm::io {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : created_) {
      std::remove(path.c_str());
    }
  }

  std::string Path(const std::string& name) {
    const std::string path = TempPath(name);
    created_.push_back(path);
    return path;
  }

  std::vector<std::string> created_;
};

TEST_F(IoTest, MatrixRoundTrip) {
  Rng rng(1);
  const linalg::Matrix m = linalg::Matrix::RandomNormal(17, 23, &rng);
  const std::string path = Path("matrix.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  Result<linalg::Matrix> loaded = LoadMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows(), 17);
  ASSERT_EQ(loaded->cols(), 23);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(loaded->data()[i], m.data()[i]);
  }
}

TEST_F(IoTest, EmptyMatrixRoundTrip) {
  const linalg::Matrix m;
  const std::string path = Path("empty.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  Result<linalg::Matrix> loaded = LoadMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 0);
}

TEST_F(IoTest, LoadMissingFileIsNotFound) {
  Result<linalg::Matrix> r = LoadMatrix(TempPath("does-not-exist.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(IoTest, WrongMagicRejected) {
  Rng rng(2);
  const linalg::Matrix m = linalg::Matrix::RandomNormal(3, 3, &rng);
  const std::string path = Path("codes-as-matrix.bin");
  // Save packed codes, then try to read them as a matrix.
  index::PackedCodes codes = index::PackedCodes::FromSignMatrix(m);
  ASSERT_TRUE(SavePackedCodes(codes, path).ok());
  Result<linalg::Matrix> r = LoadMatrix(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, TruncatedFileRejected) {
  Rng rng(3);
  const linalg::Matrix m = linalg::Matrix::RandomNormal(20, 20, &rng);
  const std::string path = Path("truncated.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  // Truncate the file to half its size.
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 0, SEEK_END);
  const long full = std::ftell(fp);
  std::fclose(fp);
  ASSERT_EQ(truncate(path.c_str(), full / 2), 0);
  EXPECT_FALSE(LoadMatrix(path).ok());
}

TEST_F(IoTest, CorruptedPayloadFailsChecksum) {
  Rng rng(4);
  const linalg::Matrix m = linalg::Matrix::RandomNormal(8, 8, &rng);
  const std::string path = Path("corrupt.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  // Flip one byte in the middle of the payload.
  std::FILE* fp = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 40, SEEK_SET);
  int c = std::fgetc(fp);
  std::fseek(fp, 40, SEEK_SET);
  std::fputc(c ^ 0xFF, fp);
  std::fclose(fp);
  Result<linalg::Matrix> r = LoadMatrix(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

TEST_F(IoTest, ModelParametersRoundTrip) {
  Rng rng(5);
  nn::Sequential model;
  model.Append(std::make_unique<nn::Linear>(6, 10, &rng));
  model.Append(std::make_unique<nn::Relu>());
  model.Append(std::make_unique<nn::Linear>(10, 4, &rng));
  const std::string path = Path("model.bin");
  ASSERT_TRUE(SaveModelParameters(&model, path).ok());

  nn::Sequential other;
  other.Append(std::make_unique<nn::Linear>(6, 10, &rng));
  other.Append(std::make_unique<nn::Relu>());
  other.Append(std::make_unique<nn::Linear>(10, 4, &rng));
  ASSERT_TRUE(LoadModelParameters(&other, path).ok());

  const linalg::Matrix x = linalg::Matrix::RandomNormal(5, 6, &rng);
  const linalg::Matrix ya = model.Forward(x);
  const linalg::Matrix yb = other.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST_F(IoTest, ModelShapeMismatchRejected) {
  Rng rng(6);
  nn::Sequential model;
  model.Append(std::make_unique<nn::Linear>(6, 10, &rng));
  const std::string path = Path("model2.bin");
  ASSERT_TRUE(SaveModelParameters(&model, path).ok());

  nn::Sequential wrong_shape;
  wrong_shape.Append(std::make_unique<nn::Linear>(6, 11, &rng));
  EXPECT_FALSE(LoadModelParameters(&wrong_shape, path).ok());

  nn::Sequential wrong_count;
  wrong_count.Append(std::make_unique<nn::Linear>(6, 10, &rng));
  wrong_count.Append(std::make_unique<nn::Linear>(10, 2, &rng));
  EXPECT_FALSE(LoadModelParameters(&wrong_count, path).ok());
}

TEST_F(IoTest, HashingNetworkRoundTripEncodesIdentically) {
  Rng rng(7);
  core::HashingNetworkOptions options;
  options.hidden1 = 32;
  options.hidden2 = 24;
  options.bits = 16;
  core::HashingNetwork network(12, options, &rng);
  const std::string path = Path("hashnet.bin");
  ASSERT_TRUE(SaveHashingNetwork(network, path).ok());

  Result<std::unique_ptr<core::HashingNetwork>> loaded =
      LoadHashingNetwork(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->input_dim(), 12);
  EXPECT_EQ((*loaded)->bits(), 16);

  const linalg::Matrix x = linalg::Matrix::RandomNormal(9, 12, &rng);
  const linalg::Matrix a = network.EncodeBinary(x);
  const linalg::Matrix b = (*loaded)->EncodeBinary(x);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
}

class PackedCodesRoundTrip : public IoTest,
                             public ::testing::WithParamInterface<int> {};

TEST_P(PackedCodesRoundTrip, PreservesAllDistances) {
  const int bits = GetParam();
  Rng rng(8);
  linalg::Matrix codes(25, bits);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes.data()[i] = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
  }
  index::PackedCodes packed = index::PackedCodes::FromSignMatrix(codes);
  const std::string path = Path("codes.bin");
  ASSERT_TRUE(SavePackedCodes(packed, path).ok());
  Result<index::PackedCodes> loaded = LoadPackedCodes(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), packed.size());
  ASSERT_EQ(loaded->bits(), packed.bits());
  for (int i = 0; i < packed.size(); ++i) {
    for (int j = 0; j < packed.size(); ++j) {
      EXPECT_EQ(loaded->Distance(i, j), packed.Distance(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedCodesRoundTrip,
                         ::testing::Values(16, 64, 96, 128));

// ---------------------------------------------------------------------
// Serving snapshot ("UHSC" v3): epoch + tombstone section, with v1 and
// v2 read compatibility.

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::vector<unsigned char> bytes;
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (fp == nullptr) return bytes;
  int c;
  while ((c = std::fgetc(fp)) != EOF) {
    bytes.push_back(static_cast<unsigned char>(c));
  }
  std::fclose(fp);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes, size_t len) {
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, len, fp), len);
  std::fclose(fp);
}

index::PackedCodes RandomPacked(int n, int bits, Rng* rng) {
  linalg::Matrix codes(n, bits);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes.data()[i] = rng->Bernoulli(0.5) ? 1.0f : -1.0f;
  }
  return index::PackedCodes::FromSignMatrix(codes);
}

TEST_F(IoTest, CodesSnapshotRoundTrip) {
  Rng rng(9);
  CodesSnapshot snapshot;
  snapshot.codes = RandomPacked(70, 96, &rng);
  snapshot.epoch = 42;
  snapshot.tombstone_words.assign(static_cast<size_t>((70 + 63) / 64), 0);
  snapshot.tombstone_words[0] |= 1ULL << 3;
  snapshot.tombstone_words[1] |= 1ULL << (69 - 64);

  const std::string path = Path("snapshot.bin");
  ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
  Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 42u);
  EXPECT_EQ(loaded->codes.size(), 70);
  EXPECT_EQ(loaded->codes.bits(), 96);
  EXPECT_TRUE(loaded->HasTombstones());
  EXPECT_EQ(loaded->LiveCount(), 68);
  EXPECT_EQ(loaded->tombstone_words, snapshot.tombstone_words);
  EXPECT_EQ(loaded->codes.words(), snapshot.codes.words());

  // LoadPackedCodes on the same file compacts the tombstoned rows.
  Result<index::PackedCodes> compacted = LoadPackedCodes(path);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted->size(), 68);
  // Row 0 of the compacted database is row 0 of the snapshot (gid 3 and
  // 69 were dead), row 3 is gid 4.
  EXPECT_EQ(0, index::HammingDistance(compacted->code(3),
                                      snapshot.codes.code(4),
                                      snapshot.codes.words_per_code()));
}

// Hand-built legacy files: the writer below knows the v1/v2 layouts and
// checksums them with its own byte-wise FNV-1a, so the loader's legacy
// path is checked against an independent encoder.

/// The legacy checksum: byte-wise FNV-1a from the offset basis the
/// pre-v3 writer used (the published one without its last digit).
uint64_t ByteFnv1a(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

template <typename T>
void Put(std::vector<unsigned char>* out, const T& value) {
  const auto* p = reinterpret_cast<const unsigned char*>(&value);
  out->insert(out->end(), p, p + sizeof(T));
}

void PutSection(std::vector<unsigned char>* out,
                const std::vector<uint64_t>& words) {
  for (uint64_t w : words) Put(out, w);
  Put(out, ByteFnv1a(words.data(), words.size() * sizeof(uint64_t)));
}

/// A "UHSC" v1 file: header, size, bits, code words, checksum.
std::vector<unsigned char> LegacyV1File(const index::PackedCodes& codes) {
  std::vector<unsigned char> out = {'U', 'H', 'S', 'C'};
  Put(&out, uint32_t{1});
  Put(&out, int32_t{codes.size()});
  Put(&out, int32_t{codes.bits()});
  PutSection(&out, codes.words());
  return out;
}

/// A "UHSC" v2 file: v1's code section between an epoch and the
/// tombstone section, every checksum byte-wise FNV-1a.
std::vector<unsigned char> LegacyV2File(const CodesSnapshot& snapshot) {
  std::vector<unsigned char> out = {'U', 'H', 'S', 'C'};
  Put(&out, uint32_t{2});
  Put(&out, snapshot.epoch);
  Put(&out, int32_t{snapshot.codes.size()});
  Put(&out, int32_t{snapshot.codes.bits()});
  PutSection(&out, snapshot.codes.words());
  Put(&out, static_cast<int32_t>(snapshot.tombstone_words.size()));
  PutSection(&out, snapshot.tombstone_words);
  return out;
}

TEST_F(IoTest, LegacyV1LoadsAsSnapshotWithEpochZero) {
  Rng rng(10);
  index::PackedCodes packed = RandomPacked(30, 96, &rng);
  const std::string path = Path("legacy_codes.bin");
  const std::vector<unsigned char> file = LegacyV1File(packed);
  WriteFileBytes(path, file, file.size());
  Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, 1u);
  EXPECT_EQ(loaded->epoch, 0u);
  EXPECT_FALSE(loaded->HasTombstones());
  EXPECT_EQ(loaded->LiveCount(), 30);
  EXPECT_EQ(loaded->codes.bits(), 96);
  EXPECT_EQ(loaded->codes.words(), packed.words());
}

TEST_F(IoTest, LegacyV2LoadsBitIdentical) {
  Rng rng(16);
  CodesSnapshot snapshot;
  snapshot.codes = RandomPacked(70, 128, &rng);
  snapshot.epoch = 9;
  snapshot.tombstone_words = {1ULL << 4, 1ULL << 5};
  const std::string path = Path("legacy_v2.bin");
  const std::vector<unsigned char> file = LegacyV2File(snapshot);
  WriteFileBytes(path, file, file.size());
  Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, 2u);
  EXPECT_EQ(loaded->epoch, 9u);
  EXPECT_EQ(loaded->codes.size(), 70);
  EXPECT_EQ(loaded->codes.bits(), 128);
  EXPECT_EQ(loaded->codes.words(), snapshot.codes.words());
  EXPECT_EQ(loaded->tombstone_words, snapshot.tombstone_words);
  EXPECT_EQ(loaded->LiveCount(), 68);

  // One flipped code byte fails the byte-wise checksum.
  std::vector<unsigned char> corrupt = file;
  corrupt[30] ^= 0x10;
  WriteFileBytes(path, corrupt, corrupt.size());
  EXPECT_FALSE(LoadCodesSnapshot(path).ok());
}

TEST_F(IoTest, SnapshotsAreWrittenAsVersion3) {
  Rng rng(17);
  CodesSnapshot snapshot;
  snapshot.codes = RandomPacked(40, 64, &rng);
  const std::string snap_path = Path("v3_snapshot.bin");
  const std::string codes_path = Path("v3_codes.bin");
  ASSERT_TRUE(SaveCodesSnapshot(snapshot, snap_path).ok());
  ASSERT_TRUE(SavePackedCodes(snapshot.codes, codes_path).ok());
  for (const std::string& path : {snap_path, codes_path}) {
    const std::vector<unsigned char> bytes = ReadFileBytes(path);
    ASSERT_GE(bytes.size(), 8u);
    EXPECT_EQ(bytes[4], 3) << path;
    Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->version, 3u);
    EXPECT_EQ(loaded->codes.words(), snapshot.codes.words());
    // Relabelled as v2, the sections fail the byte-wise checksum.
    std::vector<unsigned char> relabelled = bytes;
    relabelled[4] = 2;
    WriteFileBytes(path, relabelled, relabelled.size());
    Result<CodesSnapshot> as_v2 = LoadCodesSnapshot(path);
    ASSERT_FALSE(as_v2.ok()) << path;
    EXPECT_EQ(as_v2.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(IoTest, SnapshotRejectsBitsPastTheCodeWidth) {
  Rng rng(18);
  const index::PackedCodes clean = RandomPacked(5, 96, &rng);
  std::vector<uint64_t> words = clean.words();
  words[2 * 2 + 1] |= 1ULL << 40;  // code 2, bit 104 of a 96-bit code
  CodesSnapshot snapshot;
  snapshot.codes = index::PackedCodes::FromRawWords(5, 96, std::move(words));
  const std::string path = Path("padding_bit.bin");
  ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
  Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(LoadPackedCodes(path).ok());

  // The same padding bit in a legacy v1 file.
  const std::vector<unsigned char> v1 = LegacyV1File(snapshot.codes);
  WriteFileBytes(path, v1, v1.size());
  EXPECT_FALSE(LoadCodesSnapshot(path).ok());
}

TEST_F(IoTest, SnapshotRejectsTombstonesPastTheLastRow) {
  Rng rng(20);
  CodesSnapshot snapshot;
  snapshot.codes = RandomPacked(10, 64, &rng);
  snapshot.tombstone_words = {1ULL << 10};  // row 10 of a 10-row corpus
  const std::string path = Path("padding_tombstone.bin");
  ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
  Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  snapshot.tombstone_words = {1ULL << 9};  // the last row itself is fine
  ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
  loaded = LoadCodesSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->LiveCount(), 9);
}

/// WordFnv1a as its header defines it, written out independently.
uint64_t ReferenceWordFnv1a(const std::vector<unsigned char>& bytes) {
  constexpr uint64_t kBasis = 14695981039346656037ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t lanes[4] = {kBasis, kBasis ^ 1, kBasis ^ 2, kBasis ^ 3};
  const size_t whole = bytes.size() / 32 * 32;
  for (size_t i = 0; i < whole; i += 8) {
    uint64_t word = 0;
    for (int b = 7; b >= 0; --b) word = (word << 8) | bytes[i + b];
    uint64_t& lane = lanes[(i / 8) % 4];
    lane = (lane ^ word) * kPrime;
  }
  uint64_t h = kBasis;
  for (uint64_t lane : lanes) h = (h ^ lane) * kPrime;
  for (size_t i = whole; i < bytes.size(); ++i) h = (h ^ bytes[i]) * kPrime;
  return h;
}

TEST(WordFnv1a, EverySingleByteChangeChangesTheSum) {
  Rng rng(19);
  for (size_t len = 0; len <= 100; ++len) {
    std::vector<unsigned char> bytes(len);
    for (unsigned char& b : bytes) {
      b = static_cast<unsigned char>(rng.UniformInt(256));
    }
    const uint64_t sum = WordFnv1a(bytes.data(), bytes.size());
    ASSERT_EQ(sum, ReferenceWordFnv1a(bytes)) << "length " << len;
    for (size_t i = 0; i < len; ++i) {
      const unsigned char original = bytes[i];
      for (int delta = 1; delta < 256; ++delta) {
        bytes[i] = static_cast<unsigned char>(original ^ delta);
        ASSERT_NE(WordFnv1a(bytes.data(), bytes.size()), sum)
            << "length " << len << ", byte " << i << " xor " << delta;
      }
      bytes[i] = original;
    }
  }
  // Empty sections differ too, so an empty v3 snapshot relabelled as v2
  // fails to load.
  EXPECT_NE(WordFnv1a(nullptr, 0), ByteFnv1a(nullptr, 0));
}

TEST_F(IoTest, SnapshotCorruptHeaderReturnsStatusError) {
  const std::string path = Path("corrupt_snapshot.bin");
  // Wrong magic.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("XXXX garbage that is long enough to read a header from",
               f);
    std::fclose(f);
    Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // Right magic, unsupported version.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint32_t bad_version = 99;
    std::fwrite("UHSC", 1, 4, f);
    std::fwrite(&bad_version, sizeof(bad_version), 1, f);
    std::fclose(f);
    Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  // Valid v3 prefix, truncated before the tombstone section.
  {
    Rng rng(11);
    CodesSnapshot snapshot;
    snapshot.codes = RandomPacked(20, 64, &rng);
    snapshot.epoch = 7;
    ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // 4 magic + 4 version + 8 epoch + 8 dims + half the code words.
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long full = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), full - 20), 0);
    Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
    ASSERT_FALSE(loaded.ok());
  }
  // Flipped tombstone bit fails the section checksum.
  {
    Rng rng(12);
    CodesSnapshot snapshot;
    snapshot.codes = RandomPacked(20, 64, &rng);
    snapshot.epoch = 7;
    snapshot.tombstone_words.assign(1, 1ULL << 5);
    ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // The tombstone bitmap sits 12 bytes before EOF (8 checksum + ...):
    // layout ends [bitmap words][u64 checksum].
    ASSERT_EQ(std::fseek(f, -16, SEEK_END), 0);
    uint64_t word = 0;
    ASSERT_EQ(std::fread(&word, sizeof(word), 1, f), 1u);
    word ^= 1ULL << 9;
    ASSERT_EQ(std::fseek(f, -16, SEEK_END), 0);
    ASSERT_EQ(std::fwrite(&word, sizeof(word), 1, f), 1u);
    std::fclose(f);
    Result<CodesSnapshot> loaded = LoadCodesSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(IoTest, SnapshotRejectsWrongSizeTombstoneBitmap) {
  Rng rng(13);
  CodesSnapshot snapshot;
  snapshot.codes = RandomPacked(100, 64, &rng);
  snapshot.tombstone_words.assign(1, 0);  // needs 2 words for 100 rows
  const std::string path = Path("bad_bitmap.bin");
  Status st = SaveCodesSnapshot(snapshot, path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Corruption sweep: every single-byte corruption and every truncation of
// a model file and of a v3 snapshot loads to OK or to a non-OK Status,
// never a throw or an abort. Under ASan+UBSan the sweep also checks that
// no corrupt header field reaches an oversized allocation or undefined
// behaviour.

/// A checksummed section of a file: its payload bytes plus the 8-byte
/// checksum that follows them, as [begin, end).
struct Section {
  size_t begin;
  size_t end;
};

/// Rewrites `path` with each corruption of `original` in turn and calls
/// `load` on it. Every load must return without throwing; a corruption
/// inside a checksummed section, and every truncation, must be non-OK.
template <typename LoadFn>
void SweepCorruptions(const std::string& path,
                      const std::vector<unsigned char>& original,
                      const std::vector<Section>& checksummed, LoadFn load) {
  ASSERT_TRUE(load().ok()) << "the uncorrupted file must load";
  for (size_t i = 0; i < original.size(); ++i) {
    bool in_checksum = false;
    for (const Section& section : checksummed) {
      in_checksum = in_checksum || (i >= section.begin && i < section.end);
    }
    const unsigned char flipped = original[i] ^ 0xFF;
    for (const unsigned char value : {flipped, uint8_t{0x7F}}) {
      if (value == original[i]) continue;
      std::vector<unsigned char> bytes = original;
      bytes[i] = value;
      WriteFileBytes(path, bytes, bytes.size());
      Status status;
      EXPECT_NO_THROW(status = load()) << "byte " << i;
      if (in_checksum) {
        EXPECT_FALSE(status.ok())
            << "byte " << i << " set to " << int{value} << " loaded OK";
      }
    }
  }
  for (size_t len = 0; len < original.size(); ++len) {
    WriteFileBytes(path, original, len);
    Status status;
    EXPECT_NO_THROW(status = load()) << "truncated to " << len;
    EXPECT_FALSE(status.ok()) << "truncated to " << len << " loaded OK";
  }
}

TEST_F(IoTest, CorruptionSweepHashingNetwork) {
  Rng rng(14);
  core::HashingNetworkOptions options;
  options.hidden1 = 8;
  options.hidden2 = 6;
  options.bits = 16;
  core::HashingNetwork network(12, options, &rng);
  const std::string path = Path("sweep_net.bin");
  ASSERT_TRUE(SaveHashingNetwork(network, path).ok());
  const std::vector<unsigned char> original = ReadFileBytes(path);

  // Layout: magic + version (8), input_dim/hidden1/hidden2/bits (16),
  // then per parameter: rows + cols (8), floats, checksum (8). Byte 11 is
  // the high byte of input_dim and byte 27 the high byte of the first
  // matrix's row count.
  std::vector<Section> checksummed;
  size_t offset = 24;
  for (const nn::Parameter& p : network.model()->Parameters()) {
    const size_t payload = p.value->size() * sizeof(float);
    checksummed.push_back({offset + 8, offset + 8 + payload + 8});
    offset += 8 + payload + 8;
  }
  ASSERT_EQ(offset, original.size());

  SweepCorruptions(path, original, checksummed,
                   [&] { return LoadHashingNetwork(path).status(); });
}

TEST_F(IoTest, CorruptionSweepSnapshotWithTombstones) {
  Rng rng(15);
  CodesSnapshot snapshot;
  snapshot.codes = RandomPacked(70, 64, &rng);
  snapshot.epoch = 5;
  snapshot.tombstone_words.assign(2, 0);
  snapshot.tombstone_words[0] |= 1ULL << 7;
  snapshot.tombstone_words[1] |= 1ULL << 2;
  const std::string path = Path("sweep_snapshot.bin");
  ASSERT_TRUE(SaveCodesSnapshot(snapshot, path).ok());
  const std::vector<unsigned char> original = ReadFileBytes(path);
  ASSERT_EQ(original.at(4), 3) << "the sweep runs on a v3 snapshot";

  // Layout: magic + version (8), epoch (8), size + bits (8), code words,
  // checksum (8), tombstone word count (4), bitmap words, checksum (8).
  const size_t code_bytes = snapshot.codes.words().size() * sizeof(uint64_t);
  const size_t codes_begin = 24;
  const size_t tomb_begin = codes_begin + code_bytes + 8 + 4;
  const std::vector<Section> checksummed = {
      {codes_begin, codes_begin + code_bytes + 8},
      {tomb_begin, tomb_begin + 2 * sizeof(uint64_t) + 8}};
  ASSERT_EQ(checksummed.back().end, original.size());

  SweepCorruptions(path, original, checksummed,
                   [&] { return LoadCodesSnapshot(path).status(); });
}

}  // namespace
}  // namespace uhscm::io
