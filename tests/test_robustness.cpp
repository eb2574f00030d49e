// Robustness layer: CRC32, atomic writes, checkpoint format + resume, a
// mutation fuzz over every framed-file reader, solver graceful degradation,
// fault injection, and the model/ratings I/O hardening. The crash-and-resume
// path is also exercised end-to-end at the CLI level (tools/CMakeLists.txt,
// cli_crash_resume_*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/faultinject.hpp"
#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/als.hpp"
#include "core/solver.hpp"
#include "data/atomic_file.hpp"
#include "data/checkpoint.hpp"
#include "data/generator.hpp"
#include "data/io.hpp"
#include "data/model_io.hpp"
#include "data/shards.hpp"
#include "framed_testing.hpp"
#include "tune/tune.hpp"

namespace cumf {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

bool all_finite(const Matrix& m) {
  for (const real_t v : m.data()) {
    if (!std::isfinite(v)) {
      return false;
    }
  }
  return true;
}

// ---------- CRC32 ----------

TEST(Crc32, MatchesKnownAnswer) {
  // The standard CRC-32 check value (zlib, PNG, gzip all agree on it).
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

TEST(Crc32, RunningUpdateMatchesOneShot) {
  const std::string data = "123456789";
  const std::uint32_t part = crc32(0, data.data(), 4);
  EXPECT_EQ(crc32(part, data.data() + 4, 5), crc32(data));
}

/// The byte-at-a-time reference loop (zlib's polynomial, bit by bit).
std::uint32_t crc32_bytewise(std::uint32_t crc, const unsigned char* p,
                             std::size_t n) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32, CheckValueThroughEveryAlignmentAndSplit) {
  // "123456789" is one 8-byte slice plus a 1-byte tail; placed at every
  // alignment and split at every point, it must still give the check value.
  const std::string check = "123456789";
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::vector<unsigned char> buf(offset + check.size() + 8, 0xA5);
    std::memcpy(buf.data() + offset, check.data(), check.size());
    const unsigned char* p = buf.data() + offset;
    EXPECT_EQ(crc32(0, p, check.size()), 0xCBF43926u) << "offset " << offset;
    for (std::size_t cut = 0; cut <= check.size(); ++cut) {
      const std::uint32_t head = crc32(0, p, cut);
      EXPECT_EQ(crc32(head, p + cut, check.size() - cut), 0xCBF43926u)
          << "offset " << offset << " cut " << cut;
    }
  }
}

TEST(Crc32, SlicingMatchesBytewiseLoop) {
  // Random lengths 0..4096 from misaligned start pointers, one shot and
  // fed in random chained pieces, against the bit-by-bit reference.
  Rng rng(2024);
  std::vector<unsigned char> buf(4096 + 16);
  for (auto& b : buf) {
    b = static_cast<unsigned char>(rng.uniform() * 256.0);
  }
  for (int trial = 0; trial < 300; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform() * 4097.0);
    const auto offset = static_cast<std::size_t>(rng.uniform() * 16.0);
    const unsigned char* p = buf.data() + offset;
    const std::uint32_t want = crc32_bytewise(0, p, len);
    ASSERT_EQ(crc32(0, p, len), want) << "len " << len << " offset " << offset;
    std::uint32_t chained = 0;
    std::size_t done = 0;
    while (done < len) {
      const auto piece = std::min<std::size_t>(
          len - done, static_cast<std::size_t>(rng.uniform() * 40.0));
      chained = crc32(chained, p + done, piece);
      done += piece;
    }
    ASSERT_EQ(chained, want) << "chained, len " << len;
    // A running CRC seeded from a previous value, too.
    ASSERT_EQ(crc32(0x12345678u, p, len), crc32_bytewise(0x12345678u, p, len));
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  const std::uint32_t clean = crc32(data);
  data[7] ^= 0x01;
  EXPECT_NE(crc32(data), clean);
}

// ---------- Rng state round trip ----------

TEST(RngState, ResumedStreamIsBitIdentical) {
  Rng rng(42);
  for (int i = 0; i < 7; ++i) {  // odd count: leaves a cached Box-Muller half
    rng.normal();
  }
  const Rng::State snap = rng.state();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(rng.normal());
  }
  Rng resumed(1);  // different seed: set_state must fully overwrite
  resumed.set_state(snap);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(resumed.normal(), expected[static_cast<std::size_t>(i)]);
  }
}

// ---------- atomic file writes ----------

TEST(AtomicFile, WritesAndReplacesWithoutLeavingTemp) {
  const std::string path = temp_path("cumf_atomic.txt");
  atomic_write_file(path, "first");
  atomic_write_file(path, "second");
  std::ifstream is(path);
  std::string contents;
  std::getline(is, contents);
  EXPECT_EQ(contents, "second");
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(path)));
  std::filesystem::remove(path);
}

TEST(AtomicFile, ShortWriteFaultProducesDetectablyTruncatedFile) {
  const std::string path = temp_path("cumf_atomic_short.bin");
  TrainCheckpoint ckpt;
  ckpt.x = Matrix(4, 3, 1.5f);
  ckpt.theta = Matrix(5, 3, -0.5f);
  {
    analysis::FaultPlan plan;
    plan.short_write_bytes = 24;  // past the magic, mid-payload
    analysis::ScopedFaultPlan guard(plan);
    write_checkpoint_file(path, ckpt);
  }
  try {
    read_checkpoint_file(path);
    FAIL() << "torn checkpoint must be rejected";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.reason(), FrameReject::truncated);
  }
  std::filesystem::remove(path);
}

// ---------- checkpoint format ----------

TrainCheckpoint sample_checkpoint() {
  TrainCheckpoint ckpt;
  ckpt.epoch = 7;
  Rng rng(99);
  rng.normal();
  ckpt.rng = rng.state();
  ckpt.train_seconds = 12.75;
  ckpt.solve_stats.systems = 1234;
  ckpt.solve_stats.cg_iterations = 5678;
  ckpt.solve_stats.failures = 2;
  ckpt.solve_stats.fp16_converted = 4096;
  ckpt.solve_stats.cg_fallbacks = 3;
  ckpt.solve_stats.fp16_fallbacks = 5;
  ckpt.solve_stats.cg_hist[4] = 100;
  ckpt.solve_stats.cg_hist[SolveStats::kCgHistMax] = 1;
  ckpt.curve = {{1.0, 1.11, 1}, {2.0, 0.95, 2}};
  ckpt.x = Matrix(6, 4);
  ckpt.theta = Matrix(5, 4);
  Rng fill(7);
  for (real_t& v : ckpt.x.data()) {
    v = static_cast<real_t>(fill.normal());
  }
  for (real_t& v : ckpt.theta.data()) {
    v = static_cast<real_t>(fill.normal());
  }
  ckpt.seed = 31;
  ckpt.f = 4;
  ckpt.solver_kind = 3;
  ckpt.cg_fs = 6;
  ckpt.lambda = 0.05f;
  ckpt.rows = 6;
  ckpt.cols = 5;
  ckpt.train_nnz = 17;
  return ckpt;
}

FrameReject reject_reason(const std::string& bytes) {
  try {
    parse_checkpoint(bytes);
  } catch (const FrameError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "expected the checkpoint to be rejected";
  return FrameReject::io;
}

TEST(Checkpoint, RoundTripIsBitExact) {
  const TrainCheckpoint before = sample_checkpoint();
  const TrainCheckpoint after = parse_checkpoint(serialize_checkpoint(before));
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.rng, before.rng);
  EXPECT_EQ(after.train_seconds, before.train_seconds);
  EXPECT_EQ(after.solve_stats.systems, before.solve_stats.systems);
  EXPECT_EQ(after.solve_stats.cg_iterations,
            before.solve_stats.cg_iterations);
  EXPECT_EQ(after.solve_stats.failures, before.solve_stats.failures);
  EXPECT_EQ(after.solve_stats.fp16_converted,
            before.solve_stats.fp16_converted);
  EXPECT_EQ(after.solve_stats.cg_fallbacks, before.solve_stats.cg_fallbacks);
  EXPECT_EQ(after.solve_stats.fp16_fallbacks,
            before.solve_stats.fp16_fallbacks);
  EXPECT_EQ(after.solve_stats.cg_hist, before.solve_stats.cg_hist);
  ASSERT_EQ(after.curve.size(), before.curve.size());
  for (std::size_t i = 0; i < after.curve.size(); ++i) {
    EXPECT_EQ(after.curve[i].seconds, before.curve[i].seconds);
    EXPECT_EQ(after.curve[i].rmse, before.curve[i].rmse);
    EXPECT_EQ(after.curve[i].epoch, before.curve[i].epoch);
  }
  EXPECT_TRUE(after.x == before.x);
  EXPECT_TRUE(after.theta == before.theta);
  EXPECT_EQ(after.seed, before.seed);
  EXPECT_EQ(after.f, before.f);
  EXPECT_EQ(after.solver_kind, before.solver_kind);
  EXPECT_EQ(after.cg_fs, before.cg_fs);
  EXPECT_EQ(after.lambda, before.lambda);
  EXPECT_EQ(after.rows, before.rows);
  EXPECT_EQ(after.cols, before.cols);
  EXPECT_EQ(after.train_nnz, before.train_nnz);
}

TEST(Checkpoint, RejectsBadMagic) {
  std::string bytes = serialize_checkpoint(sample_checkpoint());
  bytes[0] = 'X';
  EXPECT_EQ(reject_reason(bytes), FrameReject::bad_magic);
  EXPECT_EQ(reject_reason("not a checkpoint at all"), FrameReject::bad_magic);
}

TEST(Checkpoint, RejectsVersionSkew) {
  std::string bytes = serialize_checkpoint(sample_checkpoint());
  bytes[8] = static_cast<char>(bytes[8] + 1);
  EXPECT_EQ(reject_reason(bytes), FrameReject::version_skew);
}

TEST(Checkpoint, RejectsTruncation) {
  const std::string bytes = serialize_checkpoint(sample_checkpoint());
  EXPECT_EQ(reject_reason(bytes.substr(0, bytes.size() / 2)),
            FrameReject::truncated);
  EXPECT_EQ(reject_reason(bytes.substr(0, 10)), FrameReject::truncated);
  EXPECT_EQ(reject_reason(with_hostile_length(bytes)), FrameReject::truncated);
  // The opposite of a torn write: a valid frame with bytes appended.
  EXPECT_EQ(reject_reason(bytes + "junk"), FrameReject::malformed);
}

TEST(Checkpoint, RejectsCorruptedPayload) {
  std::string bytes = serialize_checkpoint(sample_checkpoint());
  bytes[bytes.size() / 2] ^= 0x40;  // deep inside the payload
  EXPECT_EQ(reject_reason(bytes), FrameReject::bad_crc);
}

TEST(Checkpoint, FileRoundTripAndIoRejection) {
  const std::string path = temp_path("cumf_ckpt_roundtrip.bin");
  write_checkpoint_file(path, sample_checkpoint());
  const TrainCheckpoint back = read_checkpoint_file(path);
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(path)));
  std::filesystem::remove(path);
  try {
    read_checkpoint_file(path);
    FAIL() << "missing file must be rejected";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.reason(), FrameReject::io);
  }
}

TEST(Checkpoint, LatestAndPrune) {
  const std::string dir = temp_path("cumf_ckpt_dir");
  std::filesystem::create_directories(dir);
  TrainCheckpoint ckpt = sample_checkpoint();
  for (const int epoch : {2, 4, 1, 3}) {
    ckpt.epoch = static_cast<std::uint32_t>(epoch);
    write_checkpoint_file(checkpoint_path(dir, epoch), ckpt);
  }
  const auto latest = latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, checkpoint_path(dir, 4));
  prune_checkpoints(dir, 2);
  EXPECT_FALSE(std::filesystem::exists(checkpoint_path(dir, 1)));
  EXPECT_FALSE(std::filesystem::exists(checkpoint_path(dir, 2)));
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir, 3)));
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir, 4)));
  std::filesystem::remove_all(dir);
  EXPECT_FALSE(latest_checkpoint(dir).has_value());
}

TEST(Checkpoint, PruneCollectsTmpOrphans) {
  // An atomic write that crashes between create and rename strands a
  // "ckpt-*.bin.tmp.<pid>" file. It is never a resume target, and pruning
  // must collect it regardless of the keep window.
  const std::string dir = temp_path("cumf_ckpt_orphans");
  std::filesystem::create_directories(dir);
  TrainCheckpoint ckpt = sample_checkpoint();
  for (const int epoch : {1, 2}) {
    ckpt.epoch = static_cast<std::uint32_t>(epoch);
    write_checkpoint_file(checkpoint_path(dir, epoch), ckpt);
  }
  const std::string orphan = atomic_temp_path(checkpoint_path(dir, 3));
  std::ofstream(orphan, std::ios::binary) << "half-written";
  ASSERT_TRUE(std::filesystem::exists(orphan));

  prune_checkpoints(dir, 2);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir, 2)));
  // The orphan must not count against the keep window, and a resume still
  // lands on the newest complete checkpoint.
  const auto latest = latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, checkpoint_path(dir, 2));
  std::filesystem::remove_all(dir);
}

// ---------- framed-file fuzz ----------

/// One framed reader under fuzz: a frame it accepts and how to feed it
/// bytes. File-based readers write the bytes where they read from.
struct FramedReader {
  std::string name;
  std::string valid;
  std::function<void(const std::string&)> read;
};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

/// Rewrites an existing file in place, then cuts it to size: truncating to
/// zero on open costs a block free and reallocation per call on some
/// filesystems, which the fuzz loop below would pay thousands of times.
void overwrite(const std::string& path, const std::string& bytes) {
  {
    std::fstream os(path, std::ios::binary | std::ios::in | std::ios::out);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::filesystem::resize_file(path, bytes.size());
}

/// Makes the header length and the CRC describe whatever lies between
/// them, so a mutation reaches the payload parser instead of stopping at
/// the frame checks.
std::string repaired(std::string bytes) {
  if (bytes.size() < 24) {
    return bytes;
  }
  const std::uint64_t length = bytes.size() - 24;
  std::memcpy(bytes.data() + 12, &length, sizeof(length));
  const std::uint32_t crc = crc32(0, bytes.data() + 20, length);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  return bytes;
}

/// Feeds one input to a reader and reports whether it was rejected. A
/// rejection must be a FrameError with a named reason; any other exception
/// escaping the reader is a failure.
bool rejects(const FramedReader& reader, const std::string& bytes,
             const char* mutation, std::size_t at) {
  try {
    reader.read(bytes);
    return false;
  } catch (const FrameError& e) {
    EXPECT_STRNE(to_string(e.reason()), "unknown")
        << reader.name << ", " << mutation << " at " << at;
  } catch (const std::exception& e) {
    ADD_FAILURE() << reader.name << ", " << mutation << " at " << at
                  << ": escaped as a non-FrameError: " << e.what();
  } catch (...) {
    ADD_FAILURE() << reader.name << ", " << mutation << " at " << at
                  << ": escaped as a non-exception";
  }
  return true;
}

TEST(FramedFuzz, EveryReaderRejectsOnlyWithFrameError) {
  const std::string dir = temp_path("cumf_framed_fuzz");
  std::filesystem::remove_all(dir);
  RatingsCoo ratings(12, 9);
  Rng fill(5);
  for (index_t u = 0; u < 12; ++u) {
    for (index_t v = u % 3; v < 9; v += 2) {
      ratings.add(u, v, static_cast<real_t>(fill.uniform(1.0, 5.0)));
    }
  }
  const ShardMeta meta = write_shards(dir, ratings, {2, 0.2, 3});
  const auto file_reader = [](std::string name, const std::string& path,
                              std::function<void()> read) {
    return FramedReader{std::move(name), slurp(path),
                        [path, read](const std::string& bytes) {
                          overwrite(path, bytes);
                          read();
                        }};
  };
  tune::TunedConfig config;
  config.fingerprint = {"fuzz", 12, 9, 54, 8, 0.05f};
  config.verdicts.push_back({"solve", prof::Bound::dram, 0.5, 0.8, 0.2, 1.0});
  const std::vector<FramedReader> readers = {
      {"parse_checkpoint", serialize_checkpoint(sample_checkpoint()),
       [](const std::string& bytes) { (void)parse_checkpoint(bytes); }},
      {"parse_tuned_config", tune::serialize_tuned_config(config),
       [](const std::string& bytes) { (void)tune::parse_tuned_config(bytes); }},
      file_reader("load_tile", tile_path(dir, TileView::by_row, 0),
                  [&] {
                    (void)load_tile(dir, TileView::by_row, 0,
                                    meta.row_tiles[0]);
                  }),
      file_reader("read_shard_meta", dir + "/" + std::string(kShardMetaFile),
                  [&] { (void)read_shard_meta(dir); }),
      file_reader("read_shard_test", dir + "/" + std::string(kShardTestFile),
                  [&] { (void)read_shard_test(dir); }),
  };

  Rng rng(2024);
  for (const FramedReader& r : readers) {
    const std::string& v = r.valid;
    ASSERT_FALSE(rejects(r, v, "valid frame", 0)) << r.name;
    for (std::size_t n = 0; n < v.size(); ++n) {
      EXPECT_TRUE(rejects(r, v.substr(0, n), "truncation", n));
    }
    // A flipped byte must fail a frame check; with the frame repaired it
    // reaches the payload parser, which may accept it.
    for (int i = 0; i < 200; ++i) {
      std::string bytes = v;
      const std::size_t at = rng.uniform_index(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.uniform_index(255)));
      EXPECT_TRUE(rejects(r, bytes, "byte flip", at));
      rejects(r, repaired(bytes), "repaired byte flip", at);
    }
    // Hostile u64/u32 values over every payload offset cover every count,
    // dimension and length field; hostile header lengths must be rejected.
    for (const std::uint64_t hostile :
         {~std::uint64_t{0}, ~std::uint64_t{0} - 21, std::uint64_t{1} << 63,
          std::uint64_t{0xffffffff}}) {
      for (std::size_t at = 20; at + 8 <= v.size() - 4; ++at) {
        std::string bytes = v;
        std::memcpy(bytes.data() + at, &hostile, sizeof(hostile));
        rejects(r, repaired(bytes), "hostile payload value", at);
      }
      std::string bytes = v;
      std::memcpy(bytes.data() + 12, &hostile, sizeof(hostile));
      EXPECT_TRUE(rejects(r, bytes, "hostile header length", 12));
    }
    // Splices of two valid frames: a prefix of this reader's frame and the
    // rest of another's, raw and repaired. A raw splice cut past the end of
    // the shorter frame is this frame truncated or with bytes appended, so
    // it must be rejected unless it is this frame unchanged.
    for (const FramedReader& other : readers) {
      for (const std::size_t at : {8, 12, 20, 28, 64, 200}) {
        const std::string bytes =
            v.substr(0, std::min(at, v.size())) +
            other.valid.substr(std::min(at, other.valid.size()));
        const bool rejected = rejects(r, bytes, "splice", at);
        if (at >= std::min(v.size(), other.valid.size()) && bytes != v) {
          EXPECT_TRUE(rejected) << r.name << " + " << other.name << " at "
                                << at;
        }
        rejects(r, repaired(bytes), "repaired splice", at);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// ---------- model / ratings I/O hardening ----------

TEST(ModelIo, WriteMatrixRestoresStreamPrecision) {
  std::ostringstream probe;
  probe << 0.123456789;
  const std::string default_format = probe.str();

  std::ostringstream os;
  Matrix m(1, 1);
  m(0, 0) = 0.1f;
  write_matrix(os, m);
  os.str("");
  os << 0.123456789;
  // Regression: write_matrix used to leave the caller's stream at
  // max_digits10 permanently.
  EXPECT_EQ(os.str(), default_format);
}

TEST(ModelIo, FileRoundTripIsBitExact) {
  FactorModel model;
  model.x = Matrix(9, 5);
  model.theta = Matrix(7, 5);
  Rng rng(11);
  for (real_t& v : model.x.data()) {
    v = static_cast<real_t>(rng.normal(0.0, 2.0));
  }
  for (real_t& v : model.theta.data()) {
    v = static_cast<real_t>(rng.normal(0.0, 2.0));
  }
  const std::string path = temp_path("cumf_model_roundtrip.txt");
  write_model_file(path, model);
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(path)));
  const FactorModel back = read_model_file(path);
  // max_digits10 formatting makes the text round trip lossless.
  EXPECT_TRUE(back.x == model.x);
  EXPECT_TRUE(back.theta == model.theta);
  std::filesystem::remove(path);
}

TEST(RatingsIo, RejectsNegativeHeaderNnz) {
  std::istringstream is("2 2 -1\n");
  EXPECT_THROW(read_ratings(is), CheckError);
}

TEST(RatingsIo, TruncatedStreamNamesThePromise) {
  std::istringstream is("2 2 5\n0 0 3.0\n1 1 4.0\n");
  try {
    read_ratings(is);
    FAIL() << "truncated ratings must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("promises 5"), std::string::npos);
  }
}

TEST(RatingsIo, FileWriteIsAtomic) {
  RatingsCoo coo(2, 2);
  coo.add(0, 0, 1.0f);
  coo.add(1, 1, 2.0f);
  const std::string path = temp_path("cumf_ratings_atomic.txt");
  write_ratings_file(path, coo);
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(path)));
  const RatingsCoo back = read_ratings_file(path);
  EXPECT_EQ(back.nnz(), 2u);
  std::filesystem::remove(path);
}

// ---------- solver graceful degradation ----------

TEST(SolverDegradation, CgBreakdownFallsBackToExactLu) {
  SolverOptions opts;
  opts.kind = SolverKind::CgFp32;
  SystemSolver solver(2, opts);
  // Indefinite A = diag(1, -1) with b = (1, 1) and a zero warm start makes
  // the first CG direction p = r = (1, 1), so pᵀAp = 0: breakdown on step 1.
  const std::vector<real_t> a = {1.0f, 0.0f, 0.0f, -1.0f};
  const std::vector<real_t> b = {1.0f, 1.0f};
  std::vector<real_t> x = {0.0f, 0.0f};
  ASSERT_TRUE(solver.solve(a, b, x));
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], -1.0f);
  EXPECT_EQ(solver.stats().cg_fallbacks, 1u);
  EXPECT_EQ(solver.stats().failures, 0u);
}

TEST(SolverDegradation, PcgDegradesOnNonPositiveDiagonal) {
  // pcg_solve itself throws on a non-positive diagonal (its documented
  // contract); the SystemSolver pre-screens and reroutes to LU instead.
  SolverOptions opts;
  opts.kind = SolverKind::PcgFp32;
  SystemSolver solver(2, opts);
  const std::vector<real_t> a = {1.0f, 0.0f, 0.0f, -1.0f};
  const std::vector<real_t> b = {2.0f, 3.0f};
  std::vector<real_t> x = {0.0f, 0.0f};
  ASSERT_TRUE(solver.solve(a, b, x));
  EXPECT_FLOAT_EQ(x[0], 2.0f);
  EXPECT_FLOAT_EQ(x[1], -3.0f);
  EXPECT_EQ(solver.stats().cg_fallbacks, 1u);
}

TEST(SolverDegradation, Fp16OverflowRetriesInFp32) {
  SolverOptions opts;
  opts.kind = SolverKind::CgFp16;
  opts.cg_fs = 8;
  SystemSolver solver(2, opts);
  // 70000 > half::max() = 65504: the FP16 pack overflows to inf and the
  // solver must redo the system with A kept in FP32.
  const std::vector<real_t> a = {70000.0f, 0.0f, 0.0f, 70000.0f};
  const std::vector<real_t> b = {70000.0f, 140000.0f};
  std::vector<real_t> x = {0.0f, 0.0f};
  ASSERT_TRUE(solver.solve(a, b, x));
  EXPECT_NEAR(x[0], 1.0f, 1e-4f);
  EXPECT_NEAR(x[1], 2.0f, 1e-4f);
  EXPECT_EQ(solver.stats().fp16_fallbacks, 1u);
  EXPECT_EQ(solver.stats().cg_fallbacks, 0u);
  EXPECT_EQ(solver.stats().failures, 0u);
}

/// Solves one f=10 CG-FP16 system that is 4·I plus `edits`, on `path`.
/// f=10 puts flat indices 96..99 in the 8-wide pack's scalar tail, so the
/// edits below hit both the vector body and the tail.
SolveStats fp16_pack_case(
    const std::vector<std::pair<std::size_t, real_t>>& edits,
    simd::KernelPath path) {
  constexpr std::size_t f = 10;
  SolverOptions opts;
  opts.kind = SolverKind::CgFp16;
  opts.path = path;
  SystemSolver solver(f, opts);
  std::vector<real_t> a(f * f, 0.0f);
  for (std::size_t d = 0; d < f; ++d) {
    a[d * f + d] = 4.0f;
  }
  for (const auto& [index, value] : edits) {
    a[index] = value;
  }
  const std::vector<real_t> b(f, 1.0f);
  std::vector<real_t> x(f, 0.0f);
  (void)solver.solve(a, b, x);
  return solver.stats();
}

TEST(SolverDegradation, Fp16PackCheckFlagsOverflowAndFlushOnly) {
  // The pack check's two rules — a finite value that became inf, a nonzero
  // diagonal flushed to zero — and what it must not flag: values that were
  // already non-finite in FP32 go straight to CG, break down there, and
  // fail on the exact path instead.
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  struct Case {
    const char* name;
    std::vector<std::pair<std::size_t, real_t>> edits;
    std::uint64_t fp16_fallbacks;
    std::uint64_t cg_fallbacks;
    std::uint64_t failures;
  };
  const Case cases[] = {
      {"healthy", {}, 0, 0, 0},
      // 65520 is the first float that rounds past half::max() to inf.
      {"offdiag_overflow", {{1, 65520.0f}, {10, 65520.0f}}, 1, 0, 0},
      // A[9][9] is flat index 99: an overflow only the tail can see.
      {"diag_overflow_tail", {{99, 70000.0f}}, 1, 0, 0},
      // 1e-8 < 2^-25 rounds to a zero half: the ridge would vanish.
      {"diag_flush_body", {{22, 1e-8f}}, 1, 0, 0},
      {"diag_flush_tail", {{99, 1e-8f}}, 1, 0, 0},
      {"input_inf", {{1, inf}, {10, inf}}, 0, 1, 1},
      {"input_nan", {{33, nan}}, 0, 1, 1},
  };
  for (const auto path : {simd::KernelPath::scalar, simd::KernelPath::simd}) {
    for (const auto& c : cases) {
      const SolveStats s = fp16_pack_case(c.edits, path);
      EXPECT_EQ(s.fp16_fallbacks, c.fp16_fallbacks)
          << c.name << " on " << simd::to_string(path);
      EXPECT_EQ(s.cg_fallbacks, c.cg_fallbacks)
          << c.name << " on " << simd::to_string(path);
      EXPECT_EQ(s.failures, c.failures)
          << c.name << " on " << simd::to_string(path);
    }
  }
}

TEST(SolverDegradation, NanSystemFailsCleanlyAndRestoresX) {
  SolverOptions opts;
  opts.kind = SolverKind::CgFp32;
  SystemSolver solver(2, opts);
  const std::vector<real_t> a = {std::nanf(""), 0.0f, 0.0f, 1.0f};
  const std::vector<real_t> b = {1.0f, 1.0f};
  std::vector<real_t> x = {-7.0f, 3.0f};
  EXPECT_FALSE(solver.solve(a, b, x));
  // CG broke down, the exact fallback produced non-finite output, and the
  // caller's warm start came back untouched.
  EXPECT_FLOAT_EQ(x[0], -7.0f);
  EXPECT_FLOAT_EQ(x[1], 3.0f);
  EXPECT_EQ(solver.stats().cg_fallbacks, 1u);
  EXPECT_EQ(solver.stats().failures, 1u);
}

// ---------- fault injection ----------

TEST(FaultInjection, DisarmedInjectorIsInert) {
  EXPECT_FALSE(analysis::FaultInjector::enabled());
  {
    analysis::FaultPlan plan;
    plan.nan_a_prob = 1.0;
    analysis::ScopedFaultPlan guard(plan);
    EXPECT_TRUE(analysis::FaultInjector::enabled());
  }
  EXPECT_FALSE(analysis::FaultInjector::enabled());
}

TEST(FaultInjection, DecisionsAreDeterministic) {
  analysis::FaultPlan plan;
  plan.seed = 7;
  plan.nan_a_prob = 0.3;
  const auto run = [&plan]() {
    std::vector<bool> pattern;
    analysis::ScopedFaultPlan guard(plan);
    for (index_t row = 0; row < 200; ++row) {
      std::vector<real_t> a(4, 1.0f);
      std::vector<real_t> b(2, 1.0f);
      analysis::FaultInjector::instance().corrupt_system(0, row, a, b);
      pattern.push_back(std::isnan(a[0]) || std::isnan(a[1]) ||
                        std::isnan(a[2]) || std::isnan(a[3]));
    }
    return pattern;
  };
  const auto first = run();
  EXPECT_EQ(first, run());
  EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
  EXPECT_LT(std::count(first.begin(), first.end(), true), 200);
}

// ---------- AlsEngine: restore, training under faults ----------

RatingsCoo tiny_ratings() {
  SyntheticConfig cfg;
  cfg.m = 60;
  cfg.n = 40;
  cfg.nnz = 900;
  cfg.true_rank = 4;
  cfg.mean = 3.5;
  cfg.seed = 5;
  return generate_synthetic(cfg).ratings;
}

AlsOptions tiny_options(SolverKind kind) {
  AlsOptions options;
  options.f = 8;
  options.lambda = 0.05f;
  options.solver.kind = kind;
  options.workers = 2;
  options.seed = 1;
  return options;
}

TEST(AlsResume, RestoredRunIsBitIdenticalToUninterrupted) {
  const RatingsCoo ratings = tiny_ratings();
  const AlsOptions options = tiny_options(SolverKind::CgFp16);

  AlsEngine uninterrupted(ratings, options);
  for (int i = 0; i < 4; ++i) {
    uninterrupted.run_epoch();
  }

  AlsEngine first_half(ratings, options);
  first_half.run_epoch();
  first_half.run_epoch();

  // A brand-new engine (fresh init, fresh solver stats) picks up from the
  // snapshot and must land exactly where the uninterrupted run did.
  AlsEngine second_half(ratings, options);
  second_half.restore(first_half.user_factors(), first_half.item_factors(),
                      first_half.epochs_run(), first_half.solve_stats());
  second_half.run_epoch();
  second_half.run_epoch();

  EXPECT_EQ(second_half.epochs_run(), 4);
  EXPECT_TRUE(second_half.user_factors() == uninterrupted.user_factors());
  EXPECT_TRUE(second_half.item_factors() == uninterrupted.item_factors());
  // The restored baseline makes cumulative stats span the whole logical run.
  EXPECT_EQ(second_half.solve_stats().systems,
            uninterrupted.solve_stats().systems);
  EXPECT_EQ(second_half.solve_stats().cg_iterations,
            uninterrupted.solve_stats().cg_iterations);
}

TEST(AlsResume, RestoreRejectsWrongShapes) {
  AlsEngine engine(tiny_ratings(), tiny_options(SolverKind::CgFp32));
  EXPECT_THROW(engine.restore(Matrix(3, 3), engine.item_factors(), 1),
               CheckError);
}

TEST(AlsFaults, TrainingSurvivesInjectedFaultsWithFiniteFactors) {
  analysis::FaultPlan plan;
  plan.seed = 13;
  plan.nan_a_prob = 0.01;
  plan.indefinite_a_prob = 0.03;
  plan.fp16_overflow_prob = 0.03;
  analysis::ScopedFaultPlan guard(plan);

  AlsEngine engine(tiny_ratings(), tiny_options(SolverKind::CgFp16));
  engine.run_epoch();
  engine.run_epoch();

  const SolveStats stats = engine.solve_stats();
  // Indefinite and NaN systems break CG; overflowed diagonals break the
  // FP16 pack; only the NaN systems are unsolvable even exactly.
  EXPECT_GT(stats.cg_fallbacks, 0u);
  EXPECT_GT(stats.fp16_fallbacks, 0u);
  EXPECT_GT(stats.failures, 0u);
  EXPECT_LT(stats.failures, stats.systems);
  // The degradation ladder must keep every factor finite: failed rows keep
  // their previous (finite) value instead of absorbing NaN.
  EXPECT_TRUE(all_finite(engine.user_factors()));
  EXPECT_TRUE(all_finite(engine.item_factors()));
}

TEST(AlsFaults, FaultCountsAreScheduleInvariant) {
  analysis::FaultPlan plan;
  plan.seed = 21;
  plan.indefinite_a_prob = 0.05;
  const auto run = [&plan](int workers, AlsSchedule schedule) {
    analysis::ScopedFaultPlan guard(plan);
    AlsOptions options = tiny_options(SolverKind::CgFp32);
    options.workers = workers;
    options.schedule = schedule;
    AlsEngine engine(tiny_ratings(), options);
    engine.run_epoch();
    return engine.solve_stats();
  };
  const SolveStats serial = run(1, AlsSchedule::static_rows);
  const SolveStats guided = run(3, AlsSchedule::nnz_guided);
  EXPECT_GT(serial.cg_fallbacks, 0u);
  EXPECT_EQ(serial.cg_fallbacks, guided.cg_fallbacks);
  EXPECT_EQ(serial.failures, guided.failures);
}

}  // namespace
}  // namespace cumf
