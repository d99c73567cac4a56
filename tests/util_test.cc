// Tests for src/util: status, rng, strings, csv, flags, table printer,
// crc32, mmap.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/csv.h"
#include "src/util/mmap_file.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"
#include "src/util/table_printer.h"

namespace gnmr {
namespace util {
namespace {

// ---------------------------------------------------------------- Status ----

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

Status FailsInner() { return Status::NotFound("inner"); }

Status PropagatesError() {
  GNMR_RETURN_IF_ERROR(FailsInner());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = PropagatesError();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int64_t> r = ParseInt64("42");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int64_t> r = ParseInt64("4x2");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.value_or(-1), -1);
}

// ------------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint32(), b.NextUint32());
}

TEST(RngTest, StreamsAreIndependent) {
  Rng a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint32() == b.NextUint32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformUint32InBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformUint32(17), 17u);
  }
}

TEST(RngTest, UniformUint32RoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) counts[rng.UniformUint32(8)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 8, kDraws / 8 * 0.1);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, UniformFloatInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    float v = rng.UniformFloat();
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  constexpr int kN = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, NormalWithParams) {
  Rng rng(23);
  constexpr int kN = 50000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.Normal(5.0f, 0.5f);
  EXPECT_NEAR(sum / kN, 5.0, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(RngTest, CategoricalMatchesWeights) {
  Rng rng(31);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.02);
}

TEST(RngTest, SampleWithoutReplacementSparseBranch) {
  Rng rng(37);
  auto s = rng.SampleWithoutReplacement(1000000, 10);
  std::set<int64_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (int64_t v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000000);
  }
}

TEST(RngTest, SampleWithoutReplacementDenseBranch) {
  Rng rng(41);
  auto s = rng.SampleWithoutReplacement(10, 8);
  std::set<int64_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 8u);
}

TEST(RngTest, SampleWithoutReplacementFullPopulation) {
  Rng rng(43);
  auto s = rng.SampleWithoutReplacement(5, 5);
  std::set<int64_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(47);
  std::vector<int> v = {1, 2, 2, 3, 4, 5, 5, 5};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// --------------------------------------------------------------- Strings ----

TEST(StringTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringTest, SplitSingleField) {
  auto parts = Split("abc", '\t');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  x y \t\r\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StringTest, ParseInt64Valid) {
  EXPECT_EQ(ParseInt64(" -17 ").value(), -17);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(StringTest, ParseInt64Invalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12.5").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
}

TEST(StringTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3").value(), -1e-3);
}

TEST(StringTest, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2x").ok());
}

TEST(StringTest, StrFormatWorks) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringTest, StartsWithWorks) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

// ------------------------------------------------------------------- CSV ----

TEST(CsvTest, RoundTrip) {
  std::string path = testing::TempDir() + "/gnmr_csv_test.tsv";
  std::vector<std::vector<std::string>> rows = {{"1", "2", "buy"},
                                                {"3", "4", "view"}};
  ASSERT_TRUE(WriteDelimited(path, rows, '\t').ok());
  auto read = ReadDelimited(path, '\t');
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), rows);
  std::remove(path.c_str());
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  std::string path = testing::TempDir() + "/gnmr_csv_comments.tsv";
  ASSERT_TRUE(
      WriteStringToFile(path, "# header\n\n1\t2\n   \n# tail\n3\t4\n").ok());
  auto read = ReadDelimited(path, '\t');
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_EQ(read.value()[0][0], "1");
  EXPECT_EQ(read.value()[1][1], "4");
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto read = ReadDelimited("/nonexistent/gnmr/file.tsv", '\t');
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, ReadFileToStringRoundTrip) {
  std::string path = testing::TempDir() + "/gnmr_blob.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld").ok());
  auto s = ReadFileToString(path);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), "hello\nworld");
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- Crc32 ----

TEST(Crc32Test, KnownAnswers) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string blob = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(blob.data(), blob.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{10}, blob.size()}) {
    const uint32_t part = Crc32(blob.data(), split);
    EXPECT_EQ(Crc32(blob.data() + split, blob.size() - split, part), whole);
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(1024, 0x5A);
  const uint32_t clean = Crc32(data.data(), data.size());
  data[512] ^= 0x01;
  EXPECT_NE(Crc32(data.data(), data.size()), clean);
}

// ------------------------------------------------------------ MappedFile ----

TEST(MappedFileTest, ExposesFileContents) {
  std::string path = testing::TempDir() + "/gnmr_mmap.bin";
  const std::string blob("mapped-bytes\0with\0nuls", 22);
  ASSERT_TRUE(WriteStringToFile(path, blob).ok());
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const auto& file = mapped.value();
  ASSERT_EQ(file->size(), static_cast<int64_t>(blob.size()));
  EXPECT_EQ(std::memcmp(file->data(), blob.data(), blob.size()), 0);
  EXPECT_EQ(file->path(), path);
  std::remove(path.c_str());
}

TEST(MappedFileTest, ContentsSurviveFileRemoval) {
  // POSIX semantics: an unlinked file stays readable through an existing
  // mapping — exactly what keeps a retired serving snapshot safe when the
  // artifact is replaced on disk mid-flight.
  std::string path = testing::TempDir() + "/gnmr_mmap_gone.bin";
  ASSERT_TRUE(WriteStringToFile(path, "still-here").ok());
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  std::remove(path.c_str());
  EXPECT_EQ(std::memcmp(mapped.value()->data(), "still-here", 10), 0);
}

TEST(MappedFileTest, MissingFileIsIOError) {
  auto mapped = MappedFile::Open("/nonexistent/gnmr.bin");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
}

TEST(MappedFileTest, EmptyFileMapsToNull) {
  std::string path = testing::TempDir() + "/gnmr_mmap_empty.bin";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value()->size(), 0);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- Flags ----

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",        "--epochs=30", "--lr",  "0.005",
                        "--fast",      "--no-color",  "input.tsv"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("epochs", 0), 30);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.0), 0.005);
  EXPECT_TRUE(flags.GetBool("fast", false));
  EXPECT_FALSE(flags.GetBool("color", true));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.tsv");
  EXPECT_EQ(flags.program(), "prog");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("epochs", 7), 7);
  EXPECT_EQ(flags.GetString("name", "x"), "x");
  EXPECT_FALSE(flags.Has("epochs"));
}

TEST(FlagsTest, MalformedNumberFallsBackToDefault) {
  const char* argv[] = {"prog", "--epochs=abc"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("epochs", 9), 9);
}

TEST(FlagsTest, CheckRejectsUnknownAndUnparsedFlags) {
  const char* argv[] = {"prog",      "--epochs=30", "--lr=0.1x",
                        "--verbose", "--model=m",   "--retriever=ivf"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("epochs", 0), 30);
  EXPECT_TRUE(flags.Has("model"));  // asking by name makes a flag known
  EXPECT_EQ(flags.GetString("retriever", ""), "ivf");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  // --lr was given but never read: unknown to this binary.
  Status s = flags.Check();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unknown flag --lr"), std::string::npos)
      << s.ToString();
  // Read, it no longer counts as unknown, but its value is no number.
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.5), 0.5);
  s = flags.Check();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("--lr=0.1x is not a number"), std::string::npos)
      << s.ToString();
}

TEST(FlagsTest, CheckPassesWhenEveryFlagIsRead) {
  const char* argv[] = {"prog", "--epochs=3", "--fast", "input.tsv"};
  Flags flags(4, const_cast<char**>(argv));
  flags.GetInt("epochs", 0);
  flags.GetBool("fast", false);
  flags.GetString("absent", "");  // asking for absent flags is fine
  EXPECT_TRUE(flags.Check().ok());
  flags.CheckOrExit();  // returns
}

TEST(FlagsDeathTest, CheckOrExitNamesTheFlagAndExitsNonZero) {
  const char* argv[] = {"prog", "--no_such_flag=1"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.CheckOrExit(), testing::ExitedWithCode(2),
              "unknown flag --no_such_flag");
}

// ---------------------------------------------------------- TablePrinter ----

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t({"Model", "HR@10"});
  t.AddRow({"GNMR", "0.857"});
  t.AddSeparator();
  t.AddRow({"NMTR", "0.808"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("Model"), std::string::npos);
  EXPECT_NE(s.find("GNMR"), std::string::npos);
  EXPECT_NE(s.find("0.857"), std::string::npos);
  // Every line has the same width.
  auto lines = Split(s, '\n');
  size_t w = lines[0].size();
  for (const auto& line : lines) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), w);
    }
  }
}

TEST(TablePrinterTest, NumAndPctFormat) {
  EXPECT_EQ(TablePrinter::Num(0.12345, 3), "0.123");
  EXPECT_EQ(TablePrinter::Pct(-12.34, 1), "-12.3%");
  EXPECT_EQ(TablePrinter::Pct(4.0, 1), "+4.0%");
}

// ------------------------------------------------------------- Stopwatch ----

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotone) {
  Stopwatch sw;
  double a = sw.ElapsedSeconds();
  double b = sw.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  sw.Restart();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace util
}  // namespace gnmr
