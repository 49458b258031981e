//===- tests/IngestionTest.cpp - Streaming reader & file I/O tests --------===//
//
// TraceStream must agree event-for-event with the batch parser (they share
// parseTraceLine, but the loop logic differs), report precise line numbers,
// and stop cleanly on malformed input. readTraceFileStatus must distinguish
// missing files from unreadable files from malformed contents, and carry the
// path in every diagnostic.
//
//===----------------------------------------------------------------------===//

#include "events/TraceGen.h"
#include "events/TraceSource.h"
#include "events/TraceStream.h"
#include "events/TraceText.h"
#include "support/ShortReadBuf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace velo {
namespace {

/// Drives a TraceStream over a string and keeps the stream alive for
/// post-run inspection (failed / error / lineNo).
struct StreamRun {
  std::istringstream In;
  SymbolTable Syms;
  TraceStream TS;
  std::vector<Event> Events;

  explicit StreamRun(const std::string &Text) : In(Text), TS(In, Syms) {
    Event E;
    while (TS.next(E))
      Events.push_back(E);
  }
};

TEST(TraceStreamTest, MatchesBatchParserOnGeneratedTraces) {
  TraceGenOptions Opts;
  Opts.Threads = 3;
  Opts.Steps = 80;
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    Opts.UseForkJoin = Seed % 2 == 0;
    std::string Text = printTrace(generateRandomTrace(Seed, Opts));

    Trace Batch;
    std::string Error;
    ASSERT_TRUE(parseTrace(Text, Batch, Error)) << Error;

    StreamRun Run(Text);
    ASSERT_FALSE(Run.TS.failed()) << Run.TS.error();
    ASSERT_EQ(Run.Events.size(), Batch.size()) << "seed " << Seed;
    for (size_t I = 0; I < Run.Events.size(); ++I)
      EXPECT_TRUE(Run.Events[I] == Batch[I])
          << "seed " << Seed << " event " << I;
    EXPECT_EQ(Run.TS.eventCount(), Batch.size());
  }
}

TEST(TraceStreamTest, SkipsBlankLinesAndComments) {
  StreamRun Run("# header comment\n"
                "\n"
                "T0 wr x\n"
                "   \n"
                "  # indented comment\n"
                "T1 rd x\n");
  ASSERT_FALSE(Run.TS.failed()) << Run.TS.error();
  ASSERT_EQ(Run.Events.size(), 2u);
  EXPECT_EQ(Run.Events[0].Kind, Op::Write);
  EXPECT_EQ(Run.Events[1].Kind, Op::Read);
  EXPECT_EQ(Run.TS.lineNo(), 6u) << "line number of the last event";
}

TEST(TraceStreamTest, ReportsLineNumberOfMalformedLine) {
  StreamRun Run("T0 wr x\n"
                "# fine\n"
                "T0 frobnicate x\n"
                "T0 rd x\n");
  EXPECT_EQ(Run.Events.size(), 1u) << "stops at the malformed line";
  ASSERT_TRUE(Run.TS.failed());
  EXPECT_EQ(Run.TS.error(), "line 3: unknown operation 'frobnicate'");
  EXPECT_EQ(Run.TS.lineNo(), 3u);
}

TEST(TraceStreamTest, LineDiagnosticsMatchBatchParser) {
  // The batch parser is a loop over the same per-line grammar; malformed
  // input must produce byte-identical diagnostics on both paths.
  const char *Bad[] = {
      "T0 wr x\nnonsense\n",     "T0\n",          "T0 rd\n",
      "T0 rd x trailing\n",      "X0 wr x\n",     "T wr x\n",
      "T0 end extra\n",          "T0 fork x\n",   "T99999999999 wr x\n",
  };
  for (const char *Text : Bad) {
    Trace Batch;
    std::string BatchError;
    ASSERT_FALSE(parseTrace(Text, Batch, BatchError)) << Text;

    StreamRun Run(Text);
    ASSERT_TRUE(Run.TS.failed()) << Text;
    EXPECT_EQ(Run.TS.error(), BatchError) << Text;
  }
}

TEST(ParseTraceLineTest, ClassifiesLines) {
  SymbolTable Syms;
  Event E;
  std::string Error;
  EXPECT_EQ(parseTraceLine("", Syms, E, Error), LineParse::Blank);
  EXPECT_EQ(parseTraceLine("  # comment", Syms, E, Error), LineParse::Blank);
  EXPECT_EQ(parseTraceLine("T3 acq mylock", Syms, E, Error),
            LineParse::Event);
  EXPECT_TRUE(E == Event::acquire(3, Syms.Locks.intern("mylock")));
  EXPECT_EQ(parseTraceLine("T0 junk", Syms, E, Error), LineParse::Error);
  EXPECT_EQ(Error, "unknown operation 'junk'");
  EXPECT_EQ(parseTraceLine("T0 rd x y", Syms, E, Error), LineParse::Error);
  EXPECT_EQ(Error, "trailing token 'y'");
}

TEST(ReadTraceFileTest, MissingFileIsNotFoundWithStrerror) {
  Trace Out;
  std::string Error;
  EXPECT_EQ(readTraceFileStatus("/nonexistent/velo.trace", Out, Error),
            TraceReadStatus::NotFound);
  EXPECT_NE(Error.find("/nonexistent/velo.trace"), std::string::npos)
      << Error;
  EXPECT_NE(Error.find("No such file or directory"), std::string::npos)
      << Error;
  EXPECT_FALSE(readTraceFile("/nonexistent/velo.trace", Out, Error));
}

TEST(ReadTraceFileTest, MalformedFileIsParseErrorWithPathAndLine) {
  std::string Path = ::testing::TempDir() + "velo_ingest_bad.trace";
  {
    std::ofstream OutFile(Path);
    OutFile << "T0 wr x\nbogus\n";
  }
  Trace Out;
  std::string Error;
  EXPECT_EQ(readTraceFileStatus(Path, Out, Error),
            TraceReadStatus::ParseError);
  EXPECT_EQ(Error.find(Path + ":2: "), 0u) << Error;
  std::remove(Path.c_str());
}

TEST(TraceStreamTest, StripsTrailingCarriageReturns) {
  // Windows-authored traces (CRLF line endings) must parse identically to
  // Unix ones: getline leaves the \r on the line, the parser strips it.
  StreamRun Run("T0 fork T1\r\n"
                "T0 wr x\r\n"
                "# comment line\r\n"
                "T1 rd x\r\n"
                "T0 join T1\r\n");
  ASSERT_FALSE(Run.TS.failed()) << Run.TS.error();
  ASSERT_EQ(Run.Events.size(), 4u);
  EXPECT_TRUE(Run.Events[1] == Event::write(0, Run.Syms.Vars.intern("x")));

  // An interior \r is ordinary token whitespace (isspace), so doubled
  // carriage returns are harmless and can never leak into a symbol name.
  StreamRun Interior("T0 wr x\r\r\n");
  ASSERT_FALSE(Interior.TS.failed()) << Interior.TS.error();
  ASSERT_EQ(Interior.Events.size(), 1u);
  EXPECT_TRUE(Interior.Events[0] ==
              Event::write(0, Interior.Syms.Vars.intern("x")));
}

TEST(SymbolEscapingTest, EscapeUnescapeRoundTripsHostileNames) {
  const std::string Names[] = {
      "plain",      "",           "with space", "tab\tinside",
      "new\nline",  "back\\slash", "hash#mark", std::string("\x01\x1f\x7f", 3),
      "caf\xc3\xa9" /* bytes >= 0x80 pass through raw */};
  for (const std::string &N : Names) {
    std::string Esc = escapeSymbol(N);
    for (char C : Esc)
      EXPECT_FALSE(static_cast<unsigned char>(C) <= 0x20 || C == 0x7f)
          << "escaped form of '" << N << "' still has whitespace/control";
    std::string Back, Err;
    ASSERT_TRUE(unescapeSymbol(Esc, Back, Err)) << Err;
    EXPECT_EQ(Back, N);
  }
}

TEST(SymbolEscapingTest, PrintedHostileNamesReparseToSameTrace) {
  // The writer/parser symmetry satellite: printTrace of a trace whose
  // symbols contain whitespace, '#', or control bytes must re-parse to
  // the identical event stream and names.
  Trace T;
  uint32_t V = T.symbols().Vars.intern("spaced out\tname");
  uint32_t L = T.symbols().Locks.intern("lock#1\n");
  uint32_t B = T.symbols().Labels.intern("");
  T.push(Event::begin(0, B));
  T.push(Event::acquire(0, L));
  T.push(Event::write(0, V));
  T.push(Event::release(0, L));
  T.push(Event::end(0));

  std::string Text = printTrace(T);
  Trace Back;
  std::string Error;
  ASSERT_TRUE(parseTrace(Text, Back, Error)) << Error << "\n" << Text;
  EXPECT_EQ(printTrace(Back), Text);
  ASSERT_EQ(Back.size(), T.size());
  EXPECT_EQ(Back.symbols().varName(Back[2].var()), "spaced out\tname");
  EXPECT_EQ(Back.symbols().lockName(Back[1].lock()), "lock#1\n");
  EXPECT_EQ(Back.symbols().labelName(Back[0].label()), "");
}

TEST(SymbolEscapingTest, RejectsRawControlCharsAndBadEscapes) {
  SymbolTable Syms;
  Event E;
  std::string Error;
  EXPECT_EQ(parseTraceLine(std::string("T0 wr a\x01z"), Syms, E, Error),
            LineParse::Error);
  EXPECT_NE(Error.find("control character"), std::string::npos) << Error;
  EXPECT_EQ(parseTraceLine("T0 wr a\\qz", Syms, E, Error), LineParse::Error);
  EXPECT_NE(Error.find("bad escape"), std::string::npos) << Error;
  EXPECT_EQ(parseTraceLine("T0 wr a\\x1", Syms, E, Error), LineParse::Error);
  EXPECT_NE(Error.find("bad escape"), std::string::npos) << Error;
}

TEST(SymbolCapTest, TextParserSurfacesCapAsParseError) {
  ::setenv("VELO_MAX_SYMBOLS", "4", 1);
  std::string Text;
  for (int I = 0; I < 6; ++I)
    Text += "T0 wr v" + std::to_string(I) + "\n";
  StreamRun Run(Text);
  ::unsetenv("VELO_MAX_SYMBOLS");
  ASSERT_TRUE(Run.TS.failed());
  EXPECT_EQ(Run.TS.error(),
            "line 5: too many distinct variable names (cap 4)");
  EXPECT_EQ(Run.Events.size(), 4u) << "events before the cap still parse";
}

TEST(SymbolCapTest, ReusedNamesDoNotCountAgainstTheCap) {
  ::setenv("VELO_MAX_SYMBOLS", "2", 1);
  std::string Text;
  for (int I = 0; I < 50; ++I)
    Text += std::string("T0 wr ") + (I % 2 ? "a" : "b") + "\n" +
            "T0 acq m\nT0 rel m\n";
  StreamRun Run(Text);
  ::unsetenv("VELO_MAX_SYMBOLS");
  ASSERT_FALSE(Run.TS.failed()) << Run.TS.error();
  EXPECT_EQ(Run.Events.size(), 150u);
}

TEST(ReadTraceFileTest, WellFormedFileRoundTrips) {
  std::string Path = ::testing::TempDir() + "velo_ingest_ok.trace";
  TraceGenOptions Opts;
  Trace T = generateRandomTrace(7, Opts);
  ASSERT_TRUE(writeTraceFile(T, Path));
  Trace Out;
  std::string Error;
  EXPECT_EQ(readTraceFileStatus(Path, Out, Error), TraceReadStatus::Ok)
      << Error;
  EXPECT_EQ(printTrace(Out), printTrace(T));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The block reader: lines cut by block boundaries, long lines, offsets.
//===----------------------------------------------------------------------===//

constexpr size_t Block = TraceStream::BlockSize;

/// What one reader made of a text: events with their line numbers, the
/// names behind every table, tell() after each event, and the outcome.
struct Reading {
  std::vector<Event> Events;
  std::vector<size_t> Lines;
  std::vector<uint64_t> Offsets; ///< UINT64_MAX where tell() failed
  std::vector<std::string> Names;
  bool Failed = false;
  std::string Error;
  bool TellAtEnd = false;

  bool operator==(const Reading &O) const {
    return Events == O.Events && Lines == O.Lines && Offsets == O.Offsets &&
           Names == O.Names && Failed == O.Failed && Error == O.Error &&
           TellAtEnd == O.TellAtEnd;
  }
};

std::vector<std::string> allNames(const SymbolTable &Syms) {
  std::vector<std::string> Out;
  for (const StringInterner *T : {&Syms.Vars, &Syms.Locks, &Syms.Labels}) {
    for (uint32_t I = 0; I < T->size(); ++I)
      Out.push_back(T->name(I));
    Out.push_back("--");
  }
  return Out;
}

template <typename Reader>
Reading readAll(Reader &R, const SymbolTable &Syms) {
  Reading Out;
  Event E;
  uint64_t Pos = 0;
  while (R.next(E)) {
    Out.Events.push_back(E);
    Out.Lines.push_back(R.lineNo());
    Out.Offsets.push_back(R.tell(Pos) ? Pos : UINT64_MAX);
  }
  Out.Failed = R.failed();
  Out.Error = R.error();
  Out.TellAtEnd = R.tell(Pos);
  Out.Names = allNames(Syms);
  return Out;
}

/// Text read through a borrowed istringstream with Block-sized reads.
Reading readStream(const std::string &Text, size_t BlockBytes = Block) {
  std::istringstream In(Text);
  SymbolTable Syms;
  TraceStream TS(In, Syms, BlockBytes);
  return readAll(TS, Syms);
}

/// The same text tokenized in place (the parseTrace path).
Reading readInPlace(const std::string &Text) {
  SymbolTable Syms;
  TraceStream TS(std::string_view(Text), Syms);
  return readAll(TS, Syms);
}

/// Byte offset after each line of Text that holds an event, summed
/// independently of the reader (every line below is an event line).
std::vector<uint64_t> lineEnds(const std::string &Text) {
  std::vector<uint64_t> Out;
  for (size_t I = 0; I < Text.size(); ++I)
    if (Text[I] == '\n')
      Out.push_back(I + 1);
  return Out;
}

/// Filler event lines totalling exactly Bytes bytes ("T0 wr f\n" padded
/// with a comment to land on the byte).
std::string filler(size_t Bytes) {
  std::string Out;
  while (Bytes - Out.size() >= 8 + 10)
    Out += "T0 wr f\n";
  // One last line of exactly the bytes left: an event with a comment, or
  // a blank line when too short for one.
  size_t Left = Bytes - Out.size();
  if (Left >= 10)
    Out += "T0 wr f #" + std::string(Left - 10, 'p') + "\n";
  else if (Left > 0)
    Out += std::string(Left - 1, ' ') + "\n";
  return Out;
}

TEST(BlockReaderTest, LineStraddlingTheBlockEndAtEveryOffset) {
  for (int D = -3; D <= 3; ++D) {
    // The newline of "T1 rd straddle" lands at byte Block + D.
    const std::string Line = "T1 rd straddle\n";
    std::string Text = filler(Block + D + 1 - Line.size()) + Line +
                       "T0 acq m\nT0 rel m\n";
    ASSERT_EQ(Text.find("straddle\n") + 8, Block + D);
    Reading Got = readStream(Text);
    EXPECT_FALSE(Got.Failed) << Got.Error;
    EXPECT_EQ(Got, readInPlace(Text)) << "offset " << D;
    Trace Batch;
    std::string Error;
    ASSERT_TRUE(parseTrace(Text, Batch, Error)) << Error;
    EXPECT_EQ(Got.Events, std::vector<Event>(Batch.begin(), Batch.end()))
        << "offset " << D;
    EXPECT_EQ(Got.Names, allNames(Batch.symbols())) << "offset " << D;
  }
}

TEST(BlockReaderTest, LinesLongerThanTwoBlocks) {
  // A comment and an escaped name, each longer than two blocks, both in
  // the middle of the file and as its unterminated last line.
  std::string LongComment = "T0 wr a #" + std::string(2 * Block + 17, 'c');
  std::string RawName;
  for (size_t I = 0; RawName.size() < 2 * Block + 5; ++I)
    RawName += I % 9 == 0 ? ' ' : static_cast<char>('a' + I % 26);
  std::string LongName = "T0 wr " + escapeSymbol(RawName);
  for (const std::string &Text :
       {"T0 rd x\n" + LongComment + "\n" + LongName + "\nT0 rd x\n",
        "T0 rd x\n" + LongName + "\n" + LongComment,
        "T0 rd x\n" + LongComment + "\n" + LongName}) {
    Reading Got = readStream(Text);
    ASSERT_FALSE(Got.Failed) << Got.Error;
    EXPECT_EQ(Got, readInPlace(Text));
    ASSERT_GE(Got.Events.size(), 3u);
    EXPECT_EQ(std::count(Got.Names.begin(), Got.Names.end(), RawName), 1);
  }
}

TEST(BlockReaderTest, CarriageReturnEndsOneBlockAndNewlineStartsTheNext) {
  const std::string Line = "T2 wr crlf\r\n";
  std::string Text = filler(Block - Line.size() + 1) + Line + "T2 rd crlf\r\n";
  ASSERT_EQ(Text[Block - 1], '\r');
  ASSERT_EQ(Text[Block], '\n');
  Reading Got = readStream(Text);
  ASSERT_FALSE(Got.Failed) << Got.Error;
  EXPECT_EQ(Got, readInPlace(Text));
  EXPECT_EQ(std::count(Got.Names.begin(), Got.Names.end(), "crlf"), 1)
      << "the \\r never reaches the name";
}

TEST(BlockReaderTest, LastLineWithoutNewlineParsesAndTellFailsAfterIt) {
  for (const std::string &Text :
       {std::string("T0 wr x\nT0 rd x"), filler(Block - 3) + "T0 rd x"}) {
    Reading Got = readStream(Text);
    ASSERT_FALSE(Got.Failed) << Got.Error;
    EXPECT_EQ(Got, readInPlace(Text));
    ASSERT_GE(Got.Events.size(), 2u);
    EXPECT_EQ(Got.Events.back().Kind, Op::Read);
    EXPECT_EQ(Got.Offsets.back(), UINT64_MAX) << "tell() at EOF fails";
    EXPECT_EQ(Got.Offsets[Got.Offsets.size() - 2],
              Text.rfind('\n') + 1);
    EXPECT_FALSE(Got.TellAtEnd);
  }
  // With the newline, tell() works after the last event and fails once
  // next() has looked past it.
  Reading Terminated = readStream("T0 wr x\nT0 rd x\n");
  EXPECT_EQ(Terminated.Offsets, (std::vector<uint64_t>{8, 16}));
  EXPECT_FALSE(Terminated.TellAtEnd);
}

TEST(BlockReaderTest, EmptyAndCommentOnlyInput) {
  for (const std::string &Text :
       {std::string(), std::string("# only a comment\n"),
        std::string("# no newline"), std::string("\n\n  \n# c\r\n")}) {
    Reading Got = readStream(Text);
    EXPECT_FALSE(Got.Failed) << Got.Error;
    EXPECT_TRUE(Got.Events.empty());
    EXPECT_FALSE(Got.TellAtEnd);
    EXPECT_EQ(Got, readInPlace(Text));
  }
}

TEST(BlockReaderTest, TellMatchesSummedLineBytesForStreamsAndFiles) {
  TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Steps = 40000; // several blocks
  std::string Text = printTrace(generateRandomTrace(11, Opts));
  ASSERT_GT(Text.size(), 3 * Block);
  const std::vector<uint64_t> Want = lineEnds(Text);

  std::istringstream In(Text);
  SymbolTable Syms;
  TextTraceSource Borrowed(In, Syms);
  Reading FromStream = readAll(Borrowed, Syms);
  EXPECT_EQ(FromStream.Offsets, Want);

  std::string Path = ::testing::TempDir() + "velo_block_tell.trace";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << Text;
  }
  SymbolTable FileSyms;
  TextTraceSource File(Path, FileSyms);
  ASSERT_TRUE(File.ok());
  Reading FromFile = readAll(File, FileSyms);
  EXPECT_EQ(FromFile.Offsets, Want);
  EXPECT_FALSE(FromFile.TellAtEnd);
  std::remove(Path.c_str());
}

TEST(BlockReaderTest, SeekToTellResumesWithTheSameTail) {
  TraceGenOptions Opts;
  Opts.Threads = 3;
  Opts.Steps = 9000;
  std::string Text = "# header\n\n" +
                     printTrace(generateRandomTrace(5, Opts));
  std::string Path = ::testing::TempDir() + "velo_block_seek.trace";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << Text;
  }
  SymbolTable Syms;
  TextTraceSource Straight(Path, Syms);
  Reading All = readAll(Straight, Syms);
  ASSERT_FALSE(All.Failed) << All.Error;
  for (size_t Cut : {size_t(0), size_t(1), All.Events.size() / 3,
                     All.Events.size() - 1}) {
    // Read Cut events, remember tell(), and resume a fresh source there.
    SymbolTable HeadSyms;
    TextTraceSource Head(Path, HeadSyms);
    Event E;
    for (size_t I = 0; I < Cut; ++I)
      ASSERT_TRUE(Head.next(E));
    uint64_t Pos = 0;
    ASSERT_TRUE(Head.tell(Pos));
    SymbolTable TailSyms = HeadSyms;
    TextTraceSource Tail(Path, TailSyms);
    std::string Err;
    ASSERT_TRUE(Tail.seekTo(Pos, Head.lineNo(), Cut, Err)) << Err;
    Reading Rest = readAll(Tail, TailSyms);
    ASSERT_FALSE(Rest.Failed) << Rest.Error;
    EXPECT_EQ(Rest.Events,
              std::vector<Event>(All.Events.begin() + Cut, All.Events.end()))
        << "cut " << Cut;
    EXPECT_EQ(Rest.Lines,
              std::vector<size_t>(All.Lines.begin() + Cut, All.Lines.end()))
        << "cut " << Cut;
    EXPECT_EQ(Rest.Offsets, std::vector<uint64_t>(All.Offsets.begin() + Cut,
                                                  All.Offsets.end()))
        << "cut " << Cut;
    EXPECT_EQ(Tail.eventCount(), All.Events.size());
  }
  std::remove(Path.c_str());
}

TEST(BlockReaderTest, ShortReadsYieldIdenticalEventsAndErrors) {
  TraceGenOptions Opts;
  Opts.Threads = 3;
  Opts.Steps = 400;
  std::string Good = printTrace(generateRandomTrace(3, Opts));
  std::vector<std::string> Texts = {
      Good,
      Good + "T0 frobnicate x\n",
      "T0 wr x\r\n#c\r\n\nT1 rd \\x20sp\r\nT0 rd y trailing\n",
      Good.substr(0, Good.size() / 2) + "T0 wr a\x01z\n" + Good,
      "T0 wr " + std::string(3 * 7 + 2, 'n') + "\nT1 rd \\e",
  };
  for (const std::string &Text : Texts) {
    // A streambuf without positions fails every tell(), as tellg() does on
    // it; everything else must match the in-place parse.
    Reading Want = readInPlace(Text);
    Want.Offsets.assign(Want.Offsets.size(), UINT64_MAX);
    Want.TellAtEnd = false;
    for (size_t BlockBytes : {size_t(1), size_t(7), size_t(64), Block})
      for (size_t First = 0; First < 7; ++First) {
        ShortReadBuf Buf(Text, {1, 2, 3, 4, 5, 6, 7}, First);
        std::istream In(&Buf);
        SymbolTable Syms;
        TraceStream TS(In, Syms, BlockBytes);
        Reading Got = readAll(TS, Syms);
        EXPECT_EQ(Got, Want) << "block " << BlockBytes << " first " << First
                             << " error '" << Got.Error << "' vs '"
                             << Want.Error << "'";
      }
  }
}

TEST(BlockReaderTest, TinyBlocksMatchTheInPlaceParse) {
  TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Steps = 300;
  std::string Text = printTrace(generateRandomTrace(9, Opts));
  Reading Want = readInPlace(Text);
  EXPECT_EQ(Want.Offsets, lineEnds(Text));
  for (size_t BlockBytes = 1; BlockBytes <= 40; ++BlockBytes)
    EXPECT_EQ(readStream(Text, BlockBytes), Want) << "block " << BlockBytes;
}

TEST(ReadTraceFileTest, DirectoryIsAReadErrorNamingStrerror) {
  std::string Dir = ::testing::TempDir() + "velo_ingest_dir.trace";
  std::filesystem::create_directories(Dir);
  Trace Out;
  std::string Error;
  EXPECT_EQ(readTraceFileStatus(Dir, Out, Error), TraceReadStatus::IoError);
  EXPECT_EQ(Error, Dir + ":1: read error: Is a directory");

  SymbolTable Syms;
  TextTraceSource Src(Dir, Syms);
  Event E;
  EXPECT_FALSE(Src.next(E));
  EXPECT_TRUE(Src.failed());
  EXPECT_TRUE(Src.readFailed());
  uint64_t Pos = 0;
  EXPECT_FALSE(Src.tell(Pos));
  std::filesystem::remove(Dir);
}

} // namespace
} // namespace velo
