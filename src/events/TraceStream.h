//===- events/TraceStream.h - Incremental trace reading ---------*- C++ -*-===//
//
// Streaming counterpart of parseTrace/readTraceFile: pulls events out of the
// text format one line at a time, so the offline tools can feed a backend a
// multi-gigabyte trace dump in constant memory (the whole-file Trace object
// is only materialized when something genuinely needs random access, e.g.
// the serializability oracle behind --witness).
//
// Lines come out of one block buffer: the reader pulls fixed BlockSize
// chunks from the istream, finds line ends with memchr and hands each line
// to the tokenizer as a string_view into the block, so a line that names
// symbols already interned allocates and copies nothing. Resident memory
// is that one block, not the file; a line longer than a block grows the
// buffer (there is no line-length cap). The same splitter runs over an
// in-memory string for parseTrace, and the per-line grammar
// (parseTraceLine) is shared too, so the batch and streaming paths cannot
// drift.
//
// The stream keeps its own byte offset, which is what checkpoints record:
// tell() yields exactly what the istream's tellg() would at the same line
// boundary, without a seek per query.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_TRACESTREAM_H
#define VELO_EVENTS_TRACESTREAM_H

#include "events/Trace.h"

#include <istream>
#include <string>
#include <string_view>
#include <vector>

namespace velo {

/// Thread ids are dense from 0 and the back-ends allocate per-thread state,
/// so an absurd id in a corrupt dump must be a parse error, not a
/// multi-gigabyte allocation. Shared by the text and binary readers.
inline constexpr uint64_t MaxTraceThreads = 1 << 20;

/// Cap on distinct names per symbol kind (variables, locks, labels). A
/// hostile trace of nothing but fresh names would otherwise exhaust the
/// symbol table before the Governor sees a single event; the same cap
/// guards the binary reader's symbol blocks. The VELO_MAX_SYMBOLS
/// environment variable lowers it (test hook; see docs/INGESTION.md).
uint64_t maxTraceSymbols();

/// Intern Name into I, enforcing maxTraceSymbols() on *new* names only
/// (already-interned names always resolve). Returns false when the table
/// is full; callers turn that into a parse error.
bool internSymbolCapped(StringInterner &I, std::string_view Name,
                        uint32_t &IdOut);

/// Outcome of parsing a single line of trace text.
enum class LineParse {
  Event, ///< a well-formed event line; Ev is filled
  Blank, ///< blank line or comment; nothing to do
  Error, ///< malformed; ErrorOut holds the message (no line prefix)
};

/// Parse one line of the text format (without its '\n') into Ev,
/// interning names into Syms. The message in ErrorOut carries no "line N:"
/// prefix — callers know the position.
LineParse parseTraceLine(std::string_view Line, SymbolTable &Syms, Event &Ev,
                         std::string &ErrorOut);

/// Incremental reader over the trace text format. Usage:
///
///   TraceStream TS(In, Syms);
///   Event E;
///   while (TS.next(E)) consume(E);
///   if (TS.failed()) report(TS.error());
///
class TraceStream {
public:
  /// Bytes requested from the istream per read.
  static constexpr size_t BlockSize = 64 * 1024;

  /// Read In block by block; the caller keeps In alive. Offsets start at
  /// In's position (tell() always fails when In cannot report one). Tests
  /// and the fuzzer pass a tiny Block to put a block boundary inside
  /// every line.
  TraceStream(std::istream &In, SymbolTable &Syms,
              size_t Block = BlockSize);

  /// Tokenize Text in place; the caller keeps the bytes alive.
  TraceStream(std::string_view Text, SymbolTable &Syms);

  /// Advance to the next event. Returns false at end of input, on the
  /// first malformed line, or when a read fails (distinguish via failed()).
  bool next(Event &Out);

  /// Did the stream stop on a malformed line or a failed read (rather than
  /// clean EOF)?
  bool failed() const { return Failed; }

  /// True when the failure was a read error, not a malformed line.
  bool readFailed() const { return ReadFailed; }

  /// "line N: message" for the malformed line (or "line N: read error:
  /// <strerror>" for the line a failed read was filling); empty unless
  /// failed().
  const std::string &error() const { return Error; }

  /// 1-based line number of the most recently returned event (or of the
  /// malformed line after a failure). 0 before the first line is read.
  size_t lineNo() const { return LineNo; }

  /// Events returned so far.
  uint64_t eventCount() const { return NumEvents; }

  /// Byte offset just past the last line consumed, on the istream's scale.
  /// Fails where tellg() after the same std::getline calls would: once the
  /// reader has hit end of input (after a last line with no trailing
  /// newline, or after next() found no more lines), after a failed read,
  /// and on a stream with no position.
  bool tell(uint64_t &PosOut) const;

  /// Seek the istream to Pos (a line boundary an earlier tell() returned)
  /// and drop the buffered block. Returns false when the seek fails.
  /// Counters are left alone; see resumeAt.
  bool seek(uint64_t Pos);

  /// Restore position bookkeeping after the caller has seeked the
  /// underlying stream to a line boundary recorded in a checkpoint: Line
  /// is the 1-based number of the last line already consumed, Events the
  /// events returned up to it. Parsing simply continues from the seeked
  /// position with these counters.
  void resumeAt(size_t Line, uint64_t Events) {
    LineNo = Line;
    NumEvents = Events;
  }

private:
  /// Next line without its '\n'; false at end of input or on a failed
  /// read. The view stays valid until the next call.
  bool nextLine(std::string_view &Line);
  /// Move the partial line to the front of the block (growing the block
  /// when the line fills it) and read the rest of the block from In.
  bool refill();

  std::istream *In = nullptr; ///< null for in-memory text
  SymbolTable &Syms;
  size_t Block;          ///< bytes per read of an empty buffer
  std::vector<char> Buf; ///< the block; empty until the first read
  const char *Cur = nullptr, *Lim = nullptr; ///< unconsumed bytes
  size_t Scanned = 0;   ///< bytes at Cur already known to hold no '\n'
  uint64_t Offset = 0;  ///< stream offset of Cur
  bool HasOffset = true;
  bool InputDone = false; ///< In has no bytes beyond Lim
  bool AtEof = false;     ///< a line end was sought past the last byte
  std::string Error;
  size_t LineNo = 0;
  uint64_t NumEvents = 0;
  bool Failed = false;
  bool ReadFailed = false;
};

} // namespace velo

#endif // VELO_EVENTS_TRACESTREAM_H
