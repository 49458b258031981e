//===- events/TraceSource.h - Format-independent event streams --*- C++ -*-===//
//
// One streaming-reader interface over both trace encodings, so the
// sequential checker loop and the parallel pipeline ingest text and
// VELOTRC binary traces through identical code paths. TextTraceSource
// wraps TraceStream; BinaryTraceReader (events/BinaryReader.h) implements
// the same interface over an mmap'd VELOTRC file. openTraceSource sniffs
// the magic and returns whichever matches.
//
// Error contract: error() is always "line N: message", exactly like
// TraceStream; pathError renders it as "<path>:N: message". For a binary
// source, N is the 1-based event ordinal (binary frames have no lines).
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_TRACESOURCE_H
#define VELO_EVENTS_TRACESOURCE_H

#include "events/TraceStream.h"
#include "events/TraceText.h"

#include <fstream>
#include <memory>
#include <string>

namespace velo {

/// Streaming event source over one trace encoding. Mirrors TraceStream's
/// contract; see the class comment there for the usage idiom.
class TraceSource {
public:
  virtual ~TraceSource() = default;

  /// Advance to the next event. Returns false at end of input or on the
  /// first malformed record (distinguish via failed()).
  virtual bool next(Event &Out) = 0;

  /// Did the stream stop on malformed input (rather than clean EOF)?
  virtual bool failed() const = 0;

  /// "line N: message"; empty unless failed().
  virtual const std::string &error() const = 0;

  /// Position of the most recent event for diagnostics: the 1-based text
  /// line, or the 1-based event ordinal for binary.
  virtual uint64_t lineNo() const = 0;

  /// Events returned so far (monotone; primed by resumeCounters).
  virtual uint64_t eventCount() const = 0;

  /// If the source currently sits on a position a checkpoint can resume
  /// from, set PosOut to it and return true. Text: any line boundary
  /// (stream tellg). Binary: only frame boundaries — callers defer the
  /// checkpoint until the frame ends.
  virtual bool tell(uint64_t &PosOut) = 0;

  /// True when the source just finished a storage frame — a natural batch
  /// boundary for the parallel pipeline. Text input has no frames (always
  /// false).
  virtual bool endOfFrame() const = 0;

  /// Restore the position counters after an out-of-band seek: Line is
  /// lineNo() at the checkpoint, Events the events delivered up to it.
  virtual void resumeCounters(uint64_t Line, uint64_t Events) = 0;

  /// Seek to Pos (a value a previous tell() produced, persisted in a
  /// checkpoint) and restore counters. Returns false with ErrorOut set if
  /// the position is not a valid boundary in this file.
  virtual bool seekTo(uint64_t Pos, uint64_t Line, uint64_t Events,
                      std::string &ErrorOut) = 0;
};

/// Text-format source: a thin TraceSource adapter over TraceStream. Can
/// borrow a caller-owned stream (tests, stdin) or own a file stream.
class TextTraceSource : public TraceSource {
public:
  /// Borrow In; the caller keeps it alive for the source's lifetime.
  TextTraceSource(std::istream &In, SymbolTable &Syms)
      : In(&In), TS(In, Syms) {}

  /// Own a file stream. Check ok() before use.
  TextTraceSource(const std::string &Path, SymbolTable &Syms)
      : Owned(std::make_unique<std::ifstream>(Path)), In(Owned.get()),
        TS(*Owned, Syms) {}

  bool ok() const { return !Owned || static_cast<bool>(*Owned); }

  bool next(Event &Out) override { return TS.next(Out); }
  bool failed() const override { return TS.failed(); }
  const std::string &error() const override { return TS.error(); }
  uint64_t lineNo() const override { return TS.lineNo(); }
  uint64_t eventCount() const override { return TS.eventCount(); }

  bool tell(uint64_t &PosOut) override {
    auto Off = In->tellg();
    if (Off == std::istream::pos_type(-1))
      return false;
    PosOut = static_cast<uint64_t>(Off);
    return true;
  }

  bool endOfFrame() const override { return false; }

  void resumeCounters(uint64_t Line, uint64_t Events) override {
    TS.resumeAt(static_cast<size_t>(Line), Events);
  }

  bool seekTo(uint64_t Pos, uint64_t Line, uint64_t Events,
              std::string &ErrorOut) override {
    In->clear();
    In->seekg(static_cast<std::istream::off_type>(Pos));
    if (!*In) {
      ErrorOut = "cannot seek to checkpoint offset " + std::to_string(Pos);
      return false;
    }
    resumeCounters(Line, Events);
    return true;
  }

  /// The wrapped stream (readTraceFileStatus reads I/O state off it).
  std::istream &stream() { return *In; }

private:
  std::unique_ptr<std::ifstream> Owned; ///< null when borrowing
  std::istream *In;
  TraceStream TS;
};

/// What a salvage open of a VELOTRC container recovered (see
/// BinaryTraceReader::openSalvage). Used stays false when the container
/// was complete and no recovery was needed.
struct SalvageSummary {
  bool Used = false;         ///< prefix recovery actually engaged
  uint64_t FramesKept = 0;   ///< intact events frames accepted
  uint64_t EventsKept = 0;   ///< events in the accepted prefix
  uint64_t BytesDropped = 0; ///< bytes discarded after the prefix
};

/// Options for openTraceSource.
struct TraceOpenOptions {
  /// Binary containers: accept the longest intact frame prefix of a
  /// truncated file instead of rejecting it (velodrome-check --salvage).
  /// Text input cannot be salvaged; callers gate the flag on the sniffed
  /// format first.
  bool Salvage = false;
  /// When non-null and the source is binary, receives the recovery
  /// outcome after a salvage open.
  SalvageSummary *SalvageOut = nullptr;
};

/// Open Path as a trace source, sniffing the VELOTRC magic to pick the
/// encoding. On NotFound/IoError returns null with StatusOut/ErrorOut set
/// (same messages as readTraceFileStatus). A malformed binary container
/// yields a non-null source that fails on the first next() — callers
/// handle it through their normal parse-error path. Symbols interned
/// while reading land in Syms.
std::unique_ptr<TraceSource> openTraceSource(const std::string &Path,
                                             SymbolTable &Syms,
                                             TraceReadStatus &StatusOut,
                                             std::string &ErrorOut,
                                             const TraceOpenOptions &Opts = {});

/// "<path>:N: message" from a source's "line N: message" error().
inline std::string pathError(const std::string &Path,
                             const std::string &LineError) {
  return Path + ":" + LineError.substr(5);
}

} // namespace velo

#endif // VELO_EVENTS_TRACESOURCE_H
