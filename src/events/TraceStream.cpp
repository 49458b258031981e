//===- events/TraceStream.cpp - Incremental trace reading -----------------===//

#include "events/TraceStream.h"

#include "events/TraceText.h"

#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace velo {

uint64_t maxTraceSymbols() {
  constexpr uint64_t Default = 1 << 20;
  const char *Env = std::getenv("VELO_MAX_SYMBOLS");
  if (!Env || !*Env)
    return Default;
  uint64_t V = 0;
  for (const char *P = Env; *P; ++P) {
    if (*P < '0' || *P > '9')
      return Default;
    V = V * 10 + static_cast<uint64_t>(*P - '0');
    if (V > Default)
      return Default; // the hook only lowers the cap
  }
  return V == 0 ? Default : V;
}

bool internSymbolCapped(StringInterner &I, std::string_view Name,
                        uint32_t &IdOut) {
  if (I.lookup(Name, IdOut))
    return true;
  if (I.size() >= maxTraceSymbols())
    return false;
  IdOut = I.intern(Name);
  return true;
}

namespace {

/// Byte classes for the tokenizer. Space is the C locale's isspace set
/// (' ', \t, \n, \v, \f, \r), spelled out so the tokenizer neither calls
/// into the locale nor depends on it. Escape marks the bytes that send a
/// token through unescapeSymbol: '\' (which also starts the empty-name
/// token \e) and the control bytes it rejects.
enum ByteClass : uint8_t { Plain = 0, Space = 1, Escape = 2 };

constexpr std::array<uint8_t, 256> ByteClasses = [] {
  std::array<uint8_t, 256> T{};
  for (int B = 0; B < 0x20; ++B)
    T[B] = Escape;
  T[0x7f] = Escape;
  T['\\'] = Escape;
  for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[static_cast<unsigned char>(C)] = Space;
  return T;
}();

uint8_t byteClass(char C) {
  return ByteClasses[static_cast<unsigned char>(C)];
}

/// Parse "T<digits>" into a thread id. Rejects non-digits and ids at or
/// above MaxTraceThreads (see TraceStream.h).
bool parseTid(std::string_view Token, Tid &Out) {
  if (Token.size() < 2 || Token[0] != 'T')
    return false;
  uint64_t V = 0;
  for (size_t I = 1; I < Token.size(); ++I) {
    char C = Token[I];
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
    if (V >= MaxTraceThreads)
      return false;
  }
  Out = static_cast<Tid>(V);
  return true;
}

/// Split Line into at most four whitespace-separated tokens (the fourth is
/// only captured to report it as trailing garbage). Returns the token
/// count; bit I of EscapeMask is set when token I holds an Escape byte.
size_t splitTokens(std::string_view Line, std::string_view Toks[4],
                   unsigned &EscapeMask) {
  size_t N = 0;
  EscapeMask = 0;
  const char *P = Line.data(), *End = P + Line.size();
  while (P != End) {
    while (P != End && byteClass(*P) == Space)
      ++P;
    if (P == End)
      break;
    const char *Start = P;
    uint8_t Seen = Plain, C;
    while (P != End && (C = byteClass(*P)) != Space) {
      Seen |= C;
      ++P;
    }
    if (Seen & Escape)
      EscapeMask |= 1u << N;
    Toks[N++] = std::string_view(Start, P - Start);
    if (N == 4)
      break; // trailing garbage: one token is enough for the diagnostic
  }
  return N;
}

} // namespace

LineParse parseTraceLine(std::string_view Line, SymbolTable &Syms, Event &Ev,
                         std::string &ErrorOut) {
  // CRLF dumps (recorded on Windows, or piped through a tool that
  // normalizes line endings) leave a '\r' on every line; strip it before
  // tokenizing so it can never leak into a symbol name or trip the
  // argument-count checks.
  if (!Line.empty() && Line.back() == '\r')
    Line.remove_suffix(1);
  size_t Hash = Line.find('#');
  if (Hash != std::string_view::npos)
    Line = Line.substr(0, Hash);

  std::string_view Toks[4];
  unsigned EscapeMask;
  size_t N = splitTokens(Line, Toks, EscapeMask);
  if (N == 0)
    return LineParse::Blank;
  auto Fail = [&](const std::string &Msg) {
    ErrorOut = Msg;
    return LineParse::Error;
  };
  if (N == 4)
    return Fail("trailing token '" + std::string(Toks[3]) + "'");

  Tid T;
  if (!parseTid(Toks[0], T))
    return Fail("expected thread id 'T<n>', got '" + std::string(Toks[0]) +
                "'");
  if (N < 2)
    return Fail("missing operation");
  std::string_view OpTok = Toks[1];
  bool HasArg = N == 3;
  std::string_view Arg = Toks[2];

  // Decode the escaped symbol argument (TraceText escaping rule) and
  // intern it under the per-kind count cap.
  auto InternArg = [&](StringInterner &Table, const char *What,
                       uint32_t &IdOut, std::string &Msg) {
    // Only a token with an escape or a control byte needs decoding; any
    // other token is its own name, looked up without a copy.
    std::string_view Name = Arg;
    std::string Unescaped;
    if (EscapeMask & 4u) {
      if (!unescapeSymbol(Arg, Unescaped, Msg))
        return false;
      Name = Unescaped;
    }
    if (!internSymbolCapped(Table, Name, IdOut)) {
      Msg = std::string("too many distinct ") + What + " names (cap " +
            std::to_string(maxTraceSymbols()) + ")";
      return false;
    }
    return true;
  };

  if (OpTok == "rd" || OpTok == "wr") {
    if (!HasArg)
      return Fail("missing variable name");
    VarId X;
    std::string Msg;
    if (!InternArg(Syms.Vars, "variable", X, Msg))
      return Fail(Msg);
    Ev = OpTok == "rd" ? Event::read(T, X) : Event::write(T, X);
  } else if (OpTok == "acq" || OpTok == "rel") {
    if (!HasArg)
      return Fail("missing lock name");
    LockId M;
    std::string Msg;
    if (!InternArg(Syms.Locks, "lock", M, Msg))
      return Fail(Msg);
    Ev = OpTok == "acq" ? Event::acquire(T, M) : Event::release(T, M);
  } else if (OpTok == "begin") {
    if (!HasArg)
      return Fail("missing label");
    Label L;
    std::string Msg;
    if (!InternArg(Syms.Labels, "label", L, Msg))
      return Fail(Msg);
    Ev = Event::begin(T, L);
  } else if (OpTok == "end") {
    if (HasArg)
      return Fail("'end' takes no argument");
    Ev = Event::end(T);
  } else if (OpTok == "fork" || OpTok == "join") {
    Tid Child;
    if (!HasArg || !parseTid(Arg, Child))
      return Fail("expected child thread id");
    Ev = OpTok == "fork" ? Event::fork(T, Child) : Event::join(T, Child);
  } else {
    return Fail("unknown operation '" + std::string(OpTok) + "'");
  }
  return LineParse::Event;
}

TraceStream::TraceStream(std::istream &In, SymbolTable &Syms, size_t Block)
    : In(&In), Syms(Syms), Block(Block == 0 ? 1 : Block) {
  auto Pos = In.tellg();
  HasOffset = Pos != std::istream::pos_type(-1);
  Offset = HasOffset ? static_cast<uint64_t>(Pos) : 0;
}

TraceStream::TraceStream(std::string_view Text, SymbolTable &Syms)
    : Syms(Syms), Block(BlockSize), Cur(Text.data()),
      Lim(Text.data() + Text.size()), InputDone(true) {}

bool TraceStream::refill() {
  size_t Keep = static_cast<size_t>(Lim - Cur);
  if (Buf.empty()) {
    Buf.resize(Block);
  } else if (Keep == Buf.size()) {
    Buf.resize(Buf.size() * 2); // one line fills the block: grow
  } else if (Keep != 0 && Cur != Buf.data()) {
    std::memmove(Buf.data(), Cur, Keep);
  }
  size_t Want = Buf.size() - Keep;
  errno = 0;
  In->read(Buf.data() + Keep, static_cast<std::streamsize>(Want));
  auto Got = static_cast<size_t>(In->gcount());
  Cur = Buf.data();
  Lim = Cur + Keep + Got;
  if (In->bad()) {
    int Err = errno;
    Failed = ReadFailed = true;
    Error = "line " + std::to_string(LineNo + 1) + ": read error: " +
            (Err != 0 ? std::strerror(Err) : "stream error");
    return false;
  }
  // istream::read stops short only at end of input.
  InputDone = Got < Want;
  return true;
}

bool TraceStream::nextLine(std::string_view &Line) {
  for (;;) {
    const char *From = Cur + Scanned;
    if (From != Lim)
      if (const void *NL = std::memchr(From, '\n', Lim - From)) {
        const char *End = static_cast<const char *>(NL);
        Line = std::string_view(Cur, End - Cur);
        Offset += static_cast<uint64_t>(End + 1 - Cur);
        Cur = End + 1;
        Scanned = 0;
        return true;
      }
    Scanned = static_cast<size_t>(Lim - Cur);
    if (InputDone) {
      // No newline before the end: what is left (if anything) is the last
      // line, and the reader now sits at end of input, where tellg()
      // after getline would fail too.
      AtEof = true;
      if (Cur == Lim)
        return false;
      Line = std::string_view(Cur, Lim - Cur);
      Offset += static_cast<uint64_t>(Lim - Cur);
      Cur = Lim;
      Scanned = 0;
      return true;
    }
    if (!refill())
      return false;
  }
}

bool TraceStream::tell(uint64_t &PosOut) const {
  if (!HasOffset || AtEof || ReadFailed)
    return false;
  PosOut = Offset;
  return true;
}

bool TraceStream::seek(uint64_t Pos) {
  if (!In)
    return false;
  In->clear();
  In->seekg(static_cast<std::istream::off_type>(Pos));
  if (!*In)
    return false;
  Cur = Lim = nullptr;
  Scanned = 0;
  Offset = Pos;
  HasOffset = true;
  InputDone = AtEof = false;
  return true;
}

bool TraceStream::next(Event &Out) {
  if (Failed)
    return false;
  std::string_view Line;
  while (nextLine(Line)) {
    ++LineNo;
    std::string Msg;
    switch (parseTraceLine(Line, Syms, Out, Msg)) {
    case LineParse::Event:
      ++NumEvents;
      return true;
    case LineParse::Blank:
      continue;
    case LineParse::Error:
      Failed = true;
      Error = "line " + std::to_string(LineNo) + ": " + Msg;
      return false;
    }
  }
  return false;
}

} // namespace velo
