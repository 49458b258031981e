//===- events/TraceSource.cpp - Format-independent event streams ----------===//

#include "events/TraceSource.h"

#include "events/BinaryFormat.h"
#include "events/BinaryReader.h"

#include <cerrno>
#include <cstring>

namespace velo {

std::unique_ptr<TraceSource> openTraceSource(const std::string &Path,
                                             SymbolTable &Syms,
                                             TraceReadStatus &StatusOut,
                                             std::string &ErrorOut,
                                             const TraceOpenOptions &Opts) {
  if (detectTraceFormat(Path) == TraceFormat::Binary) {
    auto R = std::make_unique<BinaryTraceReader>(Syms);
    StatusOut = Opts.Salvage ? R->openSalvage(Path, ErrorOut)
                             : R->open(Path, ErrorOut);
    if (StatusOut == TraceReadStatus::NotFound ||
        StatusOut == TraceReadStatus::IoError)
      return nullptr;
    if (Opts.SalvageOut)
      *Opts.SalvageOut = R->salvage();
    // ParseError: hand the failed reader back so the caller reports it
    // through the same path as a malformed text line.
    return R;
  }
  errno = 0;
  auto T = std::make_unique<TextTraceSource>(Path, Syms);
  if (!T->ok()) {
    int Err = errno;
    ErrorOut = "cannot open " + Path + ": " +
               (Err != 0 ? std::strerror(Err) : "open failed");
    StatusOut =
        Err == ENOENT ? TraceReadStatus::NotFound : TraceReadStatus::IoError;
    return nullptr;
  }
  StatusOut = TraceReadStatus::Ok;
  return T;
}

} // namespace velo
