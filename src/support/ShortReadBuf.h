//===- support/ShortReadBuf.h - A streambuf of short reads ------*- C++ -*-===//
//
// A read-only streambuf over a string that hands out only a few bytes per
// underflow, cycling through a list of sizes: the shape of a pipe or a
// socket that returns short reads. Tests and velodrome-fuzz read traces
// through it to check that a reader's output does not depend on how its
// input arrives. It has no position, so tellg() on it fails.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_SHORTREADBUF_H
#define VELO_SUPPORT_SHORTREADBUF_H

#include <algorithm>
#include <streambuf>
#include <string>
#include <vector>

namespace velo {

class ShortReadBuf : public std::streambuf {
public:
  /// Serve Data in chunks of Sizes[First], Sizes[First + 1], ... (cycling;
  /// every size at least 1).
  explicit ShortReadBuf(std::string Data,
                        std::vector<size_t> Sizes = {1, 2, 3, 4, 5, 6, 7},
                        size_t First = 0)
      : Data(std::move(Data)), Sizes(std::move(Sizes)), Next(First) {}

protected:
  int_type underflow() override {
    if (gptr() < egptr())
      return traits_type::to_int_type(*gptr());
    if (Pos >= Data.size())
      return traits_type::eof();
    size_t N = std::max<size_t>(1, Sizes[Next++ % Sizes.size()]);
    N = std::min(N, Data.size() - Pos);
    char *B = Data.data() + Pos;
    setg(B, B, B + N);
    Pos += N;
    return traits_type::to_int_type(*B);
  }

private:
  std::string Data;
  std::vector<size_t> Sizes;
  size_t Next;
  size_t Pos = 0;
};

} // namespace velo

#endif // VELO_SUPPORT_SHORTREADBUF_H
