//===--- Format.cpp - Text formatting helpers ----------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <cassert>
#include <cstdarg>
#include <cstdio>

using namespace chameleon;

std::string chameleon::formatBytes(uint64_t Bytes) {
  char Buf[64];
  if (Bytes < 1024) {
    std::snprintf(Buf, sizeof(Buf), "%llu B",
                  static_cast<unsigned long long>(Bytes));
    return Buf;
  }
  const char *Units[] = {"KiB", "MiB", "GiB", "TiB"};
  double Value = static_cast<double>(Bytes);
  int Unit = -1;
  while (Value >= 1024.0 && Unit < 3) {
    Value /= 1024.0;
    ++Unit;
  }
  std::snprintf(Buf, sizeof(Buf), "%.2f %s", Value, Units[Unit]);
  return Buf;
}

std::string chameleon::formatPercent(double Fraction) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%", Fraction * 100.0);
  return Buf;
}

std::string chameleon::formatDouble(double X, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, X);
  return Buf;
}

void chameleon::appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

TextTable::TextTable(std::vector<std::string> Headers)
    : Headers(std::move(Headers)) {}

void TextTable::addRow(std::vector<std::string> Cells) {
  assert(Cells.size() == Headers.size() &&
         "row arity must match header arity");
  Rows.push_back(std::move(Cells));
}

std::string TextTable::render() const {
  std::vector<size_t> Widths(Headers.size(), 0);
  for (size_t I = 0; I < Headers.size(); ++I)
    Widths[I] = Headers[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I < Row.size(); ++I)
      if (Row[I].size() > Widths[I])
        Widths[I] = Row[I].size();

  auto RenderRow = [&](const std::vector<std::string> &Cells) {
    std::string Line;
    for (size_t I = 0; I < Cells.size(); ++I) {
      if (I != 0)
        Line += "  ";
      Line += Cells[I];
      Line.append(Widths[I] - Cells[I].size(), ' ');
    }
    // Trim trailing spaces so golden tests are whitespace-stable.
    while (!Line.empty() && Line.back() == ' ')
      Line.pop_back();
    Line += '\n';
    return Line;
  };

  std::string Out = RenderRow(Headers);
  size_t Total = 0;
  for (size_t I = 0; I < Widths.size(); ++I)
    Total += Widths[I] + (I == 0 ? 0 : 2);
  Out.append(Total, '-');
  Out += '\n';
  for (const auto &Row : Rows)
    Out += RenderRow(Row);
  return Out;
}
