//===- driver/Corpus.h - Built-in kernel corpus -----------------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel corpus standing in for the paper's Fortran suites
/// (RiCEPS, Perfect, SPEC, eispack, linpack; see DESIGN.md's
/// substitution notes). Each kernel is a loop nest written in the
/// input language, faithful to the memory access pattern of the code
/// it models: linpack's vector/column operations, eispack's coupled
/// (i,j)/(j,i) subscripts, Livermore loops, SPEC-style stencils, and
/// application loops. A separate "paper" suite carries the worked
/// examples from the paper text for golden tests and the figure
/// benches.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_DRIVER_CORPUS_H
#define PDT_DRIVER_CORPUS_H

#include <string>
#include <vector>

namespace pdt {

/// One corpus entry.
struct CorpusKernel {
  std::string Name;
  std::string Suite;
  std::string Source;
};

/// The whole corpus, suite-ordered.
const std::vector<CorpusKernel> &corpus();

/// Distinct suite names in corpus order.
std::vector<std::string> suiteNames();

/// Kernels of one suite.
std::vector<const CorpusKernel *> kernelsInSuite(const std::string &Suite);

/// Lookup by kernel name; null when absent.
const CorpusKernel *findKernel(const std::string &Name);

} // namespace pdt

#endif // PDT_DRIVER_CORPUS_H
