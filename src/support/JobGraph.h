//===- support/JobGraph.h - Dependency-aware job scheduling -----*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-aware job scheduler layered over ThreadPool. A
/// JobGraph models a pipeline (lowering -> pair stripes) as jobs with
/// explicit predecessor edges; run() executes every job on a shared
/// pool, starting each the moment its predecessors finish. Independent
/// chains from different arrays therefore pipeline across each other
/// instead of barriering per stage, which is what the graph builder
/// and the corpus sweep need: one array's pairs can be tested while
/// another is still lowering.
///
/// The graph is acyclic by construction: a job may only depend on jobs
/// added before it. Execution with one worker is deterministic (a
/// FIFO topological order: roots in insertion order, successors
/// enqueued as their last predecessor completes); with several workers
/// the order varies but jobs must only write state that is private per
/// job, so results are schedule-independent.
///
/// Exceptions never escape a worker: each job runs under its own
/// handler, dependent jobs still execute (they must tolerate a failed
/// predecessor's partial state or guard on it), and the first captured
/// exception is rethrown from run() after the graph drains — the same
/// containment contract as ThreadPool::parallelFor.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_JOBGRAPH_H
#define PDT_SUPPORT_JOBGRAPH_H

#include <cstddef>
#include <functional>
#include <vector>

namespace pdt {

class ThreadPool;

class JobGraph {
public:
  using JobId = size_t;

  /// Adds a job that runs \p Fn after every job in \p Deps completed.
  /// Every dependency must be the id of a previously added job (this
  /// makes cycles unrepresentable). Returns the new job's id. The job
  /// captures the calling thread's RequestContext token and runs under
  /// it, so worker-thread telemetry attributes to the request that
  /// scheduled the job.
  JobId add(std::function<void()> Fn, const std::vector<JobId> &Deps = {});

  /// Executes the whole graph on \p Pool and blocks until every job
  /// ran. Single-shot: a JobGraph instance runs once. Rethrows the
  /// first exception any job raised, after all jobs (including the
  /// failed job's dependents) have executed.
  void run(ThreadPool &Pool);

  size_t size() const { return Jobs.size(); }

private:
  struct Job {
    std::function<void()> Fn;
    /// Successor job ids, in add order (drives the deterministic
    /// one-worker FIFO schedule).
    std::vector<JobId> Succs;
    /// Predecessors not yet completed; 0 means ready.
    size_t PendingDeps = 0;
  };
  std::vector<Job> Jobs;
  bool Ran = false;
};

} // namespace pdt

#endif // PDT_SUPPORT_JOBGRAPH_H
