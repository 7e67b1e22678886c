// workflow.hpp — work decomposition (paper §4.1).
//
// Terms, exactly as the paper defines them:
//  * A **tasklet** is the smallest element into which the overall workflow
//    can be divided and still be submitted as a self-contained piece of
//    work.  The complete list of tasklets is created at the beginning of
//    the workflow.
//  * A **task** is a group of tasklets assigned to run on a single worker
//    core.  Tasks are created and assigned dynamically.
//  * A **workflow** can be divided into tasks of any integer number of
//    tasklets; the task size is set by the user and can be adjusted over
//    the course of the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dbs/dbs.hpp"

namespace lobster::core {

/// Lifecycle of a tasklet in the Lobster DB.
enum class TaskletStatus : std::uint8_t {
  Pending,    ///< not yet part of a running task
  Assigned,   ///< inside a dispatched task
  Processed,  ///< analysis done, output file exists
  Merged,     ///< output absorbed into a merged file
  Failed,     ///< permanently failed (attempts exhausted)
};

const char* to_string(TaskletStatus s);

/// The smallest self-contained piece of work: a slice of one input file.
struct Tasklet {
  std::uint64_t id = 0;
  std::string input_lfn;
  dbs::Lumisection first_lumi;
  dbs::Lumisection last_lumi;
  std::uint64_t events = 0;
  double input_bytes = 0.0;
  /// Expected output volume (paper §4.2: output is at least an order of
  /// magnitude smaller than the processed input).
  double expected_output_bytes = 0.0;
};

/// Decomposition parameters.
struct DecompositionSpec {
  /// Lumisections per tasklet (the finest practical granularity).
  std::uint32_t lumis_per_tasklet = 5;
  /// Output/input volume ratio for expected_output_bytes.
  double output_ratio = 0.05;
};

/// Split a dataset into the complete tasklet list (created once, at the
/// beginning of the workflow).  Tasklets never span input files.
std::vector<Tasklet> decompose(const dbs::Dataset& dataset,
                               const DecompositionSpec& spec);

}  // namespace lobster::core
