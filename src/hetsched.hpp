// Public umbrella header: everything tools/ and examples/ need without
// reaching into the internal subdirectory layout. Library-internal code
// keeps including the fine-grained headers; out-of-tree consumers (and the
// in-tree tools and examples) include this one file.
//
// Deliberately omitted: kernels/ internals other than the engine facade
// and the reference kernels, and the simulator/executor internals
// (DataManager, EventQueue, backends).
#pragma once

// Problem construction: DAGs, tile storage, flop accounting.
#include "core/cholesky_dag.hpp"
#include "core/dense_matrix.hpp"
#include "core/flops.hpp"
#include "core/kernel_types.hpp"
#include "core/kernels.hpp"
#include "core/lu_dag.hpp"
#include "core/numeric_error.hpp"
#include "core/qr_dag.hpp"
#include "core/plan_storage.hpp"
#include "core/task_graph.hpp"
#include "core/tile_matrix.hpp"
#include "core/tile_plan.hpp"
#include "core/tiled_cholesky.hpp"

// Machine models and the paper's performance bounds (closed-form and LP
// yardsticks in bounds.hpp, the pluggable model registry + ALAP bound in
// bound_model.hpp).
#include "bounds/bound_model.hpp"
#include "bounds/bounds.hpp"
#include "platform/calibration.hpp"
#include "platform/platform.hpp"

// Variable tile-size partitioning (TilePlan auto-tuner).
#include "partition/auto_tune.hpp"

// Scheduling policies and static/CP schedule construction.
#include "cp/cp_solver.hpp"
#include "sched/dmda.hpp"
#include "sched/eager_sched.hpp"
#include "sched/fixed_sched.hpp"
#include "sched/hybrid_sched.hpp"
#include "sched/priorities.hpp"
#include "sched/priority_sched.hpp"
#include "sched/random_sched.hpp"
#include "sched/scheduler_registry.hpp"
#include "sched/static_hints.hpp"
#include "sched/static_schedule.hpp"
#include "sched/ws_sched.hpp"
#include "sim/scheduler.hpp"

// Fault injection and recovery.
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"

// Runtime entry points, options, reports, traces and experiments.
#include "exec/parallel_executor.hpp"
#include "exec/plan_executor.hpp"
#include "exec/scheduled_executor.hpp"
#include "runtime/cancel.hpp"
#include "runtime/experiment.hpp"
#include "runtime/options.hpp"
#include "runtime/run_report.hpp"
#include "runtime/trace.hpp"
#include "sim/simulator.hpp"

// Serving layer: job queue, batch fusion, the factorization server.
#include "serve/batch.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/server.hpp"

// Streaming observability: rings, sinks, metrics.
#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "obs/stream.hpp"

// Numeric kernel engine facade and the portable reference kernels.
#include "kernels/engine.hpp"
#include "kernels/ref.hpp"
