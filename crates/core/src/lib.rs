//! # mcmap-core
//!
//! The core of the reproduction of *Kang et al., "Static Mapping of
//! Mixed-Critical Applications for Fault-Tolerant MPSoCs", DAC 2014*:
//!
//! * [`proposed_analysis`] — **Algorithm 1**, the mixed-criticality
//!   fault-tolerance-aware WCRT analysis that enumerates normal→critical
//!   state transitions over any [`SchedBackend`](mcmap_sched::SchedBackend);
//! * [`naive_analysis`] / [`adhoc_analysis`] — the §5.1 comparison points;
//! * [`Genome`] / [`GenomeSpace`] — the Fig. 4 chromosome (allocation bits,
//!   droppable-application selection, per-task binding + hardening genes);
//! * [`repair_structure`] / [`repair_reliability`] — the §4 randomized
//!   repair heuristics;
//! * [`expected_power`] / [`lost_service`] — the §2.3 objectives;
//! * [`explore`] — the end-to-end design-space exploration built on
//!   [`mcmap_ga`].
//!
//! # Examples
//!
//! Analyzing one mapping with Algorithm 1:
//!
//! ```
//! use mcmap_core::analyze;
//! use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
//! use mcmap_model::{AppId, AppSet, Architecture, Criticality, ExecBounds, ProcId, ProcKind,
//!     Processor, Task, TaskGraph, Time};
//! use mcmap_sched::{uniform_policies, Mapping, SchedPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = Architecture::builder()
//!     .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
//!     .build()?;
//! let hi = TaskGraph::builder("hi", Time::from_ticks(1_000))
//!     .criticality(Criticality::NonDroppable { max_failure_rate: 1.0 })
//!     .task(Task::new("h")
//!         .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100)))
//!         .with_detect_overhead(Time::from_ticks(10)))
//!     .build()?;
//! let lo = TaskGraph::builder("lo", Time::from_ticks(1_000))
//!     .criticality(Criticality::Droppable { service: 1.0 })
//!     .task(Task::new("l").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(200))))
//!     .build()?;
//! let apps = AppSet::new(vec![hi, lo])?;
//!
//! let mut plan = HardeningPlan::unhardened(&apps);
//! plan.set_by_flat_index(0, TaskHardening::reexecution(1));
//! let hsys = harden(&apps, &plan, &arch)?;
//! let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0), ProcId::new(1)])?;
//! let policies = uniform_policies(2, SchedPolicy::FixedPriorityPreemptive);
//!
//! // Drop `lo` in the critical state: its WCRT only matters fault-free.
//! let dropped = [AppId::new(1)];
//! let mc = analyze(&hsys, &arch, &mapping, &policies, &dropped);
//! assert!(mc.schedulable(&hsys, &dropped));
//! // The critical app's bound covers the re-execution: ≥ 220 ticks.
//! assert!(mc.app_wcrt(&hsys, AppId::new(0), &dropped) >= Time::from_ticks(220));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod checkpoint;
mod dse;
mod genome;
mod objective;
mod portfolio;
mod repair;
mod sensitivity;

pub use analysis::{
    adhoc_analysis, analyze, analyze_naive, analyze_with, naive_analysis, normal_state_bounds,
    proposed_analysis, proposed_analysis_delta, proposed_analysis_with, AnalysisOptions,
    AnalysisSolutions, McAnalysis,
};
pub use checkpoint::{
    read_checkpoint, read_checkpoint_with_fallback, write_checkpoint, DseCheckpoint,
};
pub use dse::{
    explore, explore_checked, AnalysisStats, AuditSnapshot, DesignReport, DseConfig, DseError,
    DseOutcome, MappingProblem, ObjectiveMode, ResilienceConfig, SharedEvalCache,
};
pub use genome::{GeneHardening, Genome, GenomeSpace, TaskGene};
pub use mcmap_eval::{CacheStats, EvalCacheConfig, EvalStats};
pub use objective::{expected_power, lost_service, service_after_dropping};
pub use portfolio::{
    read_portfolio, write_portfolio, MaterializedPoint, OperatingPoint, Portfolio,
};
pub use repair::{repair_reliability, repair_structure, repair_structure_logged};
pub use sensitivity::{uniform_reexec_plan, AppSlack, Sensitivity, WhatIf};
