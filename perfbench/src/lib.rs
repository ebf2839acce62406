//! The jmst benchmark: four workloads that exercise the measuring
//! instrument end to end, and the timing decorators that break a traced
//! run down by layer. See `perfbench/README.md` for what each workload
//! and metric is for.

pub mod certify;
pub mod decorate;
pub mod queue;
pub mod replay;
pub mod report;
pub mod spans;
pub mod sys;
