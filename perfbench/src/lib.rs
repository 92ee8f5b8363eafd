//! The repository benchmark: three workloads that separate the paper's
//! match and control costs and the serve layer's request path, measured
//! end to end with tracing off and layer by layer from spans recorded
//! outside the program. See `perfbench/README.md`.

pub mod driver;
pub mod host;
pub mod offline;
pub mod report;
pub mod serve_mixed;
pub mod stats;
pub mod trace;
