//! The serving benchmark of the isolated sdrad runtime: three workloads
//! driven from one load-generator thread, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run. See
//! `README.md` for why each workload exists and what each metric should
//! move.

pub mod gen;
pub mod http;
pub mod kv;
pub mod replay;
pub mod report;
pub mod sys;
pub mod trace;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop at a fixed rate through `Runtime::submit`.
    KvPaced,
    /// Closed loop with rotating offenders and the control plane on.
    KvHostile,
    /// Closed loop over two pipelined connections.
    HttpConn,
}

impl Workload {
    /// Every workload, in the order the report command runs them.
    pub const ALL: [Workload; 3] = [Workload::KvPaced, Workload::KvHostile, Workload::HttpConn];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvPaced => "kv-paced",
            Workload::KvHostile => "kv-hostile",
            Workload::HttpConn => "http-conn",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }
}
