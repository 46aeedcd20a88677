//! CoFlow workload descriptions.
//!
//! A [`Trace`] is the unit every simulator run and every testbed
//! emulation consumes: a cluster size, a port speed, and a list of
//! [`CoflowSpec`]s with absolute arrival times. These are *descriptions*
//! — sizes here are ground truth that only clairvoyant baselines may
//! read; online schedulers see only what has been sent so far.

use saath_simcore::{Bytes, CoflowId, Duration, JobId, NodeId, PortId, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One flow: a fixed volume from a sender node to a receiver node.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Sending node (contends on its uplink).
    pub src: NodeId,
    /// Receiving node (contends on its downlink).
    pub dst: NodeId,
    /// Ground-truth volume.
    pub size: Bytes,
    /// Offset after the CoFlow's arrival at which this flow's data is
    /// actually available to send (§4.3 "Un-availability of the data":
    /// frameworks pipeline compute and communication, so some flows
    /// lag). Zero for the common case.
    pub available_after: Duration,
}

impl FlowSpec {
    /// A flow whose data is available immediately on CoFlow arrival.
    pub fn new(src: NodeId, dst: NodeId, size: Bytes) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            size,
            available_after: Duration::ZERO,
        }
    }
}

/// One CoFlow: the set of semantically-synchronized flows of one job
/// stage. The application makes progress only when *all* of them finish.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoflowSpec {
    /// Dense identifier, unique within a trace.
    pub id: CoflowId,
    /// When the CoFlow registers with the coordinator. For CoFlows with
    /// DAG dependencies this is the *earliest* possible release; the
    /// simulator further delays release until all `deps` complete.
    pub arrival: Time,
    /// The flows (at least one).
    pub flows: Vec<FlowSpec>,
    /// The analytics job this CoFlow belongs to, if any (Fig 16).
    pub job: Option<JobId>,
    /// CoFlows that must complete before this one is released
    /// (multi-stage DAG / multi-wave scheduling, §4.3).
    pub deps: Vec<CoflowId>,
}

impl CoflowSpec {
    /// A plain CoFlow with no job or DAG structure.
    pub fn new(id: CoflowId, arrival: Time, flows: Vec<FlowSpec>) -> CoflowSpec {
        CoflowSpec {
            id,
            arrival,
            flows,
            job: None,
            deps: Vec::new(),
        }
    }

    /// Number of flows — the paper's *width* (Table 1 bins on it).
    pub fn width(&self) -> usize {
        self.flows.len()
    }

    /// Total ground-truth volume — the paper's *size*.
    pub fn total_size(&self) -> Bytes {
        self.flows.iter().map(|f| f.size).sum()
    }

    /// The distinct fabric ports this CoFlow touches, given the cluster
    /// size. Contention (`k_c`) and all-or-none both operate on this set.
    pub fn ports(&self, num_nodes: usize) -> BTreeSet<PortId> {
        let mut set = BTreeSet::new();
        for f in &self.flows {
            set.insert(PortId::uplink(f.src));
            set.insert(PortId::downlink(f.dst, num_nodes));
        }
        set
    }

    /// Whether all flows have the same size (the paper separates
    /// equal-length from uneven-length CoFlows in Figs 2 and 13).
    pub fn has_equal_flows(&self) -> bool {
        match self.flows.first() {
            None => true,
            Some(first) => self.flows.iter().all(|f| f.size == first.size),
        }
    }
}

/// A complete workload: cluster shape plus CoFlow arrivals.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Number of machines; the fabric has `2 * num_nodes` ports.
    pub num_nodes: usize,
    /// Uniform port speed (1 Gbps in the paper).
    pub port_rate: saath_simcore::Rate,
    /// CoFlows sorted by arrival time (enforced by [`Trace::validate`]).
    pub coflows: Vec<CoflowSpec>,
}

/// A structural problem found by [`Trace::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A flow references a node outside `0..num_nodes`.
    NodeOutOfRange {
        /// The offending CoFlow.
        coflow: CoflowId,
        /// The offending node index.
        node: NodeId,
    },
    /// A CoFlow has no flows.
    EmptyCoflow(CoflowId),
    /// A flow has zero size (zero-volume flows complete instantly and
    /// break CCT accounting).
    ZeroSizeFlow(CoflowId),
    /// CoFlow ids are not unique.
    DuplicateId(CoflowId),
    /// Arrivals are not sorted.
    UnsortedArrivals,
    /// A CoFlow arrives past [`Time::LATEST`].
    ArrivalPastClock(CoflowId),
    /// A DAG dependency references an unknown CoFlow id.
    UnknownDep {
        /// The CoFlow declaring the dependency.
        coflow: CoflowId,
        /// The missing dependency.
        dep: CoflowId,
    },
    /// The DAG has a cycle (detected as a dep on a non-earlier CoFlow
    /// that is unreachable to resolve).
    DepCycle(CoflowId),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::NodeOutOfRange { coflow, node } => {
                write!(f, "{coflow}: node {node} out of range")
            }
            TraceError::EmptyCoflow(c) => write!(f, "{c}: no flows"),
            TraceError::ZeroSizeFlow(c) => write!(f, "{c}: zero-size flow"),
            TraceError::DuplicateId(c) => write!(f, "duplicate CoFlow id {c}"),
            TraceError::UnsortedArrivals => write!(f, "arrivals not sorted"),
            TraceError::ArrivalPastClock(c) => {
                write!(f, "{c}: arrives past the latest instant {}", Time::LATEST)
            }
            TraceError::UnknownDep { coflow, dep } => {
                write!(f, "{coflow}: unknown dependency {dep}")
            }
            TraceError::DepCycle(c) => write!(f, "dependency cycle involving {c}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Structural validation; every consumer may assume a validated
    /// trace. Returns the first problem found.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut seen = BTreeSet::new();
        let mut last_arrival = Time::ZERO;
        for c in &self.coflows {
            if !seen.insert(c.id) {
                return Err(TraceError::DuplicateId(c.id));
            }
            if c.flows.is_empty() {
                return Err(TraceError::EmptyCoflow(c.id));
            }
            if c.arrival < last_arrival {
                return Err(TraceError::UnsortedArrivals);
            }
            last_arrival = c.arrival;
            if c.arrival > Time::LATEST {
                return Err(TraceError::ArrivalPastClock(c.id));
            }
            for fl in &c.flows {
                for node in [fl.src, fl.dst] {
                    if node.index() >= self.num_nodes {
                        return Err(TraceError::NodeOutOfRange { coflow: c.id, node });
                    }
                }
                if fl.size == Bytes::ZERO {
                    return Err(TraceError::ZeroSizeFlow(c.id));
                }
            }
        }
        // DAG sanity: deps must exist; cycles are impossible if every dep
        // chain terminates, which we check with a simple DFS.
        for c in &self.coflows {
            for d in &c.deps {
                if !seen.contains(d) {
                    return Err(TraceError::UnknownDep {
                        coflow: c.id,
                        dep: *d,
                    });
                }
            }
        }
        self.check_acyclic()?;
        Ok(())
    }

    fn check_acyclic(&self) -> Result<(), TraceError> {
        use std::collections::HashMap;
        let index: HashMap<CoflowId, usize> = self
            .coflows
            .iter()
            .enumerate()
            .map(|(i, c)| (c.id, i))
            .collect();
        // 0 = unvisited, 1 = in stack, 2 = done
        let mut state = vec![0u8; self.coflows.len()];
        for start in 0..self.coflows.len() {
            if state[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            state[start] = 1;
            while let Some(top) = stack.last_mut() {
                let node = top.0;
                let deps = &self.coflows[node].deps;
                if top.1 < deps.len() {
                    let next = index[&deps[top.1]];
                    top.1 += 1;
                    match state[next] {
                        0 => {
                            state[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => return Err(TraceError::DepCycle(self.coflows[node].id)),
                        _ => {}
                    }
                } else {
                    state[node] = 2;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Total number of flows across all CoFlows.
    pub fn num_flows(&self) -> usize {
        self.coflows.iter().map(|c| c.flows.len()).sum()
    }

    /// Total volume across all CoFlows.
    pub fn total_bytes(&self) -> Bytes {
        self.coflows.iter().map(|c| c.total_size()).sum()
    }

    /// The time span from first arrival to last arrival.
    pub fn arrival_span(&self) -> Duration {
        match (self.coflows.first(), self.coflows.last()) {
            (Some(a), Some(b)) => b.arrival.saturating_since(a.arrival),
            _ => Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_simcore::Rate;

    fn tiny_trace() -> Trace {
        Trace {
            num_nodes: 4,
            port_rate: Rate::gbps(1),
            coflows: vec![
                CoflowSpec::new(
                    CoflowId(0),
                    Time::ZERO,
                    vec![
                        FlowSpec::new(NodeId(0), NodeId(2), Bytes::mb(10)),
                        FlowSpec::new(NodeId(1), NodeId(2), Bytes::mb(10)),
                    ],
                ),
                CoflowSpec::new(
                    CoflowId(1),
                    Time::from_millis(5),
                    vec![FlowSpec::new(NodeId(3), NodeId(0), Bytes::mb(7))],
                ),
            ],
        }
    }

    #[test]
    fn accessors() {
        let t = tiny_trace();
        assert_eq!(t.num_flows(), 3);
        assert_eq!(t.total_bytes(), Bytes::mb(27));
        assert_eq!(t.arrival_span(), Duration::from_millis(5));
        let c = &t.coflows[0];
        assert_eq!(c.width(), 2);
        assert_eq!(c.total_size(), Bytes::mb(20));
        assert!(c.has_equal_flows());
        // Ports: uplinks of 0 and 1, downlink of 2 (= 4 + 2 = index 6).
        let ports: Vec<usize> = c.ports(4).iter().map(|p| p.index()).collect();
        assert_eq!(ports, vec![0, 1, 6]);
    }

    #[test]
    fn equal_flow_detection() {
        let mut c = tiny_trace().coflows.remove(0);
        assert!(c.has_equal_flows());
        c.flows[1].size = Bytes::mb(11);
        assert!(!c.has_equal_flows());
    }

    #[test]
    fn validate_accepts_good_trace() {
        assert_eq!(tiny_trace().validate(), Ok(()));
    }

    #[test]
    fn validate_catches_problems() {
        let mut t = tiny_trace();
        t.coflows[1].flows[0].src = NodeId(9);
        assert!(matches!(
            t.validate(),
            Err(TraceError::NodeOutOfRange { .. })
        ));

        let mut t = tiny_trace();
        t.coflows[1].id = CoflowId(0);
        assert!(matches!(t.validate(), Err(TraceError::DuplicateId(_))));

        let mut t = tiny_trace();
        t.coflows[0].arrival = Time::from_secs(10);
        assert_eq!(t.validate(), Err(TraceError::UnsortedArrivals));

        let mut t = tiny_trace();
        for c in &mut t.coflows {
            c.arrival = Time::LATEST;
        }
        assert_eq!(t.validate(), Ok(()));
        t.coflows[1].arrival = Time(Time::LATEST.0 + 1);
        assert_eq!(
            t.validate(),
            Err(TraceError::ArrivalPastClock(t.coflows[1].id))
        );

        let mut t = tiny_trace();
        t.coflows[0].flows.clear();
        assert!(matches!(t.validate(), Err(TraceError::EmptyCoflow(_))));

        let mut t = tiny_trace();
        t.coflows[0].flows[0].size = Bytes::ZERO;
        assert!(matches!(t.validate(), Err(TraceError::ZeroSizeFlow(_))));

        let mut t = tiny_trace();
        t.coflows[0].deps.push(CoflowId(99));
        assert!(matches!(t.validate(), Err(TraceError::UnknownDep { .. })));
    }

    #[test]
    fn validate_catches_dep_cycles() {
        let mut t = tiny_trace();
        t.coflows[0].deps.push(CoflowId(1));
        t.coflows[1].deps.push(CoflowId(0));
        assert!(matches!(t.validate(), Err(TraceError::DepCycle(_))));
        // Self-loop.
        let mut t = tiny_trace();
        t.coflows[0].deps.push(CoflowId(0));
        assert!(matches!(t.validate(), Err(TraceError::DepCycle(_))));
    }

    #[test]
    fn dag_dependencies_are_allowed_forward() {
        let mut t = tiny_trace();
        t.coflows[1].deps.push(CoflowId(0));
        assert_eq!(t.validate(), Ok(()));
    }
}
