//! Ready-made CP-networks: the paper's Figure 2 example and random network
//! generators used by benchmarks and property tests.

use super::{CpNet, Value, VarId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Builds the example CP-network of the paper's Figure 2:
///
/// ```text
/// c1   c2
///   \ /
///   c3
///   / \
/// c4   c5
/// ```
///
/// with CPTs:
/// * `c1`: `c1_1 ≻ c1_2`
/// * `c2`: `c2_2 ≻ c2_1`
/// * `c3`: `(c1_1∧c2_1) ∨ (c1_2∧c2_2) : c3_1 ≻ c3_2`; otherwise `c3_2 ≻ c3_1`
/// * `c4`: `c3_1 : c4_1 ≻ c4_2`; `c3_2 : c4_2 ≻ c4_1`
/// * `c5`: `c3_1 : c5_1 ≻ c5_2`; `c3_2 : c5_2 ≻ c5_1`
///
/// Returns the network and the five variable ids `[c1..c5]`.
pub fn figure2_net() -> (CpNet, [VarId; 5]) {
    let mut net = CpNet::new();
    let c1 = net.add_variable("c1", &["c1_1", "c1_2"]).unwrap();
    let c2 = net.add_variable("c2", &["c2_1", "c2_2"]).unwrap();
    let c3 = net.add_variable("c3", &["c3_1", "c3_2"]).unwrap();
    let c4 = net.add_variable("c4", &["c4_1", "c4_2"]).unwrap();
    let c5 = net.add_variable("c5", &["c5_1", "c5_2"]).unwrap();
    net.set_unconditional(c1, &[Value(0), Value(1)]).unwrap();
    net.set_unconditional(c2, &[Value(1), Value(0)]).unwrap();
    net.set_parents(c3, &[c1, c2]).unwrap();
    net.set_preference(c3, &[(c1, Value(0)), (c2, Value(0))], &[Value(0), Value(1)])
        .unwrap();
    net.set_preference(c3, &[(c1, Value(1)), (c2, Value(1))], &[Value(0), Value(1)])
        .unwrap();
    net.set_preference(c3, &[(c1, Value(0)), (c2, Value(1))], &[Value(1), Value(0)])
        .unwrap();
    net.set_preference(c3, &[(c1, Value(1)), (c2, Value(0))], &[Value(1), Value(0)])
        .unwrap();
    net.set_parents(c4, &[c3]).unwrap();
    net.set_preference(c4, &[(c3, Value(0))], &[Value(0), Value(1)])
        .unwrap();
    net.set_preference(c4, &[(c3, Value(1))], &[Value(1), Value(0)])
        .unwrap();
    net.set_parents(c5, &[c3]).unwrap();
    net.set_preference(c5, &[(c3, Value(0))], &[Value(0), Value(1)])
        .unwrap();
    net.set_preference(c5, &[(c3, Value(1))], &[Value(1), Value(0)])
        .unwrap();
    net.validate().unwrap();
    (net, [c1, c2, c3, c4, c5])
}

/// Parameters for [`random_net`].
#[derive(Debug, Clone, Copy)]
pub struct RandomNetSpec {
    /// Number of variables.
    pub vars: usize,
    /// Maximum domain size (each variable draws from `2..=max_domain`).
    pub max_domain: usize,
    /// Maximum number of parents per variable.
    pub max_parents: usize,
    /// RNG seed, for reproducible benchmarks.
    pub seed: u64,
}

impl Default for RandomNetSpec {
    fn default() -> Self {
        RandomNetSpec {
            vars: 16,
            max_domain: 3,
            max_parents: 2,
            seed: 0x5eed,
        }
    }
}

/// Generates a random valid CP-network: variables are created in index
/// order, each drawing up to `max_parents` parents among the earlier
/// variables (so the result is acyclic), with uniformly random CPT rows.
pub fn random_net(spec: &RandomNetSpec) -> CpNet {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut net = CpNet::new();
    let mut ids: Vec<VarId> = Vec::with_capacity(spec.vars);
    for i in 0..spec.vars {
        let dom = rng.gen_range(2..=spec.max_domain.max(2));
        let names: Vec<String> = (0..dom).map(|d| format!("v{i}_{d}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let v = net
            .add_variable(&format!("v{i}"), &name_refs)
            .expect("domain within limits");
        ids.push(v);
    }
    for (i, &v) in ids.iter().enumerate() {
        let max_p = spec.max_parents.min(i);
        let nparents = if max_p == 0 {
            0
        } else {
            rng.gen_range(0..=max_p)
        };
        let mut pool: Vec<VarId> = ids[..i].to_vec();
        pool.shuffle(&mut rng);
        let parents: Vec<VarId> = pool.into_iter().take(nparents).collect();
        net.set_parents(v, &parents)
            .expect("acyclic by construction");
        let dom = net.variable(v).unwrap().domain().len();
        let nrows = net.table(v).unwrap().num_rows();
        for row in 0..nrows {
            let assignment: Vec<(VarId, Value)> = net
                .table(v)
                .unwrap()
                .row_assignment(row)
                .into_iter()
                .zip(parents.iter().copied())
                .map(|(val, p)| (p, val))
                .collect();
            let mut order: Vec<Value> = (0..dom as u16).map(Value).collect();
            order.shuffle(&mut rng);
            if parents.is_empty() {
                net.set_unconditional(v, &order).unwrap();
            } else {
                net.set_preference(v, &assignment, &order).unwrap();
            }
        }
    }
    net.validate().expect("random net must validate");
    net
}

/// Generates a random *chain* network `v0 → v1 → … → v(n-1)`; useful for
/// benchmarks where depth (not branching) is the variable of interest.
pub fn chain_net(vars: usize, domain: usize, seed: u64) -> CpNet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = CpNet::new();
    let mut prev: Option<VarId> = None;
    for i in 0..vars {
        let names: Vec<String> = (0..domain).map(|d| format!("v{i}_{d}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let v = net.add_variable(&format!("v{i}"), &name_refs).unwrap();
        if let Some(p) = prev {
            net.set_parents(v, &[p]).unwrap();
            for pv in 0..domain as u16 {
                let mut order: Vec<Value> = (0..domain as u16).map(Value).collect();
                order.shuffle(&mut rng);
                net.set_preference(v, &[(p, Value(pv))], &order).unwrap();
            }
        } else {
            let mut order: Vec<Value> = (0..domain as u16).map(Value).collect();
            order.shuffle(&mut rng);
            net.set_unconditional(v, &order).unwrap();
        }
        prev = Some(v);
    }
    net.validate().unwrap();
    net
}
