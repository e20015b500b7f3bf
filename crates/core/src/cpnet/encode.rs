//! Compact binary persistence for CP-networks.
//!
//! The paper stores the preference specification as a static part of the
//! multimedia document inside the object database; this module provides the
//! byte format used when a [`CpNet`] is written into a BLOB by the
//! `rcmo-mediadb` layer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "CPN1" | u32 nvars
//! per var:  str name | u16 ndom | ndom × str value-name
//! per var:  u16 nparents | nparents × u32 parent-id
//!           u32 nrows | nrows × ( u8 explicit | ndom × u16 value )
//! str := u16 len | len bytes of UTF-8
//! ```

use super::{CpNet, CpTable, Ranking, Value, VarId, Variable};
use crate::error::{CoreError, Result};
use rcmo_obs::wire::{Reader, Writer};

const MAGIC: &[u8; 4] = b"CPN1";

/// Serialises `net` to bytes; see the module-level docs for the layout.
pub fn encode_net(net: &CpNet) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    w.bytes(MAGIC);
    w.u32(net.vars.len() as u32);
    for var in &net.vars {
        w.str16(&var.name);
        w.u16(var.domain.len() as u16);
        for d in &var.domain {
            w.str16(d);
        }
    }
    for t in &net.tables {
        w.u16(t.parents.len() as u16);
        for p in &t.parents {
            w.u32(p.0);
        }
        w.u32(t.rows.len() as u32);
        for (row, &explicit) in t.rows.iter().zip(&t.explicit) {
            w.u8(u8::from(explicit));
            for v in row.order() {
                w.u16(v.0);
            }
        }
    }
    w.into_bytes()
}

/// Decodes bytes produced by [`encode_net`], re-validating all structural
/// invariants (domains, permutations, parent references, row counts).
pub fn decode_net(bytes: &[u8]) -> Result<CpNet> {
    let mut r = Reader::new(bytes);
    r.magic(MAGIC)?;
    // Smallest variable: a name, a one-value domain, a parentless one-row table.
    let nvars = r.count32(2 + 2 + 2 + (2 + 4 + 3))?;
    let mut vars = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        let name = r.str16()?;
        let ndom = r.count16(2)?;
        if ndom == 0 {
            return Err(CoreError::Codec(format!(
                "variable '{name}' has empty domain"
            )));
        }
        let mut domain = Vec::with_capacity(ndom);
        for _ in 0..ndom {
            domain.push(r.str16()?);
        }
        vars.push(Variable { name, domain });
    }
    let mut tables = Vec::with_capacity(nvars);
    for (i, var) in vars.iter().enumerate() {
        let nparents = r.count16(4)?;
        let mut parents = Vec::with_capacity(nparents);
        for _ in 0..nparents {
            let p = r.u32()?;
            if p as usize >= nvars || p as usize == i {
                return Err(CoreError::Codec(format!(
                    "variable '{}' has invalid parent id {p}",
                    var.name
                )));
            }
            parents.push(VarId(p));
        }
        let parent_domains: Vec<usize> =
            parents.iter().map(|p| vars[p.idx()].domain.len()).collect();
        let dom = var.domain.len();
        let nrows = r.count32(1 + 2 * dom)?;
        let expected_rows = parent_domains
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d));
        if expected_rows != Some(nrows) {
            return Err(CoreError::Codec(format!(
                "variable '{}': stream has {nrows} rows, not one per parent assignment",
                var.name
            )));
        }
        let mut rows = Vec::with_capacity(nrows);
        let mut explicit = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            explicit.push(r.u8()? != 0);
            let mut order = Vec::with_capacity(dom);
            for _ in 0..dom {
                order.push(Value(r.u16()?));
            }
            rows.push(Ranking::new(order, dom)?);
        }
        tables.push(CpTable {
            parents,
            parent_domains,
            rows,
            explicit,
        });
    }
    r.finish()?;
    // The wire format carries no cache identity: a decoded net is a fresh
    // instance (fresh uid, revision 0).
    let net = CpNet {
        vars,
        tables,
        uid: super::next_net_uid(),
        revision: 0,
    };
    // Acyclicity is not guaranteed by the wire format; re-check.
    let n = net.len();
    let mut indeg: Vec<usize> = net.tables.iter().map(|t| t.parents.len()).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, t) in net.tables.iter().enumerate() {
        for p in &t.parents {
            children[p.idx()].push(i);
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0;
    while let Some(v) = queue.pop() {
        seen += 1;
        for &c in &children[v] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                queue.push(c);
            }
        }
    }
    if seen != n {
        return Err(CoreError::Codec(
            "decoded network contains a cycle".to_string(),
        ));
    }
    Ok(net)
}
