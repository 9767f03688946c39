//! The correctness oracle: a cold `chase_engine::chase` of a tenant's
//! accumulated base facts under Σ, and the certain answers it gives.

use chase_core::{Atom, ConjunctiveQuery, Constraint, ConstraintSet, Instance};
use chase_engine::{chase, ChaseConfig, StopReason};

/// Facts per cold chase when Σ is linear (see [`cold_chase`]).
const LINEAR_CHUNK: usize = 250;

/// Cold-chase the union of `batches` (fact text) under `sigma`, unbounded.
///
/// When every constraint is a TGD with a one-atom body, the union of the
/// chases of any partition of the facts is itself a universal model, so it
/// has exactly the certain answers of one chase of the whole union. The
/// facts are then chased in chunks: the one-shot engine's cost grows
/// faster than linearly in the size of its input.
pub fn cold_chase(sigma: &ConstraintSet, batches: &[&str]) -> Result<Instance, String> {
    let text = batches.concat();
    let base = Instance::parse(&text).map_err(|e| format!("oracle parse: {e}"))?;
    let linear = sigma
        .iter()
        .all(|c| matches!(c, Constraint::Tgd(t) if t.body().len() == 1));
    let atoms = base.atoms();
    let chunk = if linear {
        LINEAR_CHUNK
    } else {
        atoms.len().max(1)
    };
    let cfg = ChaseConfig {
        max_steps: None,
        ..ChaseConfig::default()
    };
    let mut union = Instance::new();
    for part in atoms.chunks(chunk) {
        let mut inst = Instance::new();
        for a in part {
            inst.insert(a.clone());
        }
        let out = chase(&inst, sigma, &cfg);
        if out.reason != StopReason::Satisfied {
            return Err(format!("oracle chase stopped: {:?}", out.reason));
        }
        let chased: Vec<Atom> = out.instance.atoms();
        for a in chased {
            union.insert(a);
        }
    }
    Ok(union)
}

/// Certain answers of `cq` on `inst`, each tuple rendered as surface text
/// and the whole set sorted, so it compares equal to a sorted wire answer.
pub fn answers(inst: &Instance, cq: &str) -> Result<Vec<Vec<String>>, String> {
    let q = ConjunctiveQuery::parse(cq).map_err(|e| format!("oracle query {cq}: {e}"))?;
    let mut out: Vec<Vec<String>> = q
        .evaluate_certain(inst)
        .into_iter()
        .map(|t| t.into_iter().map(|term| term.to_string()).collect())
        .collect();
    out.sort();
    Ok(out)
}
