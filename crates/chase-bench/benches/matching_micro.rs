//! Planned vs unplanned body matching on wide-body TGDs — the microbench
//! behind the `chase-plan` join compiler's headline claim: a compiled,
//! statistics-ordered join program over the store's own indexes beats
//! the per-node dynamic searcher by ≥ 2x on badly-written bodies, while
//! enumerating exactly the same homomorphism multiset (asserted here before
//! timing anything).
//!
//! Workloads (bodies written worst-first, as a constraint author plausibly
//! would):
//!
//! * `star` — `E1(X,Y1), …, E4(X,Y4), S(X)`: a 5-atom star join whose only
//!   selective atom comes last;
//! * `chain` — `E(X1,X2), E(X2,X3), E(X3,X4), S(X4)`: a path join anchored
//!   at the far end;
//! * `pair` — `T(X,Y), S(X), R(Y)`: a fat relation with a low-selectivity
//!   first column: once `S` and `R` bind both columns, `T` is one exact-row
//!   probe of the dedup table instead of a wide positional bucket.

use chase_bench::{print_table, scaled, Row};
use chase_core::{Atom, ConstraintSet, Instance, Term};
use chase_engine::Matcher;
use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;

struct Workload {
    name: &'static str,
    set: ConstraintSet,
    inst: Instance,
}

fn star(n: usize) -> Workload {
    let set = ConstraintSet::parse("E1(X,Y1), E2(X,Y2), E3(X,Y3), E4(X,Y4), S(X) -> Q(X)").unwrap();
    let mut inst = Instance::new();
    for i in 0..n {
        let x = Term::constant(&format!("v{}", i % (n / 8).max(1)));
        for e in ["E1", "E2", "E3", "E4"] {
            inst.insert(Atom::new(e, vec![x, Term::constant(&format!("{e}w{i}"))]));
        }
    }
    inst.insert(Atom::new("S", vec![Term::constant("v0")]));
    Workload {
        name: "star",
        set,
        inst,
    }
}

fn chain(n: usize) -> Workload {
    let set = ConstraintSet::parse("E(X1,X2), E(X2,X3), E(X3,X4), S(X4) -> Q(X1)").unwrap();
    let mut inst = Instance::new();
    for i in 0..n {
        inst.insert(Atom::new(
            "E",
            vec![
                Term::constant(&format!("v{i}")),
                Term::constant(&format!("v{}", i + 1)),
            ],
        ));
    }
    inst.insert(Atom::new("S", vec![Term::constant(&format!("v{n}"))]));
    Workload {
        name: "chain",
        set,
        inst,
    }
}

fn pair(n: usize) -> Workload {
    let set = ConstraintSet::parse("T(X,Y), S(X), R(Y) -> Q(X,Y)").unwrap();
    let mut inst = Instance::new();
    for i in 0..n {
        inst.insert(Atom::new(
            "T",
            vec![
                Term::constant(&format!("a{}", i % 4)),
                Term::constant(&format!("b{i}")),
            ],
        ));
    }
    for i in 0..4 {
        inst.insert(Atom::new("S", vec![Term::constant(&format!("a{i}"))]));
        inst.insert(Atom::new("R", vec![Term::constant(&format!("b{i}"))]));
    }
    Workload {
        name: "pair",
        set,
        inst,
    }
}

fn count_matches(m: &Matcher, w: &Workload) -> usize {
    let mut n = 0usize;
    m.for_each_body_hom(0, &w.set[0], &w.inst, &mut |_| {
        n += 1;
        false
    });
    n
}

fn workloads() -> Vec<Workload> {
    let n = scaled(512, 96);
    vec![star(n), chain(n), pair(n)]
}

fn print_shape() {
    let mut rows = Vec::new();
    for w in workloads() {
        let planned = Matcher::planned(&w.set, &w.inst);
        let unplanned = Matcher::unplanned();
        let t0 = std::time::Instant::now();
        let np = count_matches(&planned, &w);
        let dt_p = t0.elapsed();
        let t0 = std::time::Instant::now();
        let nu = count_matches(&unplanned, &w);
        let dt_u = t0.elapsed();
        assert_eq!(np, nu, "planner changed the result set on {}", w.name);
        rows.push(Row::new(
            w.name,
            vec![
                w.inst.len().to_string(),
                np.to_string(),
                format!("{dt_p:.2?}"),
                format!("{dt_u:.2?}"),
                format!("{:.1}x", dt_u.as_secs_f64() / dt_p.as_secs_f64().max(1e-9)),
            ],
        ));
    }
    print_table(
        "Body matching — compiled join programs vs dynamic searcher",
        &[
            "workload",
            "facts",
            "homs",
            "planned",
            "unplanned",
            "speedup",
        ],
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching_micro");
    g.sample_size(10);
    for w in workloads() {
        let planned = Matcher::planned(&w.set, &w.inst);
        let unplanned = Matcher::unplanned();
        g.bench_with_input(BenchmarkId::new(w.name, "planned"), &w, |b, w| {
            b.iter(|| count_matches(black_box(&planned), w))
        });
        g.bench_with_input(BenchmarkId::new(w.name, "unplanned"), &w, |b, w| {
            b.iter(|| count_matches(black_box(&unplanned), w))
        });
    }
    g.finish();
}

fn main() {
    print_shape();
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
