//! Instance-store microbench: insert/dedup/merge throughput of the interned
//! columnar fact store.
//!
//! Workloads:
//!
//! * `insert_const` — constant-heavy: a fact stream over interned constant
//!   names, replayed twice so half the probes are dedup hits;
//! * `insert_null` — null-heavy: the same shape with a fresh labeled null
//!   per fact (the chase's steady-state insert mix), replayed twice;
//! * `merge` — EGD-merge pressure: a null-linked chain collapsed by a
//!   sequence of `merge_terms` calls.
//!
//! The store's contents are checked against a brute-force scan in
//! `tests/instance_store.rs`; this bench only times it.

use chase_bench::{print_table, scaled, Row};
use chase_core::{Atom, Instance, Term};
use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;

/// A constant-heavy fact stream: `E(a_{i mod k}, b_i)` plus a skewed
/// `T(a, b, c)` triple relation, replayed `rounds` times (every round after
/// the first is all dedup hits).
fn const_stream(n: usize, rounds: usize) -> Vec<Atom> {
    let k = (n / 8).max(1);
    let mut out = Vec::with_capacity(2 * n * rounds);
    for _ in 0..rounds {
        for i in 0..n {
            out.push(Atom::new(
                "E",
                vec![
                    Term::constant(&format!("a{}", i % k)),
                    Term::constant(&format!("b{i}")),
                ],
            ));
            out.push(Atom::new(
                "T",
                vec![
                    Term::constant(&format!("a{}", i % 4)),
                    Term::constant(&format!("b{}", i % k)),
                    Term::constant(&format!("c{i}")),
                ],
            ));
        }
    }
    out
}

/// A null-heavy stream: `E(c_{i mod k}, _n_i). S(_n_i).` — the shape TGD
/// steps with existentials produce — replayed `rounds` times.
fn null_stream(n: usize, rounds: usize) -> Vec<Atom> {
    let k = (n / 8).max(1);
    let mut out = Vec::with_capacity(2 * n * rounds);
    for _ in 0..rounds {
        for i in 0..n {
            out.push(Atom::new(
                "E",
                vec![Term::constant(&format!("c{}", i % k)), Term::null(i as u32)],
            ));
            out.push(Atom::new("S", vec![Term::null(i as u32)]));
        }
    }
    out
}

/// The merge workload: a null chain `E(_n_i, _n_{i+1})` plus anchors, and
/// the merge sequence collapsing every null into one constant.
fn merge_workload(n: usize) -> (Vec<Atom>, Vec<(Term, Term)>) {
    let mut atoms = Vec::with_capacity(2 * n);
    for i in 0..n as u32 {
        atoms.push(Atom::new("E", vec![Term::null(i), Term::null(i + 1)]));
        atoms.push(Atom::new(
            "S",
            vec![Term::constant(&format!("s{}", i % 16)), Term::null(i)],
        ));
    }
    let merges: Vec<(Term, Term)> = (0..n as u32 / 2)
        .map(|i| (Term::null(2 * i + 1), Term::null(2 * i)))
        .chain((0..4u32).map(|i| (Term::null(4 * i), Term::constant("m"))))
        .collect();
    (atoms, merges)
}

fn build_interned(stream: &[Atom]) -> usize {
    let mut i = Instance::new();
    for a in stream {
        i.insert(a.clone());
    }
    i.len()
}

fn run_merges_interned(base: &Instance, merges: &[(Term, Term)]) -> usize {
    let mut i = base.clone();
    for &(from, to) in merges {
        i.merge_terms(from, to);
    }
    i.len()
}

struct Prepared {
    const_stream: Vec<Atom>,
    null_stream: Vec<Atom>,
    merge_base_interned: Instance,
    merges: Vec<(Term, Term)>,
}

fn prepare() -> Prepared {
    let n = scaled(4096, 512);
    let const_stream = const_stream(n, 2);
    let null_stream = null_stream(n, 2);
    let (merge_atoms, merges) = merge_workload(scaled(1024, 128));
    let mut merge_base_interned = Instance::new();
    for a in &merge_atoms {
        merge_base_interned.insert(a.clone());
    }
    Prepared {
        const_stream,
        null_stream,
        merge_base_interned,
        merges,
    }
}

fn print_shape(p: &Prepared) {
    let time = |f: &dyn Fn() -> usize| {
        let t0 = std::time::Instant::now();
        let facts = black_box(f());
        (t0.elapsed(), facts)
    };
    let rows: Vec<Row> = [
        ("insert_const", time(&|| build_interned(&p.const_stream))),
        ("insert_null", time(&|| build_interned(&p.null_stream))),
        (
            "merge",
            time(&|| run_merges_interned(&p.merge_base_interned, &p.merges)),
        ),
    ]
    .into_iter()
    .map(|(name, (elapsed, facts))| {
        Row::new(name, vec![format!("{elapsed:.2?}"), facts.to_string()])
    })
    .collect();
    print_table(
        "Instance store — interned columnar",
        &["workload", "interned", "facts"],
        &rows,
    );
}

fn bench(c: &mut Criterion, p: &Prepared) {
    let mut g = c.benchmark_group("instance_micro");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("insert_const", "interned"), p, |b, p| {
        b.iter(|| build_interned(black_box(&p.const_stream)))
    });
    g.bench_with_input(BenchmarkId::new("insert_null", "interned"), p, |b, p| {
        b.iter(|| build_interned(black_box(&p.null_stream)))
    });
    g.bench_with_input(BenchmarkId::new("merge", "interned"), p, |b, p| {
        b.iter(|| run_merges_interned(black_box(&p.merge_base_interned), &p.merges))
    });
    g.finish();
}

fn main() {
    let prepared = prepare();
    print_shape(&prepared);
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c, &prepared);
    c.final_summary();
}
