//! P1 — parallel_scaling: the stratum-scheduled parallel executor
//! (`chase_parallel`) against the sequential delta engine, swept over
//! 1/2/4/8 threads on Example 4, the Figure 9 travel constraints, and a
//! random TGD family. Full-budget runs add a ~9k-fact travel instance,
//! the size at which the fan-out pays for itself on two cores.
//!
//! Every engine replays the identical trace under the same phase schedule
//! (asserted below before timing), so the comparison isolates pure
//! matching-throughput differences: sharded head revalidation, sharded
//! delta re-matching, and sharded pool rebuilds. Speedups require actual
//! cores — on a single-CPU host the parallel engine's job is to stay at
//! parity (the dispatch overhead is bounded by `fanout_threshold`).

use chase_bench::{print_table, quick, scaled, Row};
use chase_corpus::random::{
    random_instance, random_tgds, random_travel_instance, RandomInstanceConfig, RandomTgdConfig,
    RandomTravelConfig,
};
use chase_corpus::{families, paper};
use chase_engine::{chase, chase_parallel, ChaseConfig, ChaseResult, ParallelConfig, Strategy};
use chase_termination::{phase_schedule, PrecedenceConfig};
use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    name: &'static str,
    set: chase_core::ConstraintSet,
    inst: chase_core::Instance,
    max_steps: usize,
}

fn workloads() -> Vec<Workload> {
    let random_set = random_tgds(&RandomTgdConfig {
        constraints: 4,
        predicates: 3,
        max_arity: 3,
        body_atoms: (1, 2),
        head_atoms: (1, 2),
        existential_prob: 0.25,
        seed: 5,
    });
    let random_inst = random_instance(
        &random_set,
        &RandomInstanceConfig {
            facts: scaled(400, 40),
            domain: scaled(40, 8),
            seed: 5,
        },
    );
    let mut workloads = vec![
        Workload {
            name: "example4",
            set: paper::example4_sigma(),
            inst: families::unary_instance("R", scaled(48, 8)),
            max_steps: scaled(20_000, 2_000),
        },
        Workload {
            name: "fig9_travel",
            set: paper::fig9_travel(),
            inst: random_travel_instance(&RandomTravelConfig {
                cities: scaled(120, 16),
                flights: scaled(1_200, 60),
                rails: scaled(600, 30),
                seed: 7,
            }),
            max_steps: scaled(4_000, 250),
        },
        Workload {
            name: "random_tgds",
            set: random_set,
            inst: random_inst,
            max_steps: scaled(3_000, 250),
        },
    ];
    if !quick() {
        workloads.push(Workload {
            name: "fig9_travel_9k",
            set: paper::fig9_travel(),
            inst: random_travel_instance(&RandomTravelConfig {
                cities: 400,
                flights: 6_000,
                rails: 3_000,
                seed: 7,
            }),
            max_steps: 40_000,
        });
    }
    workloads
}

fn delta_cfg(phases: &[Vec<usize>], max_steps: usize) -> ChaseConfig {
    ChaseConfig {
        strategy: Strategy::Phased(phases.to_vec()),
        max_steps: Some(max_steps),
        ..ChaseConfig::default()
    }
}

fn parallel_cfg(max_steps: usize, threads: usize) -> ParallelConfig {
    ParallelConfig {
        base: ChaseConfig {
            max_steps: Some(max_steps),
            ..ChaseConfig::default()
        },
        threads,
        fanout_threshold: 256,
    }
}

fn assert_same_run(name: &str, a: &ChaseResult, b: &ChaseResult) {
    assert_eq!(
        a.reason, b.reason,
        "{name}: engines disagree on stop reason"
    );
    assert_eq!(a.steps, b.steps, "{name}: engines disagree on step count");
    assert_eq!(a.instance, b.instance, "{name}: engines disagree on result");
}

fn print_shape() {
    let pc = PrecedenceConfig::default();
    let mut rows = Vec::new();
    for w in workloads() {
        let schedule = phase_schedule(&w.set, &pc);
        let cfg = delta_cfg(&schedule.phases, w.max_steps);
        let t0 = Instant::now();
        let base = chase(&w.inst, &w.set, &cfg);
        let delta_time = t0.elapsed();
        rows.push(Row::new(
            format!("{} (delta)", w.name),
            vec![
                format!("{:?}", base.reason),
                base.steps.to_string(),
                format!("{:.2} ms", delta_time.as_secs_f64() * 1e3),
                "1.00x".into(),
            ],
        ));
        for threads in THREAD_SWEEP {
            let pcfg = parallel_cfg(w.max_steps, threads);
            let t0 = Instant::now();
            let par = chase_parallel(&w.inst, &w.set, &schedule.phases, &pcfg);
            let par_time = t0.elapsed();
            assert_same_run(w.name, &base, &par);
            rows.push(Row::new(
                format!("{} (parallel, {} threads)", w.name, threads),
                vec![
                    format!("{:?}", par.reason),
                    par.steps.to_string(),
                    format!("{:.2} ms", par_time.as_secs_f64() * 1e3),
                    format!(
                        "{:.2}x",
                        delta_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9)
                    ),
                ],
            ));
        }
    }
    print_table(
        "P1 — stratum-scheduled parallel executor (speedups need real cores)",
        &["run", "outcome", "steps", "wall time", "speedup vs delta"],
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    let pc = PrecedenceConfig::default();
    let mut g = c.benchmark_group("parallel_scaling");
    g.sample_size(10);
    for w in workloads() {
        let schedule = phase_schedule(&w.set, &pc);
        let cfg = delta_cfg(&schedule.phases, w.max_steps);
        g.bench_with_input(BenchmarkId::new(w.name, "delta"), &cfg, |b, cfg| {
            b.iter(|| chase(black_box(&w.inst), &w.set, cfg))
        });
        for threads in THREAD_SWEEP {
            let pcfg = parallel_cfg(w.max_steps, threads);
            g.bench_with_input(
                BenchmarkId::new(w.name, format!("t{threads}")),
                &pcfg,
                |b, pcfg| {
                    b.iter(|| chase_parallel(black_box(&w.inst), &w.set, &schedule.phases, pcfg))
                },
            );
        }
    }
    g.finish();
}

fn main() {
    print_shape();
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
