//! `EXPLAIN` for chase constraints: dump the join programs the `chase-plan`
//! compiler builds for the paper's Example 4 over the Example 5 instance
//! after a short chase — the worked example PAPER.md's planner section
//! walks through.
//!
//! ```text
//! cargo run --release --example explain_plan
//! ```

use chase::prelude::*;
use chase_corpus::paper;

fn main() {
    let sigma = paper::example4_sigma();
    // Chase the Example 5 instance a few steps so the statistics have data
    // to bite on (the terminating Theorem 2 order).
    let phases = stratified_order(&sigma, &PrecedenceConfig::default());
    let result = chase(
        &paper::example5_instance(),
        &sigma,
        &ChaseConfig {
            strategy: Strategy::Phased(phases),
            ..ChaseConfig::default()
        },
    );
    let inst = result.instance;
    println!("instance after the Theorem 2 chase: {inst}\n");
    let matcher = Matcher::planned(&sigma, &inst);
    for (ci, c) in sigma.enumerate() {
        let plans = matcher.plans(ci).expect("planner is on");
        println!("alpha{}: {c}", ci + 1);
        print!("  body: {}", indent(&plans.body.to_string()));
        if let Some(head) = &plans.head {
            print!("  head: {}", indent(&head.to_string()));
        }
        println!();
    }
}

fn indent(s: &str) -> String {
    let mut out = String::new();
    for (i, line) in s.lines().enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}
