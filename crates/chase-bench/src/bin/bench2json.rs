//! Turn `cargo bench -p chase-bench` output into a `BENCH_<sha>.json`
//! summary — the record CI uploads to build the repo's perf trajectory.
//!
//! Reads bench output on stdin and writes JSON on stdout. Each measurement
//! line has the shape the criterion stand-in prints:
//!
//! ```text
//! fig1_chase_engines/delta/ex4           time: [1.10 ms 1.23 ms 1.51 ms]
//! ```
//!
//! and becomes `{"group", "workload", "engine", "label", "median_ns"}`,
//! where `group` is the first `/`-segment of the label, `engine` the last,
//! and `workload` whatever sits between (falling back to the group for
//! short labels). Usage:
//!
//! ```text
//! cargo bench -p chase-bench | cargo run -p chase-bench --bin bench2json -- --sha "$GITHUB_SHA"
//! ```
//!
//! With `--require-results`, exits non-zero when no measurement line was
//! parsed — CI's bench-smoke job passes it so a silently broken bench run
//! (or a bench output format drift that the parser no longer recognizes)
//! fails the job instead of uploading an empty trajectory point.
//!
//! # Regression gate
//!
//! With `--compare <baseline.json>` the tool additionally diffs the parsed
//! sweep against a previously committed `BENCH_<sha>.json` trajectory
//! point: every label present in both runs is compared median-to-median,
//! a report is printed to stderr, and the process exits non-zero when any
//! bench regressed by more than `--threshold <percent>` (default 25).
//! Labels only present on one side are listed but never fail the gate
//! (benches come and go); a `quick` flag mismatch between the runs is an
//! error, because quick and full medians are not comparable. CI's
//! bench-smoke job runs the gate right after summarizing, so a hot-path
//! regression fails the PR instead of silently bending the trajectory.
//!
//! Two extra knobs serve the observability overhead gate, which compares
//! two sweeps taken minutes apart on a noisy shared runner: `--stat min`
//! substitutes each bench's per-iteration minimum for its median (on both
//! the summary and the compare side — scheduler interference only ever
//! adds time), and `--aggregate` gates on the summed time over the matched
//! benches instead of any single bench's delta (a lone micro bench's min
//! still swings more than any real hot-path effect; the sum is stable to a
//! couple of percent).

use std::io::Read;

#[derive(Debug)]
struct Measurement {
    label: String,
    median_ns: f64,
    min_ns: f64,
}

fn parse_value(value: &str, unit: &str) -> Option<f64> {
    let v: f64 = value.parse().ok()?;
    let scale = match unit {
        "ns" => 1.0,
        "µs" | "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => return None,
    };
    Some(v * scale)
}

/// Parse one `<label> time: [<min> <median> <max>]` line.
fn parse_line(line: &str) -> Option<Measurement> {
    let (label, rest) = line.split_once(" time: [")?;
    let inside = rest.trim_end().strip_suffix(']')?;
    let tokens: Vec<&str> = inside.split_whitespace().collect();
    if tokens.len() != 6 {
        return None;
    }
    Some(Measurement {
        label: label.trim().to_string(),
        median_ns: parse_value(tokens[2], tokens[3])?,
        min_ns: parse_value(tokens[0], tokens[1])?,
    })
}

/// Parse every measurement line in `input`, sorted by label. With
/// `use_min`, each line's per-iteration *minimum* replaces its median
/// (`--stat min` — the robust statistic for the CI overhead gate, since
/// scheduler interference only ever adds time, never removes it). A label
/// appearing more than once folds to the smallest value of the chosen
/// statistic: the overhead gate concatenates several runs of the same
/// bench target per side to shrink the noise floor further.
fn parse_results(input: &str, use_min: bool) -> Vec<Measurement> {
    let mut results: Vec<Measurement> = input.lines().filter_map(parse_line).collect();
    if use_min {
        for m in &mut results {
            m.median_ns = m.min_ns;
        }
    }
    results.sort_by(|a, b| {
        a.label
            .cmp(&b.label)
            .then(a.median_ns.total_cmp(&b.median_ns))
    });
    results.dedup_by(|later, first| later.label == first.label);
    results
}

/// A parsed `BENCH_<sha>.json` baseline: the `quick` flag and each result's
/// `(label, median_ns)`.
struct Baseline {
    quick: Option<bool>,
    results: Vec<(String, f64)>,
}

/// Extract the string value of `"key": "…"` from a JSON line this tool
/// emitted (its own escaping is limited to `\"`, `\\` and control escapes,
/// which are unescaped here).
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// Extract the numeric value of `"key": <num>` from a JSON line.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a `BENCH_<sha>.json` file produced by this tool. Line-oriented on
/// purpose — the emitter writes one result object per line — so no JSON
/// dependency is needed.
fn parse_baseline(text: &str) -> Baseline {
    let mut quick = None;
    let mut results = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("\"quick\": ") {
            quick = match rest.trim_end_matches(',') {
                "true" => Some(true),
                "false" => Some(false),
                _ => None,
            };
        }
        if let (Some(label), Some(median)) = (
            json_str_field(line, "label"),
            json_num_field(line, "median_ns"),
        ) {
            results.push((label, median));
        }
    }
    Baseline { quick, results }
}

/// A failing regression: `(label, old_ns, new_ns, delta_percent)`.
type Regression = (String, f64, f64, f64);

/// Diff `current` against `baseline`; returns the failing regressions
/// plus the summed `(baseline_ns, current_ns)` over the matched benches,
/// and prints the full report to stderr.
fn compare(
    baseline: &Baseline,
    current: &[Measurement],
    threshold_percent: f64,
) -> (Vec<Regression>, f64, f64) {
    let mut regressions = Vec::new();
    let mut matched = 0usize;
    let (mut old_sum, mut new_sum) = (0.0f64, 0.0f64);
    for m in current {
        let Some(&(_, old)) = baseline.results.iter().find(|(l, _)| *l == m.label) else {
            eprintln!("  new (no baseline):       {}", m.label);
            continue;
        };
        matched += 1;
        old_sum += old;
        new_sum += m.median_ns;
        let delta = if old > 0.0 {
            (m.median_ns - old) / old * 100.0
        } else {
            0.0
        };
        let verdict = if delta > threshold_percent {
            regressions.push((m.label.clone(), old, m.median_ns, delta));
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "  {verdict:>9} {:>+7.1}%  {:>12.0} ns -> {:>12.0} ns  {}",
            delta, old, m.median_ns, m.label
        );
    }
    for (label, _) in &baseline.results {
        if !current.iter().any(|m| m.label == *label) {
            eprintln!("  gone (baseline only):    {label}");
        }
    }
    eprintln!(
        "bench2json: compared {matched} benches against baseline, {} over the {threshold_percent}% threshold",
        regressions.len()
    );
    (regressions, old_sum, new_sum)
}

/// The distinct bench groups (first `/`-segment of the label) among the
/// failing regressions, sorted — so the gate's failure message names which
/// bench *group* breached the threshold, not just the raw labels.
fn breached_groups(regressions: &[Regression]) -> Vec<String> {
    let mut groups: Vec<String> = regressions
        .iter()
        .map(|(label, ..)| label.split('/').next().unwrap_or(label).to_string())
        .collect();
    groups.sort();
    groups.dedup();
    groups
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let mut sha = std::env::var("GITHUB_SHA").unwrap_or_default();
    let mut require_results = false;
    let mut baseline_path: Option<String> = None;
    let mut threshold = 25.0f64;
    // `--stat min`: substitute each bench's per-iteration minimum for its
    // median, in both the summary and the comparison. The overhead gate
    // passes it on *both* sides (its throwaway baseline and the compare);
    // committed trajectory points keep the default median.
    let mut use_min = false;
    // `--aggregate`: gate `--compare` on the summed time over matched
    // benches rather than any single bench's delta.
    let mut aggregate = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--sha" {
            sha = args.next().unwrap_or_default();
        } else if arg == "--require-results" {
            require_results = true;
        } else if arg == "--compare" {
            baseline_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("bench2json: --compare needs a baseline path");
                std::process::exit(2);
            }));
        } else if arg == "--threshold" {
            threshold = args.next().and_then(|t| t.parse().ok()).unwrap_or_else(|| {
                eprintln!("bench2json: --threshold needs a percentage");
                std::process::exit(2);
            });
        } else if arg == "--stat" {
            use_min = match args.next().as_deref() {
                Some("min") => true,
                Some("median") => false,
                other => {
                    eprintln!("bench2json: --stat must be `min` or `median`, got {other:?}");
                    std::process::exit(2);
                }
            };
        } else if arg == "--aggregate" {
            aggregate = true;
        }
    }
    if sha.is_empty() {
        sha = "unknown".into();
    }

    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .expect("read bench output from stdin");
    let results = parse_results(&input, use_min);
    if require_results && results.is_empty() {
        // An empty summary means the bench run or the parser silently broke
        // — a trajectory of empty points is worse than a red CI job.
        eprintln!(
            "bench2json: no measurement lines found in {} bytes of bench output \
             (expected `<label> time: [..]` lines); refusing to emit an empty summary",
            input.len()
        );
        std::process::exit(1);
    }

    let quick = chase_bench::quick();
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench2json: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline = parse_baseline(&text);
        if baseline.results.is_empty() {
            eprintln!("bench2json: baseline {path} holds no results; refusing to compare");
            std::process::exit(2);
        }
        if let Some(bq) = baseline.quick {
            if bq != quick {
                eprintln!(
                    "bench2json: baseline {path} was a quick={bq} run but this sweep is \
                     quick={quick}; medians are not comparable"
                );
                std::process::exit(2);
            }
        }
        eprintln!("bench2json: comparing against {path} (threshold {threshold}%)");
        let (regressions, old_sum, new_sum) = compare(&baseline, &results, threshold);
        if aggregate {
            // Gate on the summed time over the matched benches instead of
            // per-bench deltas: on a shared runner an individual micro
            // bench's min still swings well over any real effect, while
            // the aggregate — dominated by the longer benches — is stable
            // to a couple of percent. The per-bench report above stays for
            // diagnosis.
            let delta = if old_sum > 0.0 {
                (new_sum - old_sum) / old_sum * 100.0
            } else {
                0.0
            };
            eprintln!(
                "bench2json: aggregate over matched benches: {old_sum:.0} ns -> {new_sum:.0} ns \
                 ({delta:+.1}%)"
            );
            if delta > threshold {
                eprintln!(
                    "bench2json: FAIL — aggregate regression {delta:+.1}% exceeds {threshold}%"
                );
                std::process::exit(1);
            }
        } else if !regressions.is_empty() {
            let groups = breached_groups(&regressions);
            eprintln!(
                "bench2json: FAIL — median regressions over {threshold}% in bench group{} {}:",
                if groups.len() == 1 { "" } else { "s" },
                groups.join(", ")
            );
            for (label, old, new, delta) in &regressions {
                eprintln!("  {label}: {old:.0} ns -> {new:.0} ns ({delta:+.1}%)");
            }
            std::process::exit(1);
        }
    }
    println!("{{");
    println!("  \"sha\": \"{}\",", json_escape(&sha));
    println!("  \"quick\": {quick},");
    println!("  \"results\": [");
    for (i, m) in results.iter().enumerate() {
        let segments: Vec<&str> = m.label.split('/').collect();
        let group = segments.first().copied().unwrap_or("");
        let engine = segments.last().copied().unwrap_or("");
        let workload = if segments.len() >= 3 {
            segments[1..segments.len() - 1].join("/")
        } else {
            group.to_string()
        };
        let comma = if i + 1 < results.len() { "," } else { "" };
        println!(
            "    {{\"group\": \"{}\", \"workload\": \"{}\", \"engine\": \"{}\", \"label\": \"{}\", \"median_ns\": {:.1}}}{}",
            json_escape(group),
            json_escape(&workload),
            json_escape(engine),
            json_escape(&m.label),
            m.median_ns,
            comma
        );
    }
    println!("  ]");
    println!("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_measurement_lines() {
        let m = parse_line(
            "fig1_chase_engines/delta/ex4                   time: [1.10 ms 1.23 ms 1.51 ms]",
        )
        .unwrap();
        assert_eq!(m.label, "fig1_chase_engines/delta/ex4");
        assert!((m.median_ns - 1.23e6).abs() < 1.0);
        assert!((m.min_ns - 1.10e6).abs() < 1.0);
        let m = parse_line("g/f   time: [980.00 ns 1.10 µs 1.90 µs]").unwrap();
        assert!((m.median_ns - 1100.0).abs() < 1.0);
        assert!((m.min_ns - 980.0).abs() < 1.0, "units scale per token");
    }

    #[test]
    fn ignores_non_measurement_lines() {
        assert!(parse_line("## fig1_chase_engines").is_none());
        assert!(parse_line("some table row | 33 | 12").is_none());
        assert!(parse_line("x time: [weird]").is_none());
    }

    #[test]
    fn duplicate_labels_fold_to_minimum_of_the_chosen_stat() {
        let input = "\
g/bench time: [10.00 µs 12.00 µs 20.00 µs]\n\
g/other time: [1.00 µs 2.00 µs 3.00 µs]\n\
g/bench time: [9.00 µs 11.00 µs 15.00 µs]\n\
g/bench time: [11.00 µs 14.00 µs 30.00 µs]\n";
        let results = parse_results(input, false);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].label, "g/bench");
        assert!((results[0].median_ns - 11000.0).abs() < 1.0, "min median");
        assert_eq!(results[1].label, "g/other");
        // --stat min: per-line minima, folded to the smallest.
        let results = parse_results(input, true);
        assert!((results[0].median_ns - 9000.0).abs() < 1.0, "min of mins");
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    const BASELINE: &str = r#"{
  "sha": "abc",
  "quick": true,
  "results": [
    {"group": "g", "workload": "w", "engine": "e", "label": "g/w/e", "median_ns": 1000.0},
    {"group": "g", "workload": "w2", "engine": "e", "label": "g/w2/e", "median_ns": 2000.0},
    {"group": "gone", "workload": "x", "engine": "e", "label": "gone/x/e", "median_ns": 5.0}
  ]
}"#;

    #[test]
    fn parses_its_own_baseline_format() {
        let b = parse_baseline(BASELINE);
        assert_eq!(b.quick, Some(true));
        assert_eq!(b.results.len(), 3);
        assert_eq!(b.results[0], ("g/w/e".to_string(), 1000.0));
        assert_eq!(b.results[1].1, 2000.0);
    }

    #[test]
    fn compare_flags_only_regressions_over_threshold() {
        let b = parse_baseline(BASELINE);
        let current = vec![
            Measurement {
                label: "g/w/e".into(),
                median_ns: 1200.0, // +20%: inside a 25% threshold
                min_ns: 1200.0,
            },
            Measurement {
                label: "g/w2/e".into(),
                median_ns: 2600.0, // +30%: over it
                min_ns: 2600.0,
            },
            Measurement {
                label: "brand/new/e".into(), // no baseline: never fails
                median_ns: 9.9e9,
                min_ns: 9.9e9,
            },
        ];
        let (regressions, old_sum, new_sum) = compare(&b, &current, 25.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].0, "g/w2/e");
        assert!((regressions[0].3 - 30.0).abs() < 1e-9);
        // The aggregate sums only the matched benches — the brand-new one
        // (no baseline) stays out of both sides.
        assert!((old_sum - 3000.0).abs() < 1e-9);
        assert!((new_sum - 3800.0).abs() < 1e-9);
        // Improvements and exact matches pass at any threshold.
        let fine = vec![Measurement {
            label: "g/w/e".into(),
            median_ns: 500.0,
            min_ns: 500.0,
        }];
        assert!(compare(&b, &fine, 0.1).0.is_empty());
    }

    #[test]
    fn failure_output_names_the_breached_groups() {
        let regressions = vec![
            ("merge_storm/storm/warm".to_string(), 1000.0, 2000.0, 100.0),
            ("merge_storm/storm_dense/warm".to_string(), 1.0, 2.0, 100.0),
            ("instance_micro/merge".to_string(), 10.0, 20.0, 100.0),
            ("plainlabel".to_string(), 1.0, 2.0, 100.0),
        ];
        assert_eq!(
            breached_groups(&regressions),
            vec!["instance_micro", "merge_storm", "plainlabel"],
            "one entry per distinct group, sorted"
        );
        assert!(breached_groups(&[]).is_empty());
    }
}
