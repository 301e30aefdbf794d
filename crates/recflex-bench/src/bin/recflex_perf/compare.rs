//! `recflex_perf compare PARENT.jsonl CHANGE.jsonl` — a verdict for every
//! (workload, end-to-end metric) of two result sets.
//!
//! A result set is the JSON-lines file `--json` appends to: one record per
//! run. Verdicts follow the benchmark's rules:
//!
//! * simulated (exact) metrics must be equal — the same seeds give the
//!   same values, so any difference is a change of behaviour;
//! * a host-clock metric is `worse` when the change's median is worse than
//!   the parent's by more than the metric's bound, `unresolved` when either
//!   side spreads wider than the bound (interquartile range over median)
//!   and not every change run beats every parent run, and `same`
//!   otherwise;
//! * `better` needs the pair rule: at least ten parent/change pairs run
//!   alternately (record order pairs them; start times show who ran
//!   first), the change winning at least nine tenths of them, and the
//!   medians differing by more than the parent's interquartile range.

use std::process::ExitCode;

use serde_json::Value;

use crate::metrics::{Def, END_TO_END};
use crate::stats::{median, quartiles};

/// A metric value of one run, with the run's start time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub unix_ms: u64,
    pub value: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Minimum alternating pairs behind a `better` verdict.
const MIN_PAIRS: usize = 10;

fn iqr(xs: &[f64]) -> f64 {
    quartiles(xs).map_or(0.0, |q| q[2] - q[0])
}

/// The pair rule for claiming that `change` improved on `parent`.
pub fn gain_holds(parent: &[Sample], change: &[Sample]) -> bool {
    let pairs: Vec<(Sample, Sample)> = parent.iter().copied().zip(change.iter().copied()).collect();
    if pairs.len() < MIN_PAIRS {
        return false;
    }
    let parent_first: Vec<bool> = pairs.iter().map(|(p, c)| p.unix_ms < c.unix_ms).collect();
    if parent_first.windows(2).any(|w| w[0] == w[1]) {
        return false;
    }
    let wins = pairs.iter().filter(|(p, c)| c.value < p.value).count();
    let values = |s: &[Sample]| s.iter().map(|x| x.value).collect::<Vec<_>>();
    let (pv, cv) = (values(parent), values(change));
    let (mp, mc) = (median(&pv), median(&cv));
    wins * 10 >= pairs.len() * 9 && mp - mc > iqr(&pv)
}

/// The verdict for one metric of one workload.
pub fn verdict(def: &Def, parent: &[Sample], change: &[Sample]) -> Verdict {
    let values = |s: &[Sample]| s.iter().map(|x| x.value).collect::<Vec<_>>();
    let (pv, cv) = (values(parent), values(change));
    if pv.is_empty() || cv.is_empty() {
        return Verdict::Unresolved;
    }
    let (mp, mc) = (median(&pv), median(&cv));
    if def.exact {
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        return if sorted(pv) == sorted(cv) {
            Verdict::Same
        } else if mc < mp {
            Verdict::Better
        } else if mc > mp {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if gain_holds(parent, change) {
        return Verdict::Better;
    }
    if (mc - mp) / mp.abs() > def.bound {
        return Verdict::Worse;
    }
    let spread = |v: &[f64], m: f64| iqr(v) / m.abs();
    let every_change_wins = cv.iter().all(|&c| pv.iter().all(|&p| c < p));
    if (spread(&pv, mp) > def.bound || spread(&cv, mc) > def.bound) && !every_change_wins {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

/// `(workload, start time, metrics)` of every record in a result set.
fn load(path: &str) -> Result<Vec<(String, u64, Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let field = |k: &str| v.field(k).map_err(|e| format!("{path}:{}: {e}", i + 1));
            let workload = match field("workload")? {
                Value::Str(s) => s.clone(),
                _ => return Err(format!("{path}:{}: `workload` is not a string", i + 1)),
            };
            let unix_ms = match field("provenance")?.field("unix_ms") {
                Ok(Value::UInt(t)) => *t,
                _ => 0,
            };
            Ok((workload, unix_ms, field("metrics")?.clone()))
        })
        .collect()
}

fn samples(set: &[(String, u64, Value)], workload: &str, metric: &str) -> Vec<Sample> {
    set.iter()
        .filter(|(w, _, _)| w == workload)
        .filter_map(
            |(_, t, m)| match m.field(metric).and_then(|x| x.field("value")) {
                Ok(Value::Float(v)) => Some(Sample {
                    unix_ms: *t,
                    value: *v,
                }),
                Ok(Value::UInt(v)) => Some(Sample {
                    unix_ms: *t,
                    value: *v as f64,
                }),
                _ => None,
            },
        )
        .collect()
}

fn summary(s: &[Sample]) -> String {
    let v: Vec<f64> = s.iter().map(|x| x.value).collect();
    match quartiles(&v) {
        Some([q1, _, q3]) => format!("{:>14.6} [{:.6}, {:.6}] n={}", median(&v), q1, q3, v.len()),
        None => format!("{:>14.6} n={}", median(&v), v.len()),
    }
}

pub fn main(argv: &[String]) -> ExitCode {
    let [parent, change] = argv else {
        eprintln!("usage: recflex_perf compare PARENT.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    let (parent, change) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workloads: Vec<&str> = Vec::new();
    for (w, _, _) in parent.iter().chain(&change) {
        if !workloads.contains(&w.as_str()) {
            workloads.push(w);
        }
    }
    let mut worse = false;
    println!(
        "{:<16} {:<14} {:>42} {:>42} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]"
    );
    for w in workloads {
        for def in &END_TO_END {
            let (p, c) = (samples(&parent, w, def.name), samples(&change, w, def.name));
            let v = verdict(def, &p, &c);
            worse |= v == Verdict::Worse;
            println!(
                "{w:<16} {:<14} {:>42} {:>42} {}",
                def.name,
                summary(&p),
                summary(&c),
                v.label()
            );
        }
    }
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> Def {
        *END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    /// Runs at `values`, parent and change interleaved: parent pair i
    /// starts at 20·i, its change partner 10 ms later or earlier.
    fn set(values: &[f64], parent: bool) -> Vec<Sample> {
        values
            .iter()
            .enumerate()
            .map(|(i, &value)| {
                let first = (i % 2 == 0) == parent;
                Sample {
                    unix_ms: 20 * i as u64 + if first { 0 } else { 10 },
                    value,
                }
            })
            .collect()
    }

    #[test]
    fn exact_metrics_must_be_equal() {
        let d = def("sim_p95_us");
        let a = set(&[100.0, 120.0, 110.0], true);
        assert_eq!(
            verdict(&d, &a, &set(&[110.0, 100.0, 120.0], false)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&d, &a, &set(&[100.0, 120.0, 110.5], false)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&d, &a, &set(&[99.0, 119.0, 109.0], false)),
            Verdict::Better
        );
    }

    #[test]
    fn host_metrics_within_bound_are_same_and_beyond_are_worse() {
        let d = def("main_s");
        let parent = set(&[100.0, 101.0, 99.0, 100.5, 99.5], true);
        let close = set(&[110.0, 111.0, 109.5, 110.5, 108.5], false);
        assert_eq!(verdict(&d, &parent, &close), Verdict::Same);
        let slow = set(&[130.0, 131.0, 129.0, 130.5, 129.5], false);
        assert_eq!(verdict(&d, &parent, &slow), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let d = def("main_s");
        let parent = set(&[1.0, 1.6, 0.7, 1.4, 0.8], true);
        let change = set(&[1.05, 1.5, 0.7, 1.2, 1.0], false);
        assert_eq!(verdict(&d, &parent, &change), Verdict::Unresolved);
    }

    #[test]
    fn a_gain_needs_ten_alternating_pairs_won_nine_in_ten() {
        let d = def("setup_s");
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.002 * i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        let (p, c) = (set(&parent, true), set(&faster, false));
        assert!(gain_holds(&p, &c));
        assert_eq!(verdict(&d, &p, &c), Verdict::Better);
        // Nine pairs are too few.
        assert!(!gain_holds(&p[..9], &c[..9]));
        // Pairs that do not alternate who runs first prove nothing.
        let same_order: Vec<Sample> = c
            .iter()
            .map(|s| Sample {
                unix_ms: s.unix_ms + 100,
                ..*s
            })
            .collect();
        assert!(!gain_holds(&p, &same_order));
        // Two lost pairs out of ten break the nine-in-ten rule.
        let mut mixed = faster.clone();
        mixed[3] = 2.0;
        mixed[7] = 2.0;
        assert!(!gain_holds(&p, &set(&mixed, false)));
        // A win smaller than the parent's interquartile range is noise.
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { 1.4 })
            .collect();
        let barely: Vec<f64> = noisy.iter().map(|p| p - 0.01).collect();
        assert!(!gain_holds(&set(&noisy, true), &set(&barely, false)));
    }
}
