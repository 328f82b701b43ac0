//! Measured end-to-end benchmark of the simulation platform.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <division|frozen_cloud|spheroid|gpu_offload|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it reports the per-layer
//! metrics and writes its spans to `.bench_out/`. Both check every step
//! and the final state, and print one JSON object as the last line of
//! standard output. Run from the repository root.

mod check;
mod host;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use bdm_metrics::json::JsonValue;
use bdm_sim::ExecMode;
use metrics::{Metric, TracedRun};
use run::{Budget, Pass, Runner};
use std::process::ExitCode;
use trace::Tracer;
use workloads::Workload;

/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let mut context = host::context();
    context.push("workload", JsonValue::Str(workload.name().into()));
    context.push("seed", JsonValue::Num(args.seed as f64));
    context.push("seconds", JsonValue::Num(args.seconds as f64));
    context.push("trace", JsonValue::Bool(args.trace));
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let runner = |mode, tracer| Runner {
        workload,
        seed: args.seed,
        mode,
        tracer,
    };
    let seconds = args.seconds as f64;
    let (measured, metrics, failure) = if args.trace {
        // Untraced, then the same steps traced, then serially.
        let untraced = runner(ExecMode::Parallel, None).run(Budget::Seconds(seconds / 2.0));
        let replay = Budget::Steps(untraced.steps());
        let tracer = Tracer::new();
        let traced = runner(ExecMode::Parallel, Some(&tracer)).run(replay);
        let serial = runner(ExecMode::Serial, None).run(replay);
        let failure = compare_digests(&untraced, &[&traced, &serial]);
        let metrics = metrics::per_layer(&TracedRun {
            untraced: &untraced,
            traced: &traced,
            serial: &serial,
            tracer: &tracer,
            threads: rayon::current_num_threads(),
        });
        add_scene(&mut context, &untraced);
        if let Err(e) = write_trace(workload, args.seed, &context, &metrics, &tracer) {
            eprintln!("perfbench: writing the trace failed: {e}");
        }
        (untraced, metrics, failure)
    } else {
        let measured = runner(ExecMode::Parallel, None).run(Budget::Seconds(seconds));
        let peak_rss = host::rss_mib().1;
        // Every episode is the same run, so one serial episode is the
        // reference final state.
        let episode = workload.episode_steps() as usize;
        let serial = runner(ExecMode::Serial, None).run(Budget::Steps(episode));
        let failure = compare_digests(&measured, &[&serial]);
        add_scene(&mut context, &measured);
        let failed = failed_steps(&measured, &failure);
        let metrics = metrics::end_to_end(&measured, peak_rss, failed);
        (measured, metrics, failure)
    };

    println!(
        "{}",
        compact(&JsonValue::Obj(vec![("context".into(), context)]))
    );
    let failed = failed_steps(&measured, &failure);
    for e in measured.errors.iter().chain(&failure) {
        println!("# check failed: {e}");
    }
    for m in &metrics {
        println!("{:<34} {:>16.6} {:<7} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{}",
        compact(&result_json(
            failed == 0,
            measured.attempted,
            failed,
            &metrics
        ))
    );
    ExitCode::SUCCESS
}

/// Steps of the measuring pass counted as failed: every one of them when
/// a final check across passes failed.
fn failed_steps(measured: &Pass, failure: &Option<String>) -> u64 {
    if failure.is_some() {
        measured.attempted
    } else {
        measured.failed_steps()
    }
}

/// Every episode of every pass must end in the same state: episodes of
/// one seed are identical runs, and the traced and serial passes replay
/// the measured one.
fn compare_digests(measured: &Pass, others: &[&Pass]) -> Option<String> {
    let reference = *measured.digests.first()?;
    let all = std::iter::once(measured).chain(others.iter().copied());
    for (k, pass) in all.enumerate() {
        if pass.failed_steps() > 0 && k > 0 {
            return Some(format!(
                "replay pass {k} failed its checks: {:?}",
                pass.errors
            ));
        }
        if let Some(d) = pass.digests.iter().find(|&&d| d != reference) {
            return Some(format!(
                "final-state digest {d:016x} of pass {k} differs from {reference:016x}"
            ));
        }
    }
    None
}

fn add_scene(context: &mut JsonValue, pass: &Pass) {
    context.push("initial_agents", JsonValue::Num(pass.initial_agents as f64));
    context.push("final_agents", JsonValue::Num(pass.final_agents as f64));
    context.push("timed_steps", JsonValue::Num(pass.steps() as f64));
    context.push("episodes", JsonValue::Num(pass.digests.len() as f64));
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut o = JsonValue::obj();
                o.push("value", JsonValue::Num(m.value));
                o.push("unit", JsonValue::Str(m.unit.into()));
                (m.name.clone(), o)
            })
            .collect(),
    )
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> JsonValue {
    let mut o = JsonValue::obj();
    o.push("correct", JsonValue::Bool(correct));
    o.push("attempted", JsonValue::Num(attempted as f64));
    o.push("failed", JsonValue::Num(failed as f64));
    o.push("metrics", metrics_json(metrics));
    o
}

/// Write the traced run's context, per-layer metrics and spans.
fn write_trace(
    workload: Workload,
    seed: u64,
    context: &JsonValue,
    metrics: &[Metric],
    tracer: &Tracer,
) -> std::io::Result<()> {
    let mut doc = JsonValue::obj();
    doc.push("context", context.clone());
    doc.push("metrics", metrics_json(metrics));
    doc.push("spans", tracer.spans_json());
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/{}-seed{seed}.json", workload.name());
    std::fs::write(&path, doc.to_pretty())?;
    println!("# spans written to {path}");
    Ok(())
}

/// One-line JSON (the repository's writer only pretty-prints).
/// Non-finite numbers become `null`.
fn compact(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(x) if x.is_finite() => format!("{x}"),
        JsonValue::Num(_) => "null".into(),
        JsonValue::Str(s) => json_string(s),
        JsonValue::Arr(items) => {
            format!(
                "[{}]",
                items.iter().map(compact).collect::<Vec<_>>().join(",")
            )
        }
        JsonValue::Obj(pairs) => format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("{}:{}", json_string(k), compact(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run every workload, each in its own process (so each one's peak RSS
/// is its own), with the same seed, length and trace setting.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("perfbench: workload {} did not complete", w.name());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_line_of_json() {
        let metrics = [Metric {
            name: "step_ms_p50".into(),
            value: 1.25,
            unit: "ms",
            note: String::new(),
        }];
        let line = compact(&result_json(true, 3, 0, &metrics));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"step_ms_p50":{"value":1.25,"unit":"ms"}}}"#
        );
        assert_eq!(json_string("a\"b\\\n"), r#""a\"b\\\u000a""#);
    }
}
