//! Command line: `grt-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Progress goes to stderr; the last line of stdout is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use grt_perfbench::run::{run, run_traced, Metric, Report};
use grt_perfbench::workload::Workload;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_owned()
    }
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(
            |Metric {
                 name, value, unit, ..
             }| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            },
        )
        .collect();
    let correct = report.tally.failed == 0 && report.metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("grt-perfbench: {e}");
            eprintln!(
                "usage: grt-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let result = if args.trace {
        run_traced(args.workload, args.seed, args.seconds).map(|(report, tracer)| {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("trace-{name}-seed{}.json", args.seed));
            match std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, tracer.to_trace_event_json()))
            {
                Ok(()) => eprintln!(
                    "grt-perfbench: {} spans written to {}",
                    tracer.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("grt-perfbench: cannot write {}: {e}", path.display()),
            }
            report
        })
    } else {
        run(args.workload, args.seed, args.seconds)
    };
    let report = match result {
        Ok(r) => r,
        Err(f) => {
            eprintln!("grt-perfbench: {name}: {f}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(f) = &report.tally.first_failure {
        eprintln!(
            "grt-perfbench: {name}: {} of {} operations failed; first: {f}",
            report.tally.failed, report.tally.attempted
        );
    }
    eprintln!(
        "grt-perfbench: {name} seed {} trace {}: {} timed samples",
        args.seed, args.trace as u8, report.samples
    );
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
