//! Regenerates the paper's figures as text tables and CSV files.
//!
//! Usage:
//!
//! ```text
//! figures [fig5 fig6 ... fig12 | all] [--scale paper|small] [--seeds N] [--jobs N] [--out DIR]
//! ```
//!
//! With `--out DIR` each figure is also written as `DIR/<fig>.csv`.

use std::io::Write as _;

use dco_bench::figs::{self, FigScale};
use dco_bench::usage_block;
use dco_metrics::Figure;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = usage_block(include_str!("figures.rs"));
    if args.iter().any(|a| a == "--help") {
        print!("{usage}");
        return;
    }
    let mut which: Vec<String> = Vec::new();
    let mut scale = FigScale::paper();
    let mut out_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("paper") => FigScale::paper(),
                    Some("small") => FigScale::small(),
                    other => {
                        eprintln!("unknown scale {other:?} (use paper|small)");
                        std::process::exit(2);
                    }
                };
            }
            "--seeds" => {
                i += 1;
                let n: u64 = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seeds needs a number");
                    std::process::exit(2);
                });
                scale.seeds = dco_workload::ScenarioGrid::seed_list(42, n as usize);
            }
            "--jobs" => {
                i += 1;
                scale.jobs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--jobs needs a number");
                    std::process::exit(2);
                });
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }));
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown argument {flag}");
                eprint!("usage: {usage}");
                std::process::exit(2);
            }
            name => which.push(name.to_string()),
        }
        i += 1;
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = (5..=12).map(|k| format!("fig{k}")).collect();
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    for name in &which {
        let t0 = std::time::Instant::now();
        let fig: Figure = match name.as_str() {
            "fig5" => figs::fig5(&scale),
            "fig6" => figs::fig6(&scale),
            "fig7" => figs::fig7(&scale),
            "fig8" => figs::fig8(&scale),
            "fig9" => figs::fig9(&scale),
            "fig10" => figs::fig10(&scale),
            "fig11" => figs::fig11(&scale),
            "fig12" => figs::fig12(&scale),
            other => {
                eprintln!("unknown figure {other} (fig5..fig12 or all)");
                std::process::exit(2);
            }
        };
        let elapsed = t0.elapsed();
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(stdout, "{}", fig.to_text_table());
        let _ = writeln!(stdout, "# generated in {:.1}s\n", elapsed.as_secs_f64());
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, fig.to_csv()).expect("write csv");
            let _ = writeln!(stdout, "# wrote {path}\n");
        }
    }
}
